"""Tracing and performance analysis (the Extrae/Paraver substitute).

* :class:`PhaseLog` — per-(step, phase, rank) execution records with the
  paper's load-balance metric L_n, phase time percentages, and IPC.
* :class:`Tracer` — raw interval recorder pluggable into the simulated MPI
  world (``world.recorder``).
* :func:`render_timeline` — ASCII Paraver-style timeline (Fig. 2).
"""

from .export import write_prv
from .phaselog import PhaseLog, PhaseSample, load_balance
from .pop import POPMetrics, pop_from_phase_log, pop_metrics
from .tracer import Interval, Tracer
from .timeline import render_timeline, timeline_rows

__all__ = [
    "Interval",
    "PhaseLog",
    "PhaseSample",
    "Tracer",
    "POPMetrics",
    "load_balance",
    "pop_from_phase_log",
    "pop_metrics",
    "render_timeline",
    "timeline_rows",
    "write_prv",
]
