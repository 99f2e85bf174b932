"""Tracing and performance analysis (the Extrae/Paraver substitute).

* :class:`PhaseLog` — per-(step, phase, rank) execution records with the
  paper's load-balance metric L_n, phase time percentages, and IPC: a
  run's one simulated-time record (the Extrae capture), which every
  table, figure, POP metric and Paraver export below reads.
* :func:`render_timeline` — ASCII Paraver-style timeline (Fig. 2).
* :func:`write_prv` — Paraver ``.prv`` export of a phase log.
"""

from .export import write_prv
from .phaselog import PhaseLog, PhaseSample, load_balance
from .pop import POPMetrics, pop_from_phase_log, pop_metrics
from .timeline import render_timeline, timeline_rows

__all__ = [
    "PhaseLog",
    "PhaseSample",
    "POPMetrics",
    "load_balance",
    "pop_from_phase_log",
    "pop_metrics",
    "render_timeline",
    "timeline_rows",
    "write_prv",
]
