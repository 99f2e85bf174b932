"""Trace export: a Paraver-style ``.prv`` record format.

The paper's analysis workflow is Extrae (capture) + Paraver (visualize).
Our :class:`~repro.trace.phaselog.PhaseLog` plays the Extrae role; this
module exports its samples so external tools can play Paraver's:
:func:`write_prv` writes Paraver state-record syntax
(``1:cpu:appl:task:thread:begin:end:state``), one application, one task
per MPI rank, times in integer nanoseconds, with a ``.pcf``-style legend
of phase-state ids embedded as comments.
"""

from __future__ import annotations

from typing import TextIO, Union

from .phaselog import PhaseLog

__all__ = ["write_prv"]


def _open(dest: Union[str, TextIO], mode: str):
    if isinstance(dest, str):
        return open(dest, mode), True
    return dest, False


def write_prv(log: PhaseLog, dest: Union[str, TextIO],
              resolution_ns: float = 1.0) -> dict:
    """Write Paraver-style state records; returns the phase -> state-id map.

    Record syntax (one per sample)::

        1:<cpu>:1:<task>:1:<begin_ns>:<end_ns>:<state>

    where ``task`` is ``rank + 1`` and ``state`` numbers the phases in
    first-appearance order starting at 1 (0 is reserved for idle, as in
    Paraver).  The header carries the total duration and rank count; the
    state legend is embedded as ``#`` comments (a minimal inline ``.pcf``).
    """
    phases = log.phases()
    state_of = {phase: i + 1 for i, phase in enumerate(phases)}
    total_ns = int(round(log.total_elapsed() * 1e9 / resolution_ns))
    fh, owned = _open(dest, "w")
    try:
        fh.write(f"#Paraver (repro):{total_ns}_ns:1({log.nranks}):1:"
                 f"1({log.nranks}:1)\n")
        for phase, state in state_of.items():
            fh.write(f"# STATE {state} {phase}\n")
        for s in sorted(log.samples, key=lambda s: (s.t0, s.rank)):
            begin = int(round(s.t0 * 1e9 / resolution_ns))
            end = int(round(s.t1 * 1e9 / resolution_ns))
            fh.write(f"1:{s.rank + 1}:1:{s.rank + 1}:1:{begin}:{end}:"
                     f"{state_of[s.phase]}\n")
    finally:
        if owned:
            fh.close()
    return state_of
