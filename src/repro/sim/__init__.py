"""Discrete-event simulation substrate (engine, events, processes).

See :mod:`repro.sim.engine` for the event loop and its composite event
:class:`AllOf`; the MPI mailboxes (:mod:`repro.smpi`) and the thread teams
(:mod:`repro.core.runtime`) are built directly on it.
"""

from .engine import AllOf, Engine, Event, Process, SimulationError, Timeout

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
]
