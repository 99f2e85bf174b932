"""Counters of the performance layer.

These helpers only read tallies — they never touch the DES clock, so
attaching them cannot perturb simulated-time results.

* :class:`Counters` — plain named event tallies;
* :func:`engine_counters` — snapshot of a DES engine's progress counters
  (events processed, simulated now, alive processes, cohort and plan
  statistics);
* :func:`fluid_counters` — snapshot of the numeric fluid solver's tallies
  (momentum operators recycled, deflated pressure solves, deflation
  setups built/reused, Krylov workspace cache traffic).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counters", "engine_counters", "fluid_counters"]


class Counters:
    """Named monotonic tallies (events, elements, particles, ...)."""

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> float:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def report(self) -> Dict[str, float]:
        """A copy of all counters."""
        return dict(self._counts)


def engine_counters(engine) -> Dict[str, float]:
    """Snapshot of a DES engine's progress counters.

    Besides the flat progress counters, the snapshot carries the
    per-cohort instrumentation under ``"batch"``: cohort count and size
    statistics (including a power-of-two size histogram), the dispatch
    split (arena-slot callbacks vs Event objects), clock-jump statistics,
    the event arena's allocation counters, and — when a
    :class:`~repro.core.runtime.Team` attached its plan arbiter — the
    whole-graph plan counters.
    """
    n_cohorts = engine._n_cohorts
    hist = {}
    for i, count in enumerate(engine._cohort_hist):
        if count:
            lo = 1 << i
            hi = (1 << (i + 1)) - 1
            hist[f"{lo}" if lo == hi else f"{lo}-{hi}"] = count
    batch: Dict[str, float] = {
        "cohorts": n_cohorts,
        "cohort_events": engine._cohort_events,
        "max_cohort": engine._max_cohort,
        "mean_cohort": (engine._cohort_events / n_cohorts
                        if n_cohorts else 0.0),
        "cohort_hist": hist,
        "arena_fired": engine._n_arena_fired,
        "event_objects": engine._n_event_dispatch,
        "bulk_jumps": engine._n_jumps,
        "jump_total_time": engine._jump_total,
        "arena": engine.arena.counters(),
    }
    arbiter = getattr(engine, "_plan_arbiter", None)
    if arbiter is not None:
        batch["plans"] = {
            "planned_graphs": arbiter.planned_graphs,
            "planned_tasks": arbiter.planned_tasks,
            "plan_cache_hits": arbiter.plan_cache_hits,
            "plan_replans": arbiter.plan_replans,
        }
    return {
        "events_processed": engine.events_processed,
        "sim_now": engine.now,
        "alive_processes": engine.alive_process_count,
        "batch": batch,
    }


def fluid_counters() -> Dict[str, float]:
    """Snapshot of the numeric fluid solver's tallies.

    Combines the :data:`repro.fem.fractional_step.FLUID_COUNTERS` running
    totals (momentum operators recycled, deflated
    continuity solves, deflation setups built/reused, Δt-rung operator-
    cache hits/misses/rebuilds, adaptive steps and local-mode subcycles)
    with the buffered Krylov cores' workspace-cache counters
    (:func:`repro.solver.krylov.krylov_workspace_stats`), namespaced under
    ``"krylov_workspaces"``.  Process-wide totals — diagnostics, not part
    of any simulated result.
    """
    from ..fem.fractional_step import FLUID_COUNTERS
    from ..solver.krylov import krylov_workspace_stats

    out: Dict[str, float] = dict(FLUID_COUNTERS)
    out["krylov_workspaces"] = krylov_workspace_stats()
    return out
