"""Fault injection against a running simulated job.

The :class:`FaultInjector` turns a :class:`~repro.fault.plan.FaultPlan`
into DES trigger processes: each spec fires at its simulated time and
perturbs the run — throttling a team, killing a rank, delaying or dropping
messages, contaminating a solver residual, or aborting the whole job.
Because everything happens in simulated time, an injected run is exactly
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..smpi import World
from .plan import ORCHESTRATION_KINDS, FaultPlan, FaultSpec

__all__ = ["FaultEvent", "FaultInjector", "exercise_solver_fault"]


@dataclass(frozen=True)
class FaultEvent:
    """One fault occurrence as it actually happened during a run."""

    time: float
    kind: str
    rank: int
    detail: str = ""


class FaultInjector:
    """Schedules a plan's faults on the DES and hooks the message path.

    Parameters
    ----------
    world:
        The simulated MPI job to inject into.
    plan:
        The fault schedule.
    teams:
        Optional ``{world_rank: Team}`` map (straggler injection).
    dlb:
        Optional DLB instance — informed of deaths/throttles so it can
        degrade gracefully (and count them in its stats).
    workload:
        Optional :class:`~repro.app.workload.Workload`; when present,
        ``solver_perturb`` faults run a *real* contaminated Krylov solve
        against the workload's continuity operator.
    """

    def __init__(self, world: World, plan: FaultPlan,
                 teams: Optional[dict] = None, dlb: Optional[Any] = None,
                 workload: Optional[Any] = None):
        self.world = world
        self.plan = plan
        self.teams = teams or {}
        self.dlb = dlb
        self.workload = workload
        #: chronological record of what fired (resilience report input)
        self.events: list[FaultEvent] = []
        #: results of injected solver faults (SolveResult per occurrence)
        self.solver_results: list = []
        self.messages_dropped = 0
        self.messages_delayed = 0
        self._drop_budget: dict[int, int] = {}
        self._delay_windows: list[tuple[int, float, float, float]] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Install the message hook and spawn one trigger per future spec.

        Specs whose trigger time already passed (a restarted run resuming
        at ``engine.now > 0``) are skipped: their damage is part of the
        checkpointed history, not of the remaining run.  Orchestration
        kinds (worker kill, heartbeat loss, wedge) act on the campaign
        executor, not inside a simulated run, so they are ignored here.
        """
        if self._started:
            return
        self._started = True
        self.world.fault_controller = self
        now = self.world.engine.now
        for spec in self.plan:
            if spec.kind in ORCHESTRATION_KINDS:
                continue
            if spec.time < now:
                continue
            self.world.engine.process(
                self._trigger(spec), name=f"fault.{spec.kind}@{spec.time:g}")

    # -- trigger processes --------------------------------------------------
    def _trigger(self, spec: FaultSpec):
        engine = self.world.engine
        yield engine.timeout(spec.time - engine.now)
        if spec.kind == "straggler":
            yield from self._straggler(spec)
        elif spec.kind == "rank_death":
            self._rank_death(spec)
        elif spec.kind == "msg_delay":
            self._record(spec, f"+{spec.delay:g}s/msg from rank {spec.rank} "
                               f"for {spec.duration:g}s")
            self._delay_windows.append(
                (spec.rank, spec.delay, engine.now,
                 engine.now + spec.duration))
        elif spec.kind == "msg_drop":
            self._record(spec, f"drop next {spec.count} messages "
                               f"from rank {spec.rank}")
            self._drop_budget[spec.rank] = (
                self._drop_budget.get(spec.rank, 0) + spec.count)
        elif spec.kind == "solver_perturb":
            self._solver_perturb(spec)
        elif spec.kind == "job_kill":
            self._record(spec, spec.note or "injected job kill")
            engine.stop(spec.note or "injected job kill")

    def _straggler(self, spec: FaultSpec):
        engine = self.world.engine
        self._record(spec, f"x{spec.factor:g} slowdown for "
                           f"{spec.duration:g}s")
        if self.dlb is not None:
            self.dlb.on_rank_throttle(spec.rank, spec.factor)
        elif spec.rank in self.teams:
            self.teams[spec.rank].set_slowdown(spec.factor)
        yield engine.timeout(spec.duration)
        if spec.rank in self.world.dead_ranks:
            return
        if self.dlb is not None:
            self.dlb.on_rank_throttle(spec.rank, 1.0)
        elif spec.rank in self.teams:
            self.teams[spec.rank].set_slowdown(1.0)

    def _rank_death(self, spec: FaultSpec) -> None:
        self._record(spec, spec.note or f"rank {spec.rank} killed")
        self.world.kill_rank(spec.rank, spec.note or "injected rank death")
        if self.dlb is not None:
            self.dlb.on_rank_death(spec.rank)

    def _solver_perturb(self, spec: FaultSpec) -> None:
        if self.workload is None:
            self._record(spec, "solver perturbation (no workload attached)")
            return
        result = exercise_solver_fault(self.workload, spec)
        self.solver_results.append(result)
        outcome = ("recovered" if result.recovered and result.converged
                   else f"failed ({result.breakdown})"
                   if result.breakdown else
                   "converged" if result.converged else "not converged")
        self._record(spec, f"NaN injected into {spec.phase} residual "
                           f"at iteration {max(1, spec.count)}: {outcome}")

    # -- message-path hook (called from Comm._isend_start) -----------------
    def on_message(self, src: int, dest: int,
                   nbytes: float) -> tuple[bool, float]:
        """Decide the fate of one message leaving ``src``.

        Returns ``(dropped, extra_delay_seconds)``.
        """
        budget = self._drop_budget.get(src, 0)
        if budget > 0:
            self._drop_budget[src] = budget - 1
            self.messages_dropped += 1
            return True, 0.0
        now = self.world.engine.now
        extra = 0.0
        for rank, delay, t0, t1 in self._delay_windows:
            if rank == src and t0 <= now < t1:
                extra += delay
        if extra > 0:
            self.messages_delayed += 1
        return False, extra

    # -- bookkeeping --------------------------------------------------------
    def _record(self, spec: FaultSpec, detail: str) -> None:
        self.events.append(FaultEvent(time=self.world.engine.now,
                                      kind=spec.kind, rank=spec.rank,
                                      detail=detail))

    def summary(self) -> dict:
        """Fault tallies for the resilience report."""
        by_kind: dict[str, int] = {}
        for ev in self.events:
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
        return {
            "planned": len(self.plan),
            "fired": len(self.events),
            "by_kind": by_kind,
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "dead_ranks": sorted(self.world.dead_ranks),
            "solver_faults": [
                {"converged": r.converged, "recovered": r.recovered,
                 "breakdown": r.breakdown, "iterations": r.iterations}
                for r in self.solver_results],
        }


def exercise_solver_fault(workload: Any, spec: FaultSpec):
    """Run a real CG solve with a NaN injected at iteration ``spec.count``.

    Uses the workload's assembled continuity operator — the paper's
    "Solver2" system — so the breakdown/recovery path is exercised on the
    actual physics, not a toy matrix.  Returns the :class:`SolveResult`
    (``recovered=True`` when the re-preconditioned retry succeeded).
    """
    from ..solver import cg, jacobi_preconditioner

    A = workload.operators()["continuity"]
    rng = np.random.default_rng(workload.spec.mesh_seed)
    b = A @ rng.normal(size=A.shape[0])
    hit = max(1, spec.count)

    def contaminate(it: int, r: np.ndarray) -> np.ndarray:
        if it == hit:
            r = r.copy()
            r[0] = np.nan
        return r

    return cg(A, b, tol=1e-8, maxiter=800, M=jacobi_preconditioner(A),
              fault=contaminate)
