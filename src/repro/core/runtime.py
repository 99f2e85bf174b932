"""OmpSs/OpenMP-like task runtime executing task graphs on simulated cores.

Each MPI rank owns a :class:`Team` — its OpenMP thread team.  A team executes
a :class:`~repro.core.taskgraph.TaskGraph` with a *malleable* worker count:
DLB can shrink it (cores are lent away when the rank blocks in MPI) or grow
it (cores borrowed from blocked ranks), with changes taking effect at task
boundaries — the same granularity at which the real DLB/LeWI reacts through
``omp_set_num_threads``.

Scheduling semantics:

* a task becomes *ready* when all its DAG predecessors have finished;
* a ready task is *runnable* when none of its ``MUTEXINOUTSET`` refs is held
  by a running task; the scheduler acquires all refs atomically (the DES
  scheduler is a single logical lock, so no deadlock is possible);
* ready tasks are dispatched FIFO with runnable-first scanning, which keeps
  consecutive (memory-contiguous) chunks on the same worker when possible —
  the locality property the paper attributes to multidependences.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol

from ..machine import CoreModel
from ..sim import Engine, Event
from .taskgraph import Task, TaskGraph

__all__ = ["Team", "GraphStats", "TeamListener", "RuntimeError_"]


class RuntimeError_(RuntimeError):
    """Raised on illegal team usage (e.g. overlapping run() calls)."""


class TeamListener(Protocol):
    """Observer of a team's appetite for cores (implemented by DLB)."""

    def on_team_hungry(self, team: "Team") -> None:
        """``team`` has runnable tasks it cannot dispatch (wants cores)."""

    def on_team_idle(self, team: "Team") -> None:
        """``team`` finished its graph (borrowed cores can be returned)."""


@dataclass
class GraphStats:
    """Execution statistics of one graph run on a team."""

    tasks_run: int = 0
    instructions: float = 0.0
    busy_seconds: float = 0.0       # sum over workers of task execution time
    overhead_seconds: float = 0.0   # task-management overhead (not useful work)
    t_start: float = 0.0
    t_end: float = 0.0
    max_concurrency: int = 0

    @property
    def makespan(self) -> float:
        """Wall-clock duration of the graph execution."""
        return self.t_end - self.t_start

    def ipc(self, core: CoreModel) -> float:
        """Achieved instructions-per-cycle over the busy time (as a
        hardware counter would measure it)."""
        if self.busy_seconds <= 0:
            return 0.0
        cycles = self.busy_seconds * core.freq_ghz * 1e9
        return self.instructions / cycles


class _Plan:
    """A fully materialized execution schedule of one graph run.

    Produced by :meth:`Team._plan_sim` (or instantiated from a cached
    template): per-task start/finish times in dispatch order, finish times
    in completion order, and the final stats sums — everything the per-task
    path would compute task by task, computed up front so the DES carries
    a *single* completion event for the whole graph.
    """

    __slots__ = ("d_tids", "d_start", "d_finish", "d_dur", "c_finish",
                 "sums", "n_total", "t_end", "chain", "slot", "stalled")

    def __init__(self, d_tids, d_start, d_finish, d_dur, c_finish, sums,
                 n_total, t_end, chain, stalled):
        self.d_tids = d_tids
        self.d_start = d_start      # non-decreasing (dispatch order)
        self.d_finish = d_finish
        self.d_dur = d_dur          # exec*slowdown + overhead, one float
        self.c_finish = c_finish    # non-decreasing (completion order)
        self.sums = sums            # (busy, instructions, overhead, max_conc)
        self.n_total = n_total
        self.t_end = t_end
        #: dispatch-time genealogy of the last-finishing task as flattened
        #: ``(time, hop)`` pairs: its own dispatch time, then its
        #: dispatcher's, ... up to a root — the simulated times at which the
        #: per-task path would assign the seq numbers that break
        #: completion-time ties (see _PlanArbiter).  ``hop`` is 0.0 for a
        #: plain dispatch (synchronous in ``run()`` or inside a task-finish
        #: callback) and 1.0 for a repeat-boundary root, which the per-task
        #: path dispatches one event hop later (inside the previous
        #: repeat's done callback) than any same-time plain dispatch.
        self.chain = chain
        self.slot = None            # engine handle of the pending plan event
        self.stalled = stalled      # capacity 0 with work left


class _PlanTemplate:
    """Relative (t0-independent) single-worker schedule of a graph.

    With one worker the dispatch order is a pure function of the graph and
    the scheduling policy — no two in-flight finish times are ever compared
    — so the order, the per-task durations and the stats sums can be reused
    across runs; only the absolute times depend on the start time, rebuilt
    by one float add per task.  The template keeps a strong reference to its
    graph: identity (``is``) is the cache validity check, and the reference
    also prevents ``id()`` reuse by a new graph object.
    """

    __slots__ = ("graph", "slowdown", "d_tids", "dur", "sums")

    def __init__(self, graph, slowdown, d_tids, dur, sums):
        self.graph = graph
        self.slowdown = slowdown
        self.d_tids = d_tids
        self.dur = dur
        self.sums = sums


class _PlanArbiter:
    """Gives same-cohort plan completions the per-task path's tie order.

    Events at equal simulated times fire in seq order, and the per-task
    path assigns a completion's seq at the *dispatch* of the finishing
    task — inside the finish callback of the task that unblocked it, whose
    own seq was assigned at *its* dispatch, and so on down to the root
    dispatched synchronously in ``run()``.  Two teams finishing at the same
    instant therefore order by the lexicographic comparison of those
    dispatch-time chains, with ``run()``-call order as the final tie-break.

    Plan mode collapses a graph to one completion event, so that genealogy
    must be reproduced explicitly: teams submit their plans as they start,
    a deferred flush (running after every submission of the current event
    cohort) sorts them by ``(t_end, *chain)`` plus submission order, and
    arms the completion events in that order — consecutive seqs, so
    same-time completions fire exactly as the per-task path would.  Ties
    *across* cohorts resolve by cohort order, which matches the per-task
    root-dispatch order for plans with identical chains (the only ties
    observed in practice: lockstep ranks running identical graphs).
    """

    __slots__ = ("engine", "_pending", "planned_graphs", "planned_tasks",
                 "plan_cache_hits", "plan_replans")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._pending: list = []
        # plan-mode counters (surfaced through ``perf.instrument``); plain
        # attributes because the hot path bumps them once per graph run
        self.planned_graphs = 0
        self.planned_tasks = 0
        self.plan_cache_hits = 0
        self.plan_replans = 0

    def submit(self, team: "Team", plan: _Plan) -> None:
        if not self._pending:
            self.engine.defer(self._flush)
        self._pending.append(((plan.t_end,) + plan.chain,
                              len(self._pending), team, plan))

    def _flush(self) -> None:
        pending = self._pending
        self._pending = []
        pending.sort(key=lambda e: (e[0], e[1]))
        for _key, _idx, team, plan in pending:
            team._arm_plan(plan)


class Team:
    """A rank's thread team: a malleable pool of simulated cores.

    Parameters
    ----------
    engine, core:
        DES engine and the core performance model of the host node.
    nthreads:
        Base worker count (the rank's own cores).
    task_overhead_s:
        Fixed runtime-bookkeeping cost added to every task execution
        (task creation + dependence management; relevant for multidep).
    rank / name:
        Identity used in traces.
    recorder:
        Optional object with ``record(rank, category, label, t0, t1)``.
    listener:
        Optional :class:`TeamListener` (DLB).
    """

    SCHEDULERS = ("lpt", "fifo", "lifo")

    def __init__(self, engine: Engine, core: CoreModel, nthreads: int,
                 task_overhead_s: float = 0.0, rank: int = 0, name: str = "",
                 recorder=None, listener: Optional[TeamListener] = None,
                 scheduler: str = "lpt"):
        if nthreads < 0:
            raise RuntimeError_(f"nthreads must be >= 0, got {nthreads}")
        if scheduler not in self.SCHEDULERS:
            raise RuntimeError_(
                f"unknown scheduler {scheduler!r}; available: "
                f"{self.SCHEDULERS}")
        self.engine = engine
        self.core = core
        self.base_threads = nthreads
        self.rank = rank
        self.name = name or f"team{rank}"
        self.task_overhead_s = task_overhead_s
        self.recorder = recorder
        self.listener = listener
        self.scheduler = scheduler
        self._max_workers = nthreads
        #: execution-time multiplier (> 1 under an injected DVFS throttle)
        self.slowdown = 1.0
        self._active = 0
        self._ready: deque[Task] = deque()
        self._held_refs: set = set()
        self._graph: Optional[TaskGraph] = None
        self._remaining = 0
        self._preds_left: list[int] = []
        self._done: Optional[Event] = None
        self._stats: Optional[GraphStats] = None
        self._hungry_notified = False
        # Heap-backed LPT ready queue: entries are (-instr, seq, task), so
        # popping the heap min yields the largest-instruction task, earliest
        # arrival first (FIFO tie-break), in O(log n) per dispatch.  The
        # fifo/lifo policies keep the ``_ready`` deque.
        self._use_heap = scheduler == "lpt"
        self._heap: list = []
        self._seq = 0
        # Plan mode: simulate the whole graph execution up front and
        # schedule one completion event, instead of 2 DES events per task.
        # Engages per run() and only when nobody observes per-task
        # execution (no recorder, no listener — see run()).  Mid-run
        # set_capacity/set_slowdown append a timestamped epoch and
        # re-simulate the plan from the start — the already-executed prefix
        # replays float-identically, so the revised plan agrees with
        # history and the future reflects the change.
        self._plan: Optional[_Plan] = None
        self._plan_repeats = 1
        self._plan_cache: dict[int, _PlanTemplate] = {}
        self._slow_epochs: list[tuple[float, float]] = []
        self._cap_epochs: list[tuple[float, int]] = []
        arb = getattr(engine, "_plan_arbiter", None)
        if arb is None:
            arb = engine._plan_arbiter = _PlanArbiter(engine)
        self._arbiter: _PlanArbiter = arb

    # -- capacity (the DLB surface) -----------------------------------------
    @property
    def capacity(self) -> int:
        """Current worker-count ceiling (base + borrowed - lent)."""
        return self._max_workers

    @property
    def active_workers(self) -> int:
        """Workers currently executing a task."""
        if self._plan is not None:
            now = self.engine.now
            plan = self._plan
            return (bisect_right(plan.d_start, now)
                    - bisect_right(plan.c_finish, now))
        return self._active

    @property
    def is_running(self) -> bool:
        """Whether a graph is currently being executed."""
        return self._graph is not None

    @property
    def ready_count(self) -> int:
        """Tasks currently ready (waiting for a worker)."""
        if self._plan is not None:
            return self._plan_ready_count()
        if self._use_heap:
            return len(self._heap)
        return len(self._ready)

    def _plan_ready_count(self) -> int:
        """Ready-task count derived from the plan arrays (diagnostics)."""
        plan = self._plan
        graph = self._graph
        now = self.engine.now
        n = len(graph.tasks)
        started = [False] * n
        preds_done = [0] * n
        for i, tid in enumerate(plan.d_tids):
            if plan.d_start[i] > now:
                break
            started[tid] = True
            if plan.d_finish[i] <= now:
                for succ in graph.tasks[tid].successors:
                    preds_done[succ] += 1
        return sum(1 for tid, task in enumerate(graph.tasks)
                   if not started[tid] and preds_done[tid] == task.n_preds)

    @property
    def wants_cores(self) -> bool:
        """Whether extra capacity would be used right now."""
        if self._graph is None:
            return False
        if self._plan is not None:
            # derived from the plan arrays; mutex-blocked backlog counts as
            # appetite (diagnostic only — DLB runs the per-task path)
            plan = self._plan
            now = self.engine.now
            started = bisect_right(plan.d_start, now)
            active = started - bisect_right(plan.c_finish, now)
            if active < self._max_workers:
                return False
            return (plan.n_total - started) > 0
        if self._active < self._max_workers:
            return False
        held = self._held_refs
        if self._use_heap:
            if not held:
                return bool(self._heap)
            # existence check only — no need for the *best* runnable task
            return any(entry[2].mutex_refs.isdisjoint(held)
                       for entry in self._heap)
        if not held:
            # no mutexes held: any ready task is runnable
            return bool(self._ready)
        return self._runnable_index() is not None

    def set_capacity(self, n: int) -> None:
        """Change the worker ceiling; growth dispatches immediately, shrink
        takes effect as running tasks complete."""
        if n < 0:
            raise RuntimeError_(f"capacity must be >= 0, got {n}")
        if self._plan is not None:
            # epoch lists are built lazily: the common unperturbed run never
            # touches them, and the baseline (t0, value) entry records the
            # value in force when the run started
            if not self._cap_epochs:
                self._cap_epochs.append((self._stats.t_start,
                                         self._max_workers))
            self._max_workers = n
            self._cap_epochs.append((self.engine.now, n))
            self._replan()
            return
        grew = n > self._max_workers
        self._max_workers = n
        if grew and self._graph is not None:
            self._dispatch()

    def set_slowdown(self, factor: float) -> None:
        """Scale execution time of future tasks by ``factor`` (straggler or
        DVFS-throttle injection; ``1.0`` restores nominal speed).  Tasks
        already running finish at the speed they started with."""
        if factor <= 0:
            raise RuntimeError_(f"slowdown must be > 0, got {factor}")
        if self._plan is not None:
            if not self._slow_epochs:
                self._slow_epochs.append((self._stats.t_start,
                                          self.slowdown))
            self.slowdown = factor
            self._slow_epochs.append((self.engine.now, factor))
            self._replan()
            return
        self.slowdown = factor

    # -- execution ------------------------------------------------------------
    def run(self, graph: TaskGraph, repeats: int = 1):
        """Execute ``graph`` to completion (generator; use ``yield from``).

        ``repeats > 1`` runs the same graph back to back — the local
        adaptive-Δt subcycling of :mod:`repro.app.driver`, where a rank on
        a finer time rung replays its compute graphs several times inside
        one global step.  Returns one :class:`GraphStats` aggregated over
        the repeats (``t_start`` of the first, ``t_end`` of the last,
        work sums, max of the concurrency peaks).
        """
        if repeats < 1:
            raise RuntimeError_(f"repeats must be >= 1, got {repeats}")
        if (repeats > 1 and len(graph) > 0
                and self.recorder is None and self.listener is None):
            # One plan covering every repeat, submitted in the same arbiter
            # cohort as a single-run plan.  Per-repeat plans would arm each
            # team's *final* completion in a cohort determined by its
            # repeat count, and same-time completions across different
            # cohorts order by cohort instead of the per-task dispatch
            # genealogy — the one tie class the arbiter cannot see.
            if self._graph is not None:
                raise RuntimeError_(
                    f"{self.name}: run() while a graph is active")
            stats = GraphStats(t_start=self.engine.now)
            self._graph = graph
            self._stats = stats
            self._done = Event(self.engine)
            self._plan_start(graph, stats, repeats)
            result = yield self._done
            return result
        stats = yield from self._run_once(graph)
        for _ in range(repeats - 1):
            more = yield from self._run_once(graph)
            stats.tasks_run += more.tasks_run
            stats.instructions += more.instructions
            stats.busy_seconds += more.busy_seconds
            stats.overhead_seconds += more.overhead_seconds
            stats.t_end = more.t_end
            stats.max_concurrency = max(stats.max_concurrency,
                                        more.max_concurrency)
        return stats

    def _run_once(self, graph: TaskGraph):
        """One execution of ``graph`` (the pre-``repeats`` run body)."""
        if self._graph is not None:
            raise RuntimeError_(f"{self.name}: run() while a graph is active")
        stats = GraphStats(t_start=self.engine.now)
        if len(graph) == 0:
            stats.t_end = self.engine.now
            return stats
        # engagement is re-checked per run: a recorder needs per-task
        # records and a listener (DLB attaches itself after construction)
        # needs task-boundary callbacks, so those runs take the per-task
        # callback path below
        if self.recorder is None and self.listener is None:
            self._graph = graph
            self._stats = stats
            self._done = Event(self.engine)
            self._plan_start(graph, stats)
            result = yield self._done
            return result
        self._graph = graph
        self._stats = stats
        self._remaining = len(graph.tasks)
        self._preds_left = [t.n_preds for t in graph.tasks]
        if self._use_heap:
            for task in graph.roots():
                self._push_ready(task)
        else:
            self._ready.extend(graph.roots())
        self._done = Event(self.engine)
        self._hungry_notified = False
        self._dispatch()
        result = yield self._done
        return result

    # -- plan mode ----------------------------------------------------------
    def _plan_start(self, graph: TaskGraph, stats: GraphStats,
                    repeats: int = 1) -> None:
        """Materialize the whole run (all ``repeats``) as one plan + one
        completion event."""
        t0 = stats.t_start
        arb = self._arbiter
        arb.planned_graphs += repeats
        arb.planned_tasks += repeats * len(graph.tasks)
        self._plan_repeats = repeats
        if self._max_workers == 1:
            tpl = self._plan_cache.get(id(graph))
            if (tpl is None or tpl.graph is not graph
                    or tpl.slowdown != self.slowdown):
                rel = self._plan_sim(graph, 0.0, [(0.0, self.slowdown)],
                                     [(0.0, 1)])
                tpl = _PlanTemplate(graph, self.slowdown, rel.d_tids,
                                    rel.d_dur, rel.sums)
                self._plan_cache[id(graph)] = tpl
            else:
                arb.plan_cache_hits += 1
            self._install_plan(
                self._instantiate_template(tpl, t0, graph, repeats))
        else:
            self._install_plan(
                self._plan_sim_repeated(graph, t0, [(t0, self.slowdown)],
                                        [(t0, self._max_workers)], repeats))

    def _instantiate_template(self, tpl: _PlanTemplate, t0: float,
                              graph: TaskGraph, repeats: int = 1) -> _Plan:
        """Rebuild absolute times from a relative single-worker template.

        One float add per task, in the exact expression order of the per-task
        chain (``finish = start + dur``, next start = previous finish), so
        the absolute times are bit-identical to a fresh simulation.
        ``repeats`` chains the schedule back to back; the stats sums fold
        left, one term per repeat, matching the per-task loop's per-repeat
        ``+=`` aggregation bit for bit.
        """
        t = t0
        d_start = []
        d_finish = []
        push_s = d_start.append
        push_f = d_finish.append
        for _ in range(repeats):
            for dur in tpl.dur:
                push_s(t)
                t = t + dur
                push_f(t)
        busy, instr, overhead, max_conc = tpl.sums
        for _ in range(repeats - 1):
            busy += tpl.sums[0]
            instr += tpl.sums[1]
            overhead += tpl.sums[2]
        # single worker: the full reversed dispatch sequence IS the
        # genealogy walk; repeat-boundary roots carry hop tag 1.0
        n = len(tpl.dur)
        chain_l = []
        for idx in range(len(d_start) - 1, -1, -1):
            chain_l.append(d_start[idx])
            chain_l.append(1.0 if idx and idx % n == 0 else 0.0)
        return _Plan(tpl.d_tids * repeats, d_start, d_finish,
                     tpl.dur * repeats, d_finish,
                     (busy, instr, overhead, max_conc),
                     repeats * len(graph.tasks), d_finish[-1],
                     tuple(chain_l), False)

    def _plan_sim_repeated(self, graph: TaskGraph, t0: float,
                           slow_epochs: list, cap_epochs: list,
                           repeats: int) -> _Plan:
        """``repeats`` back-to-back :meth:`_plan_sim` runs merged into one
        plan: each segment starts at the previous segment's end (the per-task
        loop re-enters ``_run_once`` inside the previous completion), the
        stats sums fold left like the per-task per-repeat aggregation, and
        the dispatch-genealogy chain concatenates through the repeat
        boundary — repeat ``j``'s roots are dispatched inside repeat
        ``j-1``'s *done* callback, one event hop after any same-time
        task-finish dispatch, so the boundary root carries hop tag 1.0."""
        plan = self._plan_sim(graph, t0, slow_epochs, cap_epochs)
        for _ in range(repeats - 1):
            if plan.stalled:
                break
            nxt = self._plan_sim(graph, plan.t_end, slow_epochs, cap_epochs)
            sums = (plan.sums[0] + nxt.sums[0], plan.sums[1] + nxt.sums[1],
                    plan.sums[2] + nxt.sums[2],
                    max(plan.sums[3], nxt.sums[3]))
            plan = _Plan(plan.d_tids + nxt.d_tids,
                         plan.d_start + nxt.d_start,
                         plan.d_finish + nxt.d_finish,
                         plan.d_dur + nxt.d_dur,
                         plan.c_finish + nxt.c_finish, sums,
                         plan.n_total + nxt.n_total, nxt.t_end,
                         nxt.chain[:-1] + (1.0,) + plan.chain, nxt.stalled)
        return plan

    def _install_plan(self, plan: _Plan) -> None:
        """Adopt a freshly simulated plan and queue it for arming.

        Arming goes through the per-engine :class:`_PlanArbiter`, which
        sorts every plan submitted in the current event cohort by the
        per-task tie-break key before scheduling the completion events.
        """
        self._plan = plan
        if plan.stalled:
            return
        self._arbiter.submit(self, plan)

    def _arm_plan(self, plan: _Plan) -> None:
        """Schedule the plan's completion (called by the arbiter's flush).

        Completions armed by one flush in chain order receive consecutive
        seq numbers, so same-time completions fire in the per-task tie-break
        order (see :class:`_PlanArbiter`).
        """
        if plan is not self._plan:
            return              # superseded by a replan before the flush
        plan.slot = self.engine.schedule_fn_at(plan.t_end,
                                               self._plan_complete)

    def _replan(self) -> None:
        """Re-simulate the active plan against the updated epoch lists.

        The already-executed prefix depends only on epochs that precede the
        perturbation, so it replays float-identically; tasks still in flight
        keep their planned finish (their start predates the newest epoch and
        ``slowdown_at(start)`` yields the speed they started with); tasks
        starting from now on see the new capacity/slowdown.
        """
        plan = self._plan
        if plan.slot is not None:
            self.engine.cancel_scheduled(plan.slot)
            plan.slot = None
        self._arbiter.plan_replans += 1
        t0 = self._stats.t_start
        new = self._plan_sim_repeated(
            self._graph, t0,
            self._slow_epochs or [(t0, self.slowdown)],
            self._cap_epochs or [(t0, self._max_workers)],
            self._plan_repeats)
        self._plan = new
        # a replan happens inside the perturbing call itself (set_capacity /
        # set_slowdown), the same cascade position where the per-task path
        # reacts — arm directly, no cohort sort
        if not new.stalled:
            self._arm_plan(new)

    def _plan_complete(self) -> None:
        """Fires at the plan's end time: apply the precomputed stats sums
        (accumulated in completion order — the per-task summation order) and
        release the graph, exactly as `_finish_task` does for the last task."""
        stats = self._stats
        plan = self._plan
        busy, instr, overhead, max_conc = plan.sums
        stats.tasks_run = plan.n_total
        stats.instructions = instr
        stats.busy_seconds = busy
        stats.overhead_seconds = overhead
        stats.max_concurrency = max_conc
        stats.t_end = self.engine.now
        done = self._done
        self._graph = None
        self._stats = None
        self._done = None
        self._plan = None
        self._plan_repeats = 1
        if self._slow_epochs:
            self._slow_epochs.clear()
        if self._cap_epochs:
            self._cap_epochs.clear()
        done.succeed(stats)

    def _plan_sim(self, graph: TaskGraph, t0: float,
                  slow_epochs: list, cap_epochs: list) -> _Plan:
        """Simulate one graph execution in plain Python, event-for-event
        equivalent to the per-task path's trajectory.

        Replicates `_dispatch`/`_start_task`/`_finish_task` exactly: the
        scheduling policy (LPT heap with FIFO tie-break / fifo / lifo),
        mutex pop-aside, dispatch-while-capacity-remains after every
        completion, cached task durations, and the float expression order
        of start/finish arithmetic.  Time-varying capacity and slowdown
        arrive as ``(time, value)`` epochs; an epoch at time T applies
        before any completion at T, matching the per-task seq order (the
        perturbing timeout was scheduled before the task started).
        """
        tasks = graph.tasks
        n = len(tasks)
        core = self.core
        ovh = self.task_overhead_s
        scheduler = self.scheduler
        preds_left = [t.n_preds for t in tasks]
        held: set = set()
        # ready structures (seq = FIFO tie-break, matches _push_ready)
        heap: list = []
        fifo: deque = deque()
        seqc = 0
        if scheduler == "lpt":
            for task in graph.roots():
                seqc += 1
                heapq.heappush(heap, (-task._instr, seqc, task.tid))
        else:
            fifo.extend(t.tid for t in graph.roots())

        def pick() -> Optional[int]:
            if scheduler == "lpt":
                if not heap:
                    return None
                if not held:
                    return heapq.heappop(heap)[2]
                blocked = []
                tid = None
                while heap:
                    entry = heapq.heappop(heap)
                    if tasks[entry[2]].mutex_refs.isdisjoint(held):
                        tid = entry[2]
                        break
                    blocked.append(entry)
                for entry in blocked:
                    heapq.heappush(heap, entry)
                return tid
            if scheduler == "fifo":
                if not held:
                    return fifo.popleft() if fifo else None
                for i, tid in enumerate(fifo):
                    if tasks[tid].mutex_refs.isdisjoint(held):
                        del fifo[i]
                        return tid
                return None
            # lifo
            if not held:
                return fifo.pop() if fifo else None
            for i in range(len(fifo) - 1, -1, -1):
                if tasks[fifo[i]].mutex_refs.isdisjoint(held):
                    tid = fifo[i]
                    del fifo[i]
                    return tid
            return None

        slow = slow_epochs[0][1]
        si = 1
        n_slow = len(slow_epochs)
        W = cap_epochs[0][1]
        ei = 1
        n_cap = len(cap_epochs)
        t = t0
        active = 0
        fseq = 0
        inflight: list = []         # (finish, fseq, tid, exec_seconds)
        d_tids: list = []
        d_start: list = []
        d_finish: list = []
        d_dur: list = []
        c_finish: list = []
        # d_parent[i]: dispatch index of the task whose completion dispatched
        # task i (-1: dispatched at t0 or after an external capacity epoch) —
        # the seq-assignment genealogy the per-task path creates implicitly
        d_parent: list = []
        cur_parent = -1
        last_di = -1
        busy = 0.0
        instr = 0.0
        ovh_sum = 0.0
        max_conc = 0
        completed = 0
        stalled = False
        while True:
            # epochs at time <= t apply before dispatch and completions at t
            while ei < n_cap and cap_epochs[ei][0] <= t:
                W = cap_epochs[ei][1]
                ei += 1
            while si < n_slow and slow_epochs[si][0] <= t:
                slow = slow_epochs[si][1]
                si += 1
            while active < W:
                tid = pick()
                if tid is None:
                    break
                task = tasks[tid]
                if task.mutex_refs:
                    held |= task.mutex_refs
                active += 1
                if active > max_conc:
                    max_conc = active
                if task._dur_core is core:
                    base = task._dur
                else:
                    base = core.seconds(task.work)
                    task._dur = base
                    task._dur_core = core
                exec_seconds = base * slow
                dur = exec_seconds + ovh
                finish = t + dur
                d_tids.append(tid)
                d_start.append(t)
                d_finish.append(finish)
                d_dur.append(dur)
                d_parent.append(cur_parent)
                heapq.heappush(inflight, (finish, fseq, tid, exec_seconds))
                fseq += 1
            if completed == n:
                break
            next_ep = cap_epochs[ei][0] if ei < n_cap else None
            if inflight and (next_ep is None or inflight[0][0] < next_ep):
                finish, di, tid, exec_seconds = heapq.heappop(inflight)
                t = finish
                cur_parent = last_di = di
                task = tasks[tid]
                # stats accumulation order matches _finish_task
                instr += task._instr
                busy += exec_seconds
                ovh_sum += ovh
                if task.mutex_refs:
                    held -= task.mutex_refs
                active -= 1
                completed += 1
                c_finish.append(finish)
                if scheduler == "lpt":
                    for succ in task.successors:
                        preds_left[succ] -= 1
                        if preds_left[succ] == 0:
                            seqc += 1
                            heapq.heappush(
                                heap, (-tasks[succ]._instr, seqc, succ))
                else:
                    for succ in task.successors:
                        preds_left[succ] -= 1
                        if preds_left[succ] == 0:
                            fifo.append(succ)
            elif next_ep is not None:
                t = next_ep
                cur_parent = -1
            else:
                # zero capacity with work left and no scheduled growth: the
                # plan stalls here; a later set_capacity re-simulates with
                # the new epoch and completes the schedule
                stalled = True
                break
        t_end = c_finish[-1] if completed == n else 0.0
        if last_di >= 0:
            chain_l = []
            idx = last_di
            while idx >= 0:
                chain_l.append(d_start[idx])
                chain_l.append(0.0)
                idx = d_parent[idx]
            chain = tuple(chain_l)
        else:
            chain = (t0, 0.0)
        return _Plan(d_tids, d_start, d_finish, d_dur, c_finish,
                     (busy, instr, ovh_sum, max_conc), n, t_end, chain,
                     stalled)

    # -- internals --------------------------------------------------------
    def _runnable_index(self) -> Optional[int]:
        """Index in the ready deque of the runnable task to dispatch next.

        ``fifo`` takes the oldest runnable task (breadth-first, best
        locality across a chunked traversal); ``lifo`` the newest
        (depth-first, cache-hot dependents first).  The default ``lpt``
        policy (largest runnable task first, FIFO among ties — the classic
        makespan heuristic, approximating what priority-aware task runtimes
        such as Nanos do) dispatches from the heap in :meth:`_dispatch_heap`
        instead.
        """
        held = self._held_refs
        ready = self._ready
        if self.scheduler == "fifo":
            if not held:
                return 0 if ready else None
            for i, task in enumerate(ready):
                if task.mutex_refs.isdisjoint(held):
                    return i
            return None
        if not held:
            return len(ready) - 1 if ready else None
        for i in range(len(ready) - 1, -1, -1):
            if ready[i].mutex_refs.isdisjoint(held):
                return i
        return None

    def _push_ready(self, task: Task) -> None:
        """Add ``task`` to the LPT heap (seq = FIFO tie-break on equal work)."""
        self._seq += 1
        heapq.heappush(self._heap, (-task._instr, self._seq, task))

    def _dispatch_heap(self) -> None:
        """LPT dispatch from the ready heap.

        With mutexes held, blocked heap entries are popped aside and pushed
        back after the pick: each keeps its original seq, so future ordering
        is unchanged.  With the default one-thread teams of the paper's
        configurations, ``held`` is almost always empty here and a dispatch
        is a single heappop.
        """
        heap = self._heap
        held = self._held_refs
        while self._active < self._max_workers and heap:
            if not held:
                task = heapq.heappop(heap)[2]
            else:
                blocked = []
                task = None
                while heap:
                    entry = heapq.heappop(heap)
                    if entry[2].mutex_refs.isdisjoint(held):
                        task = entry[2]
                        break
                    blocked.append(entry)
                for entry in blocked:
                    heapq.heappush(heap, entry)
                if task is None:
                    break
            if task.mutex_refs:
                held |= task.mutex_refs     # in-place: held is _held_refs
            self._active += 1
            if self._stats is not None:
                self._stats.max_concurrency = max(
                    self._stats.max_concurrency, self._active)
            self.engine.defer(self._start_task, task)
        if self.listener is not None and self._graph is not None:
            if self._active >= self._max_workers and heap:
                if not self._hungry_notified:
                    self._hungry_notified = True
                    self.listener.on_team_hungry(self)

    def _dispatch(self) -> None:
        if self._use_heap:
            self._dispatch_heap()
            return
        while self._active < self._max_workers:
            idx = self._runnable_index()
            if idx is None:
                break
            task = self._ready[idx]
            del self._ready[idx]
            if task.mutex_refs:
                self._held_refs |= task.mutex_refs
            self._active += 1
            if self._stats is not None:
                self._stats.max_concurrency = max(
                    self._stats.max_concurrency, self._active)
            # callback-based execution: the start runs one event hop later,
            # where a worker Process would run up to its first yield
            self.engine.defer(self._start_task, task)
        # Appetite signalling for DLB: hungry if capacity-bound work remains.
        if self.listener is not None and self._graph is not None:
            if self._active >= self._max_workers and self._ready:
                if not self._hungry_notified:
                    self._hungry_notified = True
                    self.listener.on_team_hungry(self)

    def _start_task(self, task: Task) -> None:
        """Begin executing ``task`` (runs when the dispatch deferral pops)."""
        t0 = self.engine.now
        core = self.core
        if task._dur_core is core:
            base = task._dur
        else:
            # Task graphs are re-executed every simulated time step with the
            # same WorkSpec on the same core: compute the nominal duration
            # once and reuse the identical float thereafter.
            base = core.seconds(task.work)
            task._dur = base
            task._dur_core = core
        exec_seconds = base * self.slowdown
        self.engine.call_later(exec_seconds + self.task_overhead_s,
                               self._finish_task, task, t0, exec_seconds)

    def _finish_task(self, task: Task, t0: float, exec_seconds: float) -> None:
        """Task completion bookkeeping (runs when the task's timer pops)."""
        t1 = self.engine.now
        stats = self._stats
        assert stats is not None
        stats.tasks_run += 1
        stats.instructions += task._instr
        stats.busy_seconds += exec_seconds
        stats.overhead_seconds += self.task_overhead_s
        if self.recorder is not None and task._instr > 0:
            self.recorder.record(self.rank, "task", task.label, t0, t1)
        if task.mutex_refs:
            self._held_refs -= task.mutex_refs
        self._active -= 1
        self._remaining -= 1
        graph = self._graph
        assert graph is not None
        if self._use_heap:
            for succ in task.successors:
                self._preds_left[succ] -= 1
                if self._preds_left[succ] == 0:
                    self._push_ready(graph.tasks[succ])
        else:
            for succ in task.successors:
                self._preds_left[succ] -= 1
                if self._preds_left[succ] == 0:
                    self._ready.append(graph.tasks[succ])
        if self._remaining == 0:
            stats.t_end = self.engine.now
            done = self._done
            self._graph = None
            self._stats = None
            self._done = None
            self._hungry_notified = False
            if self.listener is not None:
                self.listener.on_team_idle(self)
            assert done is not None
            done.succeed(stats)
        else:
            self._hungry_notified = False
            self._dispatch()
