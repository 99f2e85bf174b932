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
* ready tasks wait in one heap of ``(key, seq, task)`` entries, and the
  pick (:func:`_pop_ready`) is its smallest *runnable* entry.  The team's
  policy is only the key: largest task first (``lpt``, the default, key
  ``-instr`` with seqs counting up, so FIFO among ties — the classic
  makespan heuristic, approximating priority-aware task runtimes such as
  Nanos), oldest first (``fifo``, key 0 with seqs counting up, which keeps
  consecutive memory-contiguous chunks on the same worker — the locality
  property the paper attributes to multidependences) or newest first
  (``lifo``, key 0 with seqs counting down);
* dispatching a task schedules its completion directly: one timer per task.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
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
    :class:`_PlanTemplate`): per-task start/finish times in dispatch order,
    finish times in completion order, and the final stats sums — everything
    the per-task path would compute task by task, computed up front so the
    DES carries a *single* completion event for the whole graph.
    """

    __slots__ = ("d_tids", "d_start", "d_finish", "d_dur", "c_finish",
                 "sums", "n_total", "t_end", "chain", "handle", "stalled",
                 "d_parent", "c_order")

    def __init__(self, d_tids, d_start, d_finish, d_dur, c_finish, sums,
                 n_total, t_end, chain, stalled, d_parent=None,
                 c_order=None):
        self.d_tids = d_tids
        self.d_start = d_start      # non-decreasing (dispatch order)
        self.d_finish = d_finish
        self.d_dur = d_dur          # exec seconds * slowdown, one float
        self.c_finish = c_finish    # non-decreasing (completion order)
        self.sums = sums            # (busy, instructions, max_conc)
        self.n_total = n_total
        self.t_end = t_end
        #: dispatch-time genealogy of the last-finishing task as flattened
        #: ``(time, hop)`` pairs: its own dispatch time, then its
        #: dispatcher's, ... up to a root — the simulated times at which the
        #: per-task path would schedule the completions whose order breaks
        #: completion-time ties (see _PlanArbiter).  ``hop`` is 0.0 for a
        #: plain dispatch (synchronous in ``run()`` or inside a task-finish
        #: callback) and 1.0 for a repeat-boundary root, which the per-task
        #: path dispatches one event hop later (inside the previous
        #: repeat's done callback) than any same-time plain dispatch.
        self.chain = chain
        self.handle = None          # engine handle of the pending plan event
        self.stalled = stalled      # capacity 0 with work left
        #: discrete trajectory of a single run (None on a merged repeat
        #: plan): each dispatch's parent — the dispatch index whose
        #: completion triggered it, -1 at t0 — and the dispatch indices in
        #: completion order
        self.d_parent = d_parent
        self.c_order = c_order


def _genealogy(d_parent: list, last: int) -> list:
    """Dispatch indices from ``last`` up its parent links to a root
    (empty when ``last`` is -1: nothing completed)."""
    idx = []
    while last >= 0:
        idx.append(last)
        last = d_parent[last]
    return idx


def _chain(d_start: list, genealogy: list, t0: float) -> tuple:
    """A plan's ``chain``: the dispatch times along ``genealogy``, each
    with hop tag 0.0, or ``(t0, 0.0)`` for an empty genealogy."""
    if not genealogy:
        return (t0, 0.0)
    chain = [0.0] * (2 * len(genealogy))
    chain[0::2] = [d_start[i] for i in genealogy]
    return tuple(chain)


class _PlanTemplate:
    """The start-time-independent trajectory of one graph run.

    Without epochs, every scheduling decision of :meth:`Team._plan_sim`
    depends only on the order in which in-flight tasks complete: the pick
    reads instruction counts, push seqs and held mutex refs, never a
    time.  A template keeps that trajectory — dispatch order, per-task
    durations, each dispatch's parent, the completion order and the stats
    sums — and :meth:`instantiate` rebuilds the absolute times from a new
    ``t0`` by the simulator's own float chain (``start = finish[parent]``
    or ``t0``, ``finish = start + dur``).

    The rebuilt times reproduce the same trajectory exactly when the
    completion order is still the in-flight heap's pop order: non-decreasing
    in ``(finish, dispatch index)``.  A pair of consecutive completions
    where the later task was dispatched by the earlier one's completion
    satisfies it by construction (its finish is that finish plus a
    non-negative duration, its dispatch index is higher), so only the other
    pairs are compared — with one worker there are none.  When a compared
    pair is out of order, ``instantiate`` returns ``None`` and the caller
    re-simulates.

    Templates live on the graph (``TaskGraph._plan_templates``), keyed by
    everything the trajectory depends on besides the graph — core, worker
    count, slowdown and the scheduler's heap factors — so they outlive the
    team that recorded them; the graph drops them when it gains a task.
    """

    __slots__ = ("d_tids", "d_dur", "d_parent", "c_order", "checks",
                 "chain_idx", "sums", "n_total", "stalled")

    def __init__(self, plan: _Plan):
        self.d_tids = plan.d_tids
        self.d_dur = plan.d_dur
        self.d_parent = parent = plan.d_parent
        self.c_order = order = plan.c_order
        self.checks = [k for k in range(1, len(order))
                       if parent[order[k]] != order[k - 1]
                       or plan.d_dur[order[k]] < 0.0]
        self.chain_idx = _genealogy(parent, order[-1] if order else -1)
        self.sums = plan.sums
        self.n_total = plan.n_total
        self.stalled = plan.stalled

    def instantiate(self, t0: float) -> Optional[_Plan]:
        """The plan of a run starting at ``t0``, or ``None`` when the
        recorded completion order is not the heap order at ``t0``."""
        d_start = []
        d_finish = []
        for p, dur in zip(self.d_parent, self.d_dur):
            t = t0 if p < 0 else d_finish[p]
            d_start.append(t)
            d_finish.append(t + dur)
        order = self.c_order
        for k in self.checks:
            a = order[k - 1]
            b = order[k]
            if (d_finish[b], b) < (d_finish[a], a):
                return None
        c_finish = [d_finish[i] for i in order]
        return _Plan(self.d_tids, d_start, d_finish, self.d_dur, c_finish,
                     self.sums, self.n_total,
                     0.0 if self.stalled else c_finish[-1],
                     _chain(d_start, self.chain_idx, t0),
                     self.stalled, self.d_parent, order)


#: trajectories a graph keeps per team-parameter key (see
#: :meth:`Team._plan_templated`); the default replays need at most five
MAX_PLAN_TEMPLATES = 8


class _PlanArbiter:
    """Gives same-cohort plan completions the per-task path's tie order.

    Events at equal simulated times fire in scheduling order, and the
    per-task path schedules a completion at the *dispatch* of the finishing
    task — inside the finish callback of the task that unblocked it, which
    was itself scheduled at *its* dispatch, and so on down to the root
    dispatched synchronously in ``run()``.  Two teams finishing at the same
    instant therefore order by the lexicographic comparison of those
    dispatch-time chains, with ``run()``-call order as the final tie-break.

    Plan mode collapses a graph to one completion event, so that genealogy
    must be reproduced explicitly: teams submit their plans as they start,
    a deferred flush (running after every submission of the current event
    cohort) sorts them by ``(t_end, *chain)`` plus submission order, and
    arms the completion events in that order — consecutive queue
    positions, so same-time completions fire exactly as the per-task path
    would.  Ties *across* cohorts resolve by cohort order, which matches
    the per-task root-dispatch order for plans with identical chains (the
    only ties observed in practice: lockstep ranks running identical
    graphs).
    """

    __slots__ = ("engine", "_pending", "planned_graphs", "planned_tasks",
                 "plan_cache_hits", "plan_template_misses", "plan_replans")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._pending: list = []
        # plan-mode counters (see counters()); plain attributes because
        # the hot path bumps them once per graph run
        self.planned_graphs = 0
        self.planned_tasks = 0
        self.plan_cache_hits = 0        # runs served by a template
        self.plan_template_misses = 0   # order-check fallbacks
        self.plan_replans = 0

    def counters(self) -> dict:
        """The plan block of :meth:`Engine.counters`."""
        return {"planned_graphs": self.planned_graphs,
                "planned_tasks": self.planned_tasks,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_template_misses": self.plan_template_misses,
                "plan_replans": self.plan_replans}

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


def _pop_ready(heap: list, held: set) -> Optional[Task]:
    """Remove and return the best runnable task of a ready heap.

    Entries are ``(key, seq, task)`` (see :class:`Team`); the pick is the
    smallest entry whose task holds none of the ``held`` mutex refs, or
    ``None`` when every ready task is blocked.  Seqs are unique, so the
    smallest runnable entry is the one repeated pops would reach first: one
    scan plus an O(log n) removal picks the same task without popping
    blocked entries aside and pushing them back.  The caller guarantees a
    non-empty heap.
    """
    if not held or heap[0][2].mutex_refs.isdisjoint(held):
        return heapq.heappop(heap)[2]
    pos = -1
    best = None
    for i, entry in enumerate(heap):
        if (best is None or entry < best) \
                and entry[2].mutex_refs.isdisjoint(held):
            pos = i
            best = entry
    if best is None:
        return None
    last = heap.pop()
    if pos < len(heap):
        # standard heap delete: the moved leaf sinks below ``pos`` or
        # rises above it, whichever restores the invariant
        heap[pos] = last
        heapq._siftup(heap, pos)
        heapq._siftdown(heap, 0, pos)
    return best[2]


class Team:
    """A rank's thread team: a malleable pool of simulated cores.

    Parameters
    ----------
    engine, core:
        DES engine and the core performance model of the host node.
    nthreads:
        Base worker count (the rank's own cores).
    rank / name:
        Identity used in traces.
    recorder:
        Optional object with ``record(rank, category, label, t0, t1)``.
    listener:
        Optional :class:`TeamListener` (DLB).
    scheduler:
        Ready-task policy, one of :attr:`SCHEDULERS`.  It is read here
        only, as the two factors of a ready-heap entry ``(instr_factor *
        instr, seq, task)``: ``lpt`` is ``(-instr, +seq)``, ``fifo``
        ``(0, +seq)`` and ``lifo`` ``(0, -seq)``, where seqs count push
        order up or down.  Both execution paths pick through
        :func:`_pop_ready`.
    """

    SCHEDULERS = ("lpt", "fifo", "lifo")

    def __init__(self, engine: Engine, core: CoreModel, nthreads: int,
                 rank: int = 0, name: str = "", recorder=None,
                 listener: Optional[TeamListener] = None,
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
        self.recorder = recorder
        self.listener = listener
        self._max_workers = nthreads
        #: execution-time multiplier (> 1 under an injected DVFS throttle)
        self.slowdown = 1.0
        self._active = 0
        self._held_refs: set = set()
        self._graph: Optional[TaskGraph] = None
        self._remaining = 0
        self._preds_left: list[int] = []
        self._done: Optional[Event] = None
        self._stats: Optional[GraphStats] = None
        self._hungry_notified = False
        # Ready heap of (instr_factor * instr, seq, task) entries; the
        # policy factors are fixed here, so a push never branches on it
        self._instr_factor = -1.0 if scheduler == "lpt" else 0.0
        self._seq_step = -1 if scheduler == "lifo" else 1
        self._ready: list = []
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
        self._slow_epochs: list[tuple[float, float]] = []
        self._cap_epochs: list[tuple[float, int]] = []
        arb = engine._plan_arbiter
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
        ready = self._ready
        if not held:
            # no mutexes held: any ready task is runnable
            return bool(ready)
        # existence check only — no need for the *best* runnable task
        return any(entry[2].mutex_refs.isdisjoint(held) for entry in ready)

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
        # plan mode is re-checked per run: a recorder needs per-task
        # records and a listener (DLB attaches itself after construction)
        # needs task-boundary callbacks, so those runs take the per-task
        # callback path of _run_once.  One plan covers every repeat,
        # submitted in the same arbiter cohort as a single-run plan.
        # Per-repeat plans would arm each team's *final* completion in a
        # cohort determined by its repeat count, and same-time completions
        # across different cohorts order by cohort instead of the per-task
        # dispatch genealogy — the one tie class the arbiter cannot see.
        if len(graph) > 0 and self.recorder is None and self.listener is None:
            if self._graph is not None:
                raise RuntimeError_(
                    f"{self.name}: run() while a graph is active")
            arb = self._arbiter
            arb.planned_graphs += repeats
            arb.planned_tasks += repeats * len(graph.tasks)
            t0 = self.engine.now
            self._graph = graph
            self._stats = GraphStats(t_start=t0)
            self._done = Event(self.engine)
            self._plan_repeats = repeats
            # the plan is armed through the arbiter, which sorts every plan
            # submitted in the current event cohort by the per-task
            # tie-break key before scheduling the completion events
            plan = self._plan = self._plan_unperturbed(graph, t0, repeats)
            if not plan.stalled:
                arb.submit(self, plan)
            result = yield self._done
            return result
        stats = yield from self._run_once(graph)
        for _ in range(repeats - 1):
            more = yield from self._run_once(graph)
            stats.tasks_run += more.tasks_run
            stats.instructions += more.instructions
            stats.busy_seconds += more.busy_seconds
            stats.t_end = more.t_end
            stats.max_concurrency = max(stats.max_concurrency,
                                        more.max_concurrency)
        return stats

    def _run_once(self, graph: TaskGraph):
        """One per-task execution of ``graph`` (two DES events per task)."""
        if self._graph is not None:
            raise RuntimeError_(f"{self.name}: run() while a graph is active")
        stats = GraphStats(t_start=self.engine.now)
        if len(graph) == 0:
            stats.t_end = self.engine.now
            return stats
        self._graph = graph
        self._stats = stats
        self._remaining = len(graph.tasks)
        self._preds_left = [t.n_preds for t in graph.tasks]
        for task in graph.roots():
            self._push_ready(task)
        self._done = Event(self.engine)
        self._hungry_notified = False
        self._dispatch()
        result = yield self._done
        return result

    # -- plan mode ----------------------------------------------------------
    def _plan_unperturbed(self, graph: TaskGraph, t0: float,
                          repeats: int = 1) -> _Plan:
        """The plan of ``repeats`` runs of ``graph`` from ``t0`` at the
        team's current capacity and slowdown, one segment per repeat served
        by :meth:`_plan_templated`."""
        key = (self.core, self._max_workers, self.slowdown,
               self._instr_factor, self._seq_step)
        return self._plan_repeated(
            lambda t: self._plan_templated(graph, key, t), t0, repeats)

    def _plan_templated(self, graph: TaskGraph, key: tuple,
                        t0: float) -> _Plan:
        """One unperturbed run of ``graph`` at ``t0``: instantiated from the
        first of the graph's templates for ``key`` whose completion order
        holds at ``t0``, simulated otherwise.  A simulated run records its
        trajectory as a further template (up to :data:`MAX_PLAN_TEMPLATES`
        per key): near-tied finishes can order differently at different
        start times, and a deterministic replay meets the same start times
        again.  Two templates that both pass are the same trajectory — the
        order check admits only the one the simulation would take."""
        templates = graph._plan_templates.get(key)
        if templates is None:
            templates = graph._plan_templates[key] = []
        else:
            for tpl in templates:
                plan = tpl.instantiate(t0)
                if plan is not None:
                    self._arbiter.plan_cache_hits += 1
                    return plan
            self._arbiter.plan_template_misses += 1
        plan = self._plan_sim(graph, t0, [(t0, self.slowdown)],
                              [(t0, self._max_workers)])
        if len(templates) < MAX_PLAN_TEMPLATES:
            templates.append(_PlanTemplate(plan))
        return plan

    @staticmethod
    def _plan_repeated(segment, t0: float, repeats: int) -> _Plan:
        """``repeats`` back-to-back runs merged into one plan, each
        ``segment(start)`` starting at the previous segment's end (the
        per-task loop re-enters ``_run_once`` inside the previous
        completion).  The stats sums fold left like the per-task per-repeat
        aggregation, and the dispatch-genealogy chain concatenates through
        the repeat boundary — repeat ``j``'s roots are dispatched inside
        repeat ``j-1``'s *done* callback, one event hop after any same-time
        task-finish dispatch, so the boundary root carries hop tag 1.0."""
        plan = segment(t0)
        for _ in range(repeats - 1):
            if plan.stalled:
                break
            nxt = segment(plan.t_end)
            sums = (plan.sums[0] + nxt.sums[0], plan.sums[1] + nxt.sums[1],
                    max(plan.sums[2], nxt.sums[2]))
            plan = _Plan(plan.d_tids + nxt.d_tids,
                         plan.d_start + nxt.d_start,
                         plan.d_finish + nxt.d_finish,
                         plan.d_dur + nxt.d_dur,
                         plan.c_finish + nxt.c_finish, sums,
                         plan.n_total + nxt.n_total, nxt.t_end,
                         nxt.chain[:-1] + (1.0,) + plan.chain, nxt.stalled)
        return plan

    def _plan_sim_repeated(self, graph: TaskGraph, t0: float,
                           slow_epochs: list, cap_epochs: list,
                           repeats: int) -> _Plan:
        """``repeats`` back-to-back :meth:`_plan_sim` runs merged into one
        plan (see :meth:`_plan_repeated`)."""
        return self._plan_repeated(
            lambda t: self._plan_sim(graph, t, slow_epochs, cap_epochs),
            t0, repeats)

    def _arm_plan(self, plan: _Plan) -> None:
        """Schedule the plan's completion (called by the arbiter's flush).

        Completions armed by one flush in chain order take consecutive
        queue positions, so same-time completions fire in the per-task
        tie-break order (see :class:`_PlanArbiter`).
        """
        if plan is not self._plan:
            return              # superseded by a replan before the flush
        plan.handle = self.engine.schedule_fn_at(plan.t_end,
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
        if plan.handle is not None:
            self.engine.cancel_scheduled(plan.handle)
            plan.handle = None
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
        busy, instr, max_conc = plan.sums
        stats.tasks_run = plan.n_total
        stats.instructions = instr
        stats.busy_seconds = busy
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

        Replicates `_dispatch`/`_finish_task` exactly: the same ready-heap
        entries and pick helper (:func:`_pop_ready`), dispatch while
        capacity remains after every completion, cached task durations, and
        the float expression order of start/finish arithmetic.
        Time-varying capacity and slowdown arrive as ``(time, value)``
        epochs; an epoch at time T applies before any completion at T, and
        so to every dispatch at T, matching the per-task scheduling order
        (the perturbing timeout was scheduled before the finish that
        dispatches).
        """
        tasks = graph.tasks
        n = len(tasks)
        core = self.core
        preds_left = [t.n_preds for t in tasks]
        held: set = set()
        # the per-task path's ready heap (entries as in _push_ready)
        factor = self._instr_factor
        step = self._seq_step
        ready: list = []
        seqc = 0
        for task in graph.roots():
            seqc += step
            heapq.heappush(ready, (factor * task._instr, seqc, task))

        slow = slow_epochs[0][1]
        si = 1
        n_slow = len(slow_epochs)
        W = cap_epochs[0][1]
        ei = 1
        n_cap = len(cap_epochs)
        t = t0
        active = 0
        fseq = 0
        inflight: list = []         # (finish, dispatch index, tid)
        d_tids: list = []
        d_start: list = []
        d_finish: list = []
        d_dur: list = []
        c_finish: list = []
        c_order: list = []
        # d_parent[i]: dispatch index of the task whose completion dispatched
        # task i (-1: dispatched at t0 or after an external capacity epoch) —
        # the scheduling genealogy the per-task path creates implicitly
        d_parent: list = []
        cur_parent = -1
        last_di = -1
        busy = 0.0
        instr = 0.0
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
            while active < W and ready:
                task = _pop_ready(ready, held)
                if task is None:
                    break
                tid = task.tid
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
                dur = base * slow
                finish = t + dur
                d_tids.append(tid)
                d_start.append(t)
                d_finish.append(finish)
                d_dur.append(dur)
                d_parent.append(cur_parent)
                heapq.heappush(inflight, (finish, fseq, tid))
                fseq += 1
            if completed == n:
                break
            next_ep = cap_epochs[ei][0] if ei < n_cap else None
            if inflight and (next_ep is None or inflight[0][0] < next_ep):
                finish, di, tid = heapq.heappop(inflight)
                t = finish
                cur_parent = last_di = di
                task = tasks[tid]
                # stats accumulation order matches _finish_task
                instr += task._instr
                busy += d_dur[di]
                if task.mutex_refs:
                    held -= task.mutex_refs
                active -= 1
                completed += 1
                c_finish.append(finish)
                c_order.append(di)
                for succ in task.successors:
                    preds_left[succ] -= 1
                    if preds_left[succ] == 0:
                        seqc += step
                        nxt = tasks[succ]
                        heapq.heappush(ready, (factor * nxt._instr, seqc, nxt))
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
        return _Plan(d_tids, d_start, d_finish, d_dur, c_finish,
                     (busy, instr, max_conc), n, t_end,
                     _chain(d_start, _genealogy(d_parent, last_di), t0),
                     stalled, d_parent, c_order)

    # -- internals --------------------------------------------------------
    def _push_ready(self, task: Task) -> None:
        """Add ``task`` to the ready heap under the team's policy key."""
        self._seq += self._seq_step
        heapq.heappush(self._ready,
                       (self._instr_factor * task._instr, self._seq, task))

    def _dispatch(self) -> None:
        """Start runnable tasks while workers are free.

        A start is the task's finish timer: the duration is read here
        (``slowdown`` included, so an epoch at time T applies to every
        dispatch made after it at T, the plan path's rule) and one
        ``call_later`` carries the task to :meth:`_finish_task`.  The pick
        helper is the plan simulator's; with the default one-thread teams
        of the paper's configurations no mutex is held here and a pick is a
        single heappop.
        """
        ready = self._ready
        held = self._held_refs
        engine = self.engine
        core = self.core
        stats = self._stats
        active = self._active
        cap = self._max_workers
        while active < cap and ready:
            task = _pop_ready(ready, held)
            if task is None:
                break
            if task.mutex_refs:
                held |= task.mutex_refs     # in-place: held is _held_refs
            active += 1
            if active > stats.max_concurrency:
                stats.max_concurrency = active
            if task._dur_core is core:
                base = task._dur
            else:
                # Task graphs are re-executed every simulated time step with
                # the same WorkSpec on the same core: compute the nominal
                # duration once and reuse the identical float thereafter.
                base = core.seconds(task.work)
                task._dur = base
                task._dur_core = core
            exec_seconds = base * self.slowdown
            engine.call_later(exec_seconds, self._finish_task, task,
                              engine.now, exec_seconds)
        self._active = active
        # Appetite signalling for DLB: hungry if capacity-bound work remains.
        if (active >= cap and ready and self.listener is not None
                and not self._hungry_notified):
            self._hungry_notified = True
            self.listener.on_team_hungry(self)

    def _finish_task(self, task: Task, t0: float, exec_seconds: float) -> None:
        """Task completion bookkeeping (runs when the task's timer pops)."""
        t1 = self.engine.now
        stats = self._stats
        stats.tasks_run += 1
        stats.instructions += task._instr
        stats.busy_seconds += exec_seconds
        if self.recorder is not None and task._instr > 0:
            self.recorder.record(self.rank, "task", task.label, t0, t1)
        if task.mutex_refs:
            self._held_refs -= task.mutex_refs
        self._active -= 1
        self._remaining -= 1
        tasks = self._graph.tasks
        preds_left = self._preds_left
        for succ in task.successors:
            preds_left[succ] -= 1
            if preds_left[succ] == 0:
                self._push_ready(tasks[succ])
        self._hungry_notified = False
        if self._remaining:
            self._dispatch()
            return
        stats.t_end = t1
        done = self._done
        self._graph = None
        self._stats = None
        self._done = None
        if self.listener is not None:
            self.listener.on_team_idle(self)
        done.succeed(stats)
