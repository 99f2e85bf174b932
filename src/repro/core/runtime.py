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
  pick (:func:`_pop_ready`) is the smallest *runnable* entry.  A blocked
  entry that a pick or a ``wants_cores`` read meets on top is parked under
  a held ref it waits on, and the ref's release returns it to the heap, so
  the pick is the first unblocked top, not a scan.  The team's policy is
  only the key: largest task first (``lpt``, the default, key
  ``-instr`` with seqs counting up, so FIFO among ties — the classic
  makespan heuristic, approximating priority-aware task runtimes such as
  Nanos), oldest first (``fifo``, key 0 with seqs counting up, which keeps
  consecutive memory-contiguous chunks on the same worker — the locality
  property the paper attributes to multidependences) or newest first
  (``lifo``, key 0 with seqs counting down);
* on the per-task path, dispatching a task schedules its completion
  directly, one keyed engine completion per task; a *planned* run simulates
  the whole graph up front and the engine carries one completion for it,
  under its last task's dispatch key (see :class:`Team`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
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

    def admit_plan(self, team: "Team") -> bool:
        """Whether ``team`` may plan the graph it starts: the listener is
        then told nothing at the run's task boundaries until the team
        leaves the plan (:meth:`Team.leave_plan`) or a capacity or
        slowdown change moves it to the per-task path."""


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
    """The execution schedule of one graph run, continuable at any completion.

    Produced by :meth:`Team._plan_sim` (or instantiated from a cached
    :class:`_PlanTemplate`): per-dispatch task ids, start/finish times,
    durations, parents and positions within the parent's dispatches, the
    completions in order, and one *step* record per completion count ``k``
    (``k = 0`` is the state right after the run's first dispatches) —
    everything the per-task path would compute task by task, computed up
    front so the DES carries a *single* completion event for the whole run.

    A step record is ``(dispatched, ready, wants, busy, instructions,
    max_concurrency, seq)`` after ``k`` completions and the dispatches they
    triggered: the team's reads (:attr:`Team.ready_count`, ...) index it,
    and :meth:`Team._rewind` rebuilds the in-flight state from it to
    continue task by task.
    """

    __slots__ = ("d_tids", "d_start", "d_finish", "d_dur", "d_parent",
                 "d_idx", "c_finish", "c_order", "steps", "t_seq", "sums",
                 "n_total", "W", "t_end", "gen", "keys", "root", "hungry0")

    def __init__(self, d_tids, d_start, d_finish, d_dur, d_parent, d_idx,
                 c_finish, c_order, steps, t_seq, sums, n_total, W, t_end,
                 gen, hungry0):
        self.d_tids = d_tids
        self.d_start = d_start
        self.d_finish = d_finish
        self.d_dur = d_dur          # exec seconds * slowdown, one float
        #: dispatch index of the task whose completion dispatched task i
        #: (-1: dispatched in the entry that started the plan) and i's
        #: position among the dispatches of that entry
        self.d_parent = d_parent
        self.d_idx = d_idx
        self.c_finish = c_finish    # non-decreasing (completion order)
        self.c_order = c_order      # dispatch indices in completion order
        self.steps = steps
        self.t_seq = t_seq          # ready-heap seq of each pushed task
        self.sums = sums            # (busy, instructions, max_conc)
        self.n_total = n_total
        self.W = W                  # the worker count it was planned for
        self.t_end = t_end
        #: the last-finishing task's genealogy: dispatch indices from a
        #: first dispatch down the parent links to it (see :func:`_last_key`)
        self.gen = gen
        #: engine dispatch keys per dispatch index, derived on demand
        #: (:func:`_key`); ``root`` is the key context ``(time, segment,
        #: origin, first index)`` of the first dispatches
        self.keys = None
        self.root = None
        #: whether the per-task path's hunger flag is set after step 0
        self.hungry0 = hungry0


def _key(plan: _Plan, i: int) -> tuple:
    """The engine dispatch key of ``plan``'s dispatch ``i``.

    A dispatch inside the completion of dispatch ``p`` at time ``t`` has
    key ``(t, segment, key(p), position)``: the completion ran in segment 1
    of ``t`` when it was dispatched before ``t``, else in the first
    completion segment after the one it was dispatched in.  The walk up the
    parents ends at a dispatch with a known key — the first dispatches are
    keyed from ``plan.root`` — and keys are memoized.
    """
    keys = plan.keys
    if keys is None:
        keys = plan.keys = [None] * len(plan.d_tids)
        t, seg, origin, k = plan.root
        for j in range(plan.steps[0][0]):
            keys[j] = (t, seg, origin, k + j)
    k = keys[i]
    if k is not None:
        return k
    d_parent = plan.d_parent
    path = []
    while k is None:
        path.append(i)
        i = d_parent[i]
        k = keys[i]
    d_start = plan.d_start
    d_idx = plan.d_idx
    for j in reversed(path):
        t = d_start[j]
        k = keys[j] = (t, 1 if k[0] < t else k[1] | 1, k, d_idx[j])
    return k


def _last_key(plan: _Plan) -> tuple:
    """The dispatch key of ``plan``'s last completion — :func:`_key` of
    its last-finishing task — built in one pass down its genealogy,
    without the memo (most plans complete unread)."""
    gen = iter(plan.gen)
    t, seg, origin, k = plan.root
    k = (t, seg, origin, k + next(gen))
    d_start = plan.d_start
    d_idx = plan.d_idx
    for j in gen:
        t = d_start[j]
        k = (t, 1 if k[0] < t else k[1] | 1, k, d_idx[j])
    return k


def _genealogy(d_parent: list, last: int) -> list:
    """Dispatch indices from a first dispatch (parent -1) down the parent
    links to ``last``."""
    idx = []
    while last >= 0:
        idx.append(last)
        last = d_parent[last]
    idx.reverse()
    return idx


class _PlanTemplate:
    """The start-time-independent trajectory of one graph run.

    Every scheduling decision of :meth:`Team._plan_sim` depends only on the
    order in which in-flight tasks complete: the pick reads instruction
    counts, push seqs and held mutex refs, never a time.  A template keeps
    that trajectory — dispatch order, per-task durations, each dispatch's
    parent, the completion order, the step records and the stats sums —
    and :meth:`instantiate` rebuilds the absolute times from a new ``t0``
    by the simulator's own float expressions (``start = finish[parent]``
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

    __slots__ = ("plan", "checks", "linear")

    def __init__(self, plan: _Plan):
        # the recorded plan's start-time independent fields (trajectory,
        # step records, seqs, sums), which instantiate shares; not its
        # times or keys
        self.plan = _Plan(plan.d_tids, None, None, plan.d_dur, plan.d_parent,
                          plan.d_idx, None, plan.c_order, plan.steps,
                          plan.t_seq, plan.sums, plan.n_total, plan.W, 0.0,
                          plan.gen, plan.hungry0)
        parent = plan.d_parent
        order = plan.c_order
        self.checks = [k for k in range(1, len(order))
                       if parent[order[k]] != order[k - 1]
                       or plan.d_dur[order[k]] < 0.0]
        #: one task after another (a one-worker run): each dispatch is the
        #: previous one's child and completes in dispatch order, so the
        #: finish times are a running sum
        self.linear = (order == list(range(len(parent)))
                       and parent == list(range(-1, len(parent) - 1)))

    def instantiate(self, t0: float) -> Optional[_Plan]:
        """The plan of a run starting at ``t0``, or ``None`` when the
        recorded completion order is not the heap order at ``t0``."""
        rec = self.plan
        if self.linear:
            d_finish = list(accumulate(rec.d_dur, initial=t0))
            d_start = d_finish[:-1]
            del d_finish[0]
            return _Plan(rec.d_tids, d_start, d_finish, rec.d_dur,
                         rec.d_parent, rec.d_idx, d_finish, rec.c_order,
                         rec.steps, rec.t_seq, rec.sums, rec.n_total, rec.W,
                         d_finish[-1], rec.gen, rec.hungry0)
        d_start = []
        d_finish = []
        for p, dur in zip(rec.d_parent, rec.d_dur):
            t = t0 if p < 0 else d_finish[p]
            d_start.append(t)
            d_finish.append(t + dur)
        order = rec.c_order
        for k in self.checks:
            a = order[k - 1]
            b = order[k]
            if (d_finish[b], b) < (d_finish[a], a):
                return None
        c_finish = [d_finish[i] for i in order]
        return _Plan(rec.d_tids, d_start, d_finish, rec.d_dur, rec.d_parent,
                     rec.d_idx, c_finish, order, rec.steps, rec.t_seq,
                     rec.sums, rec.n_total, rec.W, c_finish[-1], rec.gen,
                     rec.hungry0)


_INF = float("inf")

#: trajectories a graph keeps per team-parameter key (see
#: :meth:`Team._plan_templated`); the default replays need at most five
MAX_PLAN_TEMPLATES = 8


class _PlanCounters:
    """The whole-graph plan counters of one engine, shared by its teams:
    the ``plans`` block of :meth:`~repro.sim.Engine.counters`.  Plain
    attributes, because the hot path bumps them once per graph run."""

    __slots__ = ("planned_graphs", "planned_tasks", "plan_cache_hits",
                 "plan_template_misses")

    def __init__(self):
        self.planned_graphs = 0
        self.planned_tasks = 0
        self.plan_cache_hits = 0        # runs served by a template
        self.plan_template_misses = 0   # order-check fallbacks

    def counters(self) -> dict:
        """The plan block of :meth:`~repro.sim.Engine.counters`."""
        return {"planned_graphs": self.planned_graphs,
                "planned_tasks": self.planned_tasks,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_template_misses": self.plan_template_misses,
                # a perturbed plan continues per task and is never
                # re-simulated; the key stays for the block's readers
                "plan_replans": 0}


def _park_blocked(heap: list, held: set, lot: dict) -> bool:
    """Park the heap's blocked tops in the lot, each under a ``held`` ref
    its task waits on; whether a runnable entry is left on top."""
    while heap:
        refs = heap[0][2].mutex_refs
        if refs.isdisjoint(held):
            return True
        entry = heapq.heappop(heap)
        for ref in refs:
            if ref in held:
                break
        lot.setdefault(ref, []).append(entry)
    return False


def _unpark(refs: frozenset, heap: list, lot: dict) -> None:
    """``refs`` were just released: their parked entries return to the
    heap (one still blocked by another ref parks again when a pick or a
    wants check meets it on top)."""
    for ref in refs.intersection(lot):
        for entry in lot.pop(ref):
            heapq.heappush(heap, entry)


def _pop_ready(heap: list, held: set, lot: dict) -> Optional[Task]:
    """Remove and return the best runnable task of a ready queue.

    A ready queue is a heap of ``(key, seq, task)`` entries (see
    :class:`Team`) and a *lot*: a dict from a held mutex ref to the
    entries parked under it, each blocked by that ref.  The pick is the
    smallest entry whose task holds none of the ``held`` mutex refs, or
    ``None`` when every ready task is blocked.  Blocked tops met on the way
    are parked, and a release returns them (:func:`_unpark`), so every
    runnable entry is on the heap and the first unblocked top is the
    smallest; seqs are unique, so that pick is the one a scan of every
    ready entry would make.  The caller guarantees a non-empty heap.
    """
    if not held or heap[0][2].mutex_refs.isdisjoint(held) \
            or _park_blocked(heap, held, lot):
        return heapq.heappop(heap)[2]
    return None


class Team:
    """A rank's thread team: a malleable pool of simulated cores.

    Parameters
    ----------
    engine, core:
        DES engine and the core performance model of the host node.
    nthreads:
        Base worker count (the rank's own cores).
    rank / name:
        The team's MPI rank and a label for error messages.
    listener:
        Optional :class:`TeamListener` (DLB).
    scheduler:
        Ready-task policy, one of :attr:`SCHEDULERS`.  It is read here
        only, as the two factors of a ready-heap entry ``(instr_factor *
        instr, seq, task)``: ``lpt`` is ``(-instr, +seq)``, ``fifo``
        ``(0, +seq)`` and ``lifo`` ``(0, -seq)``, where seqs count push
        order up or down.  Both execution paths pick through
        :func:`_pop_ready`, which parks mutex-blocked entries off the heap
        until a ref they wait on is released; :attr:`ready_count` counts
        them.

    A run takes one of two paths:

    * *planned*, when the team has capacity and either no listener or a
      listener that admits the run (:meth:`TeamListener.admit_plan`; DLB
      does while its node pools no cores): the run is simulated up front
      (:meth:`_plan_sim`) and its completion placed by the dispatch key of
      its last task (:meth:`~repro.sim.Engine.schedule_completion`), where
      that task's per-task completion would run.  A capacity or slowdown
      change — and :meth:`leave_plan` — continues the run task by task
      from the in-flight state;
    * otherwise the *per-task* path: one keyed completion per task.

    Repeats run one at a time, each taking its own path.  Reads
    (:attr:`active_workers`, :attr:`ready_count`, :attr:`wants_cores`) on
    a planned run answer from the plan's in-flight state at the entry
    being run.
    """

    SCHEDULERS = ("lpt", "fifo", "lifo")

    def __init__(self, engine: Engine, core: CoreModel, nthreads: int,
                 rank: int = 0, name: str = "",
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
        # mutex-blocked ready entries parked off the heap (see _pop_ready)
        # and the count of ready entries, parked ones included
        self._lot: dict = {}
        self._n_ready = 0
        self._seq = 0
        # Plan mode: the plan of the running graph (None on the per-task
        # path) and its completion's engine handle
        self._plan: Optional[_Plan] = None
        self._handle = None
        # wants_cores of a plan is False before this time (see there)
        self._sated_until = -_INF
        counters = engine._plan_counters
        if counters is None:
            counters = engine._plan_counters = _PlanCounters()
        self._plan_counters: _PlanCounters = counters

    # -- capacity (the DLB surface) -----------------------------------------
    @property
    def capacity(self) -> int:
        """Current worker-count ceiling (base + borrowed - lent)."""
        return self._max_workers

    @property
    def active_workers(self) -> int:
        """Workers currently executing a task."""
        if self._plan is not None:
            m = self._plan_step()
            return self._plan.steps[m][0] - m
        return self._active

    @property
    def planned(self) -> bool:
        """Whether the running graph is planned."""
        return self._plan is not None

    @property
    def is_running(self) -> bool:
        """Whether a graph is currently being executed."""
        return self._graph is not None

    @property
    def ready_count(self) -> int:
        """Tasks currently ready (waiting for a worker), mutex-blocked ones
        included: LeWI's grant appetite."""
        if self._plan is not None:
            return self._plan.steps[self._plan_step()][1]
        return self._n_ready

    @property
    def wants_cores(self) -> bool:
        """Whether extra capacity would be used right now: the team is
        capacity-bound with a runnable ready task.  On the per-task path
        the blocked heap tops are parked on the way (as the next pick would
        park them), so the answer is whether the top is runnable."""
        if self._graph is None:
            return False
        plan = self._plan
        if plan is not None:
            if self.engine.now < self._sated_until:
                return False
            m = self._plan_step()
            steps = plan.steps
            if steps[m][2]:
                return True
            # no read can say yes before the next step that wants cores
            # (at its instant the key order decides, so read again then)
            for k in range(m + 1, len(steps)):
                if steps[k][2]:
                    self._sated_until = plan.c_finish[k - 1]
                    break
            else:
                self._sated_until = _INF
            return False
        if self._active < self._max_workers:
            return False
        held = self._held_refs
        ready = self._ready
        if not held:
            # no mutexes held: any ready task is runnable
            return bool(ready)
        return _park_blocked(ready, held, self._lot)

    def set_capacity(self, n: int) -> None:
        """Change the worker ceiling; growth dispatches immediately, shrink
        takes effect as running tasks complete."""
        if n < 0:
            raise RuntimeError_(f"capacity must be >= 0, got {n}")
        if n == self._max_workers:
            return
        if self._plan is not None:
            self.leave_plan()
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
        if factor == self.slowdown:
            return
        if self._plan is not None:
            self.leave_plan()
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
        stats = self._start(graph)
        if stats is None:
            stats = yield self._done
        for _ in range(repeats - 1):
            more = self._start(graph)
            if more is None:
                more = yield self._done
            stats.tasks_run += more.tasks_run
            stats.instructions += more.instructions
            stats.busy_seconds += more.busy_seconds
            stats.t_end = more.t_end
            stats.max_concurrency = max(stats.max_concurrency,
                                        more.max_concurrency)
        return stats

    def _start(self, graph: TaskGraph) -> Optional[GraphStats]:
        """Start one execution of ``graph`` on the path the class docstring
        names.  An empty graph finishes at once: its stats are returned.
        Otherwise returns ``None``, and ``_done`` carries the stats."""
        if self._graph is not None:
            raise RuntimeError_(f"{self.name}: run() while a graph is active")
        engine = self.engine
        now = engine.now
        stats = GraphStats(t_start=now)
        if len(graph) == 0:
            stats.t_end = now
            return stats
        self._graph = graph
        self._stats = stats
        self._done = Event(engine)
        listener = self.listener
        if self._max_workers <= 0:
            planned = False
        elif listener is None:
            planned = True
        else:
            # a listener without admit_plan observes every task boundary
            admit = getattr(listener, "admit_plan", None)
            planned = admit is not None and admit(self)
        if planned:
            counters = self._plan_counters
            counters.planned_graphs += 1
            counters.planned_tasks += len(graph.tasks)
            plan = self._plan = self._plan_templated(graph, now)
            # the first dispatches take the engine's next dispatch keys
            k = engine._kseq
            engine._kseq = k + plan.steps[0][0]
            plan.root = (now, engine._seg, engine._fkey, k)
            self._sated_until = -_INF
            self._handle = engine.schedule_completion(
                plan.t_end, _last_key(plan), self._plan_complete)
        else:
            self._remaining = len(graph.tasks)
            self._preds_left = [t.n_preds for t in graph.tasks]
            for task in graph.roots():
                self._push_ready(task)
            self._hungry_notified = False
            self._dispatch()
        return None

    # -- plan mode ----------------------------------------------------------
    def _plan_templated(self, graph: TaskGraph, t0: float) -> _Plan:
        """One unperturbed run of ``graph`` at ``t0`` at the team's current
        capacity and slowdown: instantiated from the first of the graph's
        templates for the team's parameters whose completion order holds
        at ``t0``, simulated otherwise.  A simulated run records its
        trajectory as a further template (up to :data:`MAX_PLAN_TEMPLATES`
        per key): near-tied finishes can order differently at different
        start times, and a deterministic replay meets the same start times
        again.  Two templates that both pass are the same trajectory — the
        order check admits only the one the simulation would take."""
        key = (self.core, self._max_workers, self.slowdown,
               self._instr_factor, self._seq_step)
        templates = graph._plan_templates.get(key)
        if templates is None:
            templates = graph._plan_templates[key] = []
        else:
            for tpl in templates:
                plan = tpl.instantiate(t0)
                if plan is not None:
                    self._plan_counters.plan_cache_hits += 1
                    return plan
            self._plan_counters.plan_template_misses += 1
        plan = self._plan_sim(graph, t0)
        if len(templates) < MAX_PLAN_TEMPLATES:
            templates.append(_PlanTemplate(plan))
        return plan

    def _plan_step(self) -> int:
        """How many of the running plan's completions the per-task path
        would have run before the entry being run: those before ``now``,
        and those at ``now`` whose key precedes that entry's place (an
        earlier segment, or an earlier key in the same completion
        segment)."""
        plan = self._plan
        engine = self.engine
        now = engine.now
        c_finish = plan.c_finish
        m = bisect_left(c_finish, now)
        n = len(c_finish)
        while m < n and c_finish[m] == now:
            key = _key(plan, plan.c_order[m])
            seg = 1 if key[0] < now else key[1] | 1
            if seg < engine._seg or (seg == engine._seg
                                     and key < engine._fkey):
                m += 1
            else:
                break
        return m

    def _rewind(self, plan: _Plan, m: int) -> tuple:
        """The in-flight state of ``plan`` after ``m`` completions, in
        O(remaining tasks): the running tasks' dispatch indices in order,
        the ready heap, the push seq counter, the pending predecessor
        counts, the held mutex refs and the partial stats sums (in
        completion order)."""
        tasks = self._graph.tasks
        D, _ready, _wants, busy, instr, conc, seqc = plan.steps[m]
        d_tids = plan.d_tids
        preds_left = [0] * len(tasks)
        running = []
        for i in plan.c_order[m:]:
            if i < D:
                running.append(i)
            for succ in tasks[d_tids[i]].successors:
                preds_left[succ] += 1
        factor = self._instr_factor
        t_seq = plan.t_seq
        ready = []
        for tid in d_tids[D:]:
            if preds_left[tid] == 0:
                task = tasks[tid]
                ready.append((factor * task._instr, t_seq[tid], task))
        heapq.heapify(ready)
        running.sort()
        held: set = set()
        for i in running:
            refs = tasks[d_tids[i]].mutex_refs
            if refs:
                held |= refs
        return running, ready, seqc, preds_left, held, busy, instr, conc

    @staticmethod
    def _hungry_at(plan: _Plan, m: int) -> bool:
        """The per-task path's hunger flag after ``m`` of ``plan``'s
        completions: set by the dispatches after each completion when the
        team stays capacity-bound with tasks ready."""
        if m == 0:
            return plan.hungry0
        D, ready = plan.steps[m][:2]
        return D - m >= plan.W and ready > 0

    def leave_plan(self) -> None:
        """Continue the running planned graph task by task.

        A capacity or slowdown change calls this, and so does DLB when
        cores are pooled on the team's node, where LeWI acts at the team's
        own task boundaries.  The plan's state at the entry being run
        becomes the per-task state — ready heap, held mutexes, pending
        predecessors, partial stats summed in completion order, hunger
        flag — and each running task's completion is inserted under the
        dispatch key the per-task path gave it.  A team not running a plan
        is left as it is.
        """
        plan = self._plan
        if plan is None:
            return
        self.engine.cancel_scheduled(self._handle)
        m = self._plan_step()
        (running, ready, seqc, preds_left, held, busy, instr,
         conc) = self._rewind(plan, m)
        self._hungry_notified = self._hungry_at(plan, m)
        self._plan = None
        self._handle = None
        self._ready = ready
        self._n_ready = len(ready)
        self._seq = seqc
        self._held_refs = held
        self._active = len(running)
        self._remaining = len(self._graph.tasks) - m
        self._preds_left = preds_left
        stats = self._stats
        stats.tasks_run = m
        stats.instructions = instr
        stats.busy_seconds = busy
        stats.max_concurrency = conc
        tasks = self._graph.tasks
        schedule = self.engine.schedule_completion
        for i in running:
            schedule(plan.d_finish[i], _key(plan, i), self._finish_task,
                     tasks[plan.d_tids[i]], plan.d_dur[i])

    def _plan_complete(self) -> None:
        """Fires at the plan's end: apply the precomputed stats sums
        (accumulated in completion order, the per-task summation order)
        and release the graph, exactly as `_finish_task` does for the last
        task."""
        stats = self._stats
        plan = self._plan
        stats.tasks_run = plan.n_total
        stats.busy_seconds, stats.instructions, stats.max_concurrency = \
            plan.sums
        stats.t_end = self.engine.now
        done = self._done
        self._graph = None
        self._stats = None
        self._done = None
        self._plan = None
        self._handle = None
        if self.listener is not None:
            self.listener.on_team_idle(self)
        done.succeed(stats)

    def _plan_sim(self, graph: TaskGraph, t0: float) -> _Plan:
        """Simulate one execution of a non-empty graph from its roots in
        plain Python, event-for-event equivalent to the per-task path's
        trajectory, at the team's current capacity (at least 1) and
        slowdown.

        Replicates `_dispatch`/`_finish_task` exactly: the same ready-heap
        entries and pick helper (:func:`_pop_ready`), dispatch while
        capacity remains after every completion, cached task durations, and
        the float expression order of start/finish arithmetic.  With a
        worker or more every task completes: once nothing runs, no mutex
        ref is held, so a ready task is always picked.
        """
        tasks = graph.tasks
        core = self.core
        W = self._max_workers
        slow = self.slowdown
        factor = self._instr_factor
        step = self._seq_step
        d_tids: list = []
        d_start: list = []
        d_finish: list = []
        d_dur: list = []
        # d_parent[i]: dispatch index of the task whose completion dispatched
        # task i (-1: dispatched at t0) — the scheduling genealogy the
        # per-task path creates implicitly; d_idx[i]: i's position among
        # that completion's dispatches
        d_parent: list = []
        d_idx: list = []
        inflight: list = []         # (finish, dispatch index, tid)
        preds_left = [t.n_preds for t in tasks]
        t_seq = [0] * len(tasks)
        ready: list = []
        lot: dict = {}
        n_ready = 0
        seqc = 0
        for task in graph.roots():
            seqc += step
            t_seq[task.tid] = seqc
            heapq.heappush(ready, (factor * task._instr, seqc, task))
            n_ready += 1
        held: set = set()
        busy = 0.0
        instr = 0.0
        max_conc = 0
        active = 0
        t = t0
        c_finish: list = []
        c_order: list = []
        steps: list = []
        cur_parent = -1
        while True:
            idx = 0
            while active < W and ready:
                task = _pop_ready(ready, held, lot)
                if task is None:
                    break
                n_ready -= 1
                tid = task.tid
                if task.mutex_refs:
                    held |= task.mutex_refs
                active += 1
                if active > max_conc:
                    max_conc = active
                if task._dur_core is core:
                    base_dur = task._dur
                else:
                    base_dur = core.seconds(task.work)
                    task._dur = base_dur
                    task._dur_core = core
                dur = base_dur * slow
                finish = t + dur
                heapq.heappush(inflight, (finish, len(d_tids), tid))
                d_tids.append(tid)
                d_start.append(t)
                d_finish.append(finish)
                d_dur.append(dur)
                d_parent.append(cur_parent)
                d_idx.append(idx)
                idx += 1
            if active < W or not ready:
                wants = False
            else:
                wants = not held or _park_blocked(ready, held, lot)
            steps.append((len(d_tids), n_ready, wants, busy, instr,
                          max_conc, seqc))
            if not inflight:
                break
            finish, di, tid = heapq.heappop(inflight)
            t = finish
            cur_parent = di
            task = tasks[tid]
            # stats accumulation order matches _finish_task
            instr += task._instr
            busy += d_dur[di]
            if task.mutex_refs:
                held -= task.mutex_refs
                if lot:
                    _unpark(task.mutex_refs, ready, lot)
            active -= 1
            c_finish.append(finish)
            c_order.append(di)
            for succ in task.successors:
                preds_left[succ] -= 1
                if preds_left[succ] == 0:
                    seqc += step
                    t_seq[succ] = seqc
                    nxt = tasks[succ]
                    heapq.heappush(ready, (factor * nxt._instr, seqc, nxt))
                    n_ready += 1
        return _Plan(d_tids, d_start, d_finish, d_dur, d_parent, d_idx,
                     c_finish, c_order, steps, t_seq,
                     (busy, instr, max_conc), len(tasks), W, c_finish[-1],
                     _genealogy(d_parent, c_order[-1]),
                     steps[0][0] >= W and steps[0][1] > 0)

    # -- internals --------------------------------------------------------
    def _push_ready(self, task: Task) -> None:
        """Add ``task`` to the ready heap under the team's policy key."""
        self._seq += self._seq_step
        self._n_ready += 1
        heapq.heappush(self._ready,
                       (self._instr_factor * task._instr, self._seq, task))

    def _dispatch(self) -> None:
        """Start runnable tasks while workers are free.

        A start is the task's completion: the duration is read here
        (``slowdown`` included, so a change at time T applies to every
        dispatch made after it at T, the plan path's rule) and one keyed
        :meth:`~repro.sim.Engine.schedule_completion` carries the task to
        :meth:`_finish_task`.  The pick helper is the plan simulator's;
        with the default one-thread teams of the paper's configurations no
        mutex is held here and a pick is a single heappop.
        """
        active = self._active
        cap = self._max_workers
        ready = self._ready
        # most calls find no free worker or an empty heap (on Thunder
        # coupled DLB more than half): they skip the loop's set-up
        if active < cap and ready:
            held = self._held_refs
            lot = self._lot
            engine = self.engine
            now = engine.now
            core = self.core
            stats = self._stats
            n_ready = self._n_ready
            while active < cap and ready:
                task = _pop_ready(ready, held, lot)
                if task is None:
                    break
                n_ready -= 1
                if task.mutex_refs:
                    held |= task.mutex_refs     # in-place: held is _held_refs
                active += 1
                if active > stats.max_concurrency:
                    stats.max_concurrency = active
                if task._dur_core is core:
                    base = task._dur
                else:
                    # Task graphs are re-executed every simulated time step
                    # with the same WorkSpec on the same core: compute the
                    # nominal duration once and reuse the identical float
                    # thereafter.
                    base = core.seconds(task.work)
                    task._dur = base
                    task._dur_core = core
                exec_seconds = base * self.slowdown
                # the dispatch key (Engine.completion_key, inlined)
                k = engine._kseq
                engine._kseq = k + 1
                engine.schedule_completion(now + exec_seconds,
                                           (now, engine._seg, engine._fkey, k),
                                           self._finish_task, task,
                                           exec_seconds)
            self._active = active
            self._n_ready = n_ready
        # Appetite signalling for DLB: hungry if capacity-bound work
        # remains, runnable or not.
        if (active >= cap and self._n_ready and self.listener is not None
                and not self._hungry_notified):
            self._hungry_notified = True
            self.listener.on_team_hungry(self)

    def _finish_task(self, task: Task, exec_seconds: float) -> None:
        """Task completion bookkeeping (runs when the task's timer pops)."""
        stats = self._stats
        stats.tasks_run += 1
        stats.instructions += task._instr
        stats.busy_seconds += exec_seconds
        refs = task.mutex_refs
        if refs:
            self._held_refs -= refs
            if self._lot:
                _unpark(refs, self._ready, self._lot)
        self._active -= 1
        self._remaining -= 1
        successors = task.successors
        if successors:
            tasks = self._graph.tasks
            preds_left = self._preds_left
            for succ in successors:
                preds_left[succ] -= 1
                if preds_left[succ] == 0:
                    self._push_ready(tasks[succ])
        self._hungry_notified = False
        if self._remaining:
            self._dispatch()
            return
        stats.t_end = self.engine.now
        done = self._done
        self._graph = None
        self._stats = None
        self._done = None
        if self.listener is not None:
            self.listener.on_team_idle(self)
        done.succeed(stats)
