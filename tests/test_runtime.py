"""Unit tests for the malleable task-execution team."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DepType, Task, Team, TaskGraph
from repro.core.runtime import MAX_PLAN_TEMPLATES, RuntimeError_
from repro.machine import CoreModel, WorkSpec
from repro.sim import Engine


#: A convenient core: 1 GHz, IPC 1 => 1e9 instructions per second.
CORE = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0, out_of_order=True,
                 atomic_stall_cycles=0.0, mem_stall_cycles=0.0)

#: 1e9 instructions == 1 simulated second on CORE.
SEC = 1e9

#: ``(instr_units, mutex refs, chain ref)`` triples for
#: :meth:`TestPlanEquivalence._mutex_graph`
MUTEX_SPECS = st.lists(
    st.tuples(st.integers(1, 4),
              st.frozensets(st.sampled_from("abcd"), max_size=2),
              st.one_of(st.none(), st.sampled_from("xy"))),
    min_size=1, max_size=10)


def run_graph(graph, nthreads, capacity_script=None, **team_kwargs):
    eng = Engine()
    team = Team(eng, CORE, nthreads, **team_kwargs)

    result = {}

    def prog():
        stats = yield from team.run(graph)
        result["stats"] = stats

    eng.process(prog())
    if capacity_script:
        def scripted():
            for delay, cap in capacity_script:
                yield eng.timeout(delay)
                team.set_capacity(cap)
        eng.process(scripted())
    eng.run()
    return eng, team, result["stats"]


class PerTask:
    """A listener that declines every plan and ignores hunger: a team
    with it runs every graph task by task."""

    def admit_plan(self, team):
        return False

    def on_team_hungry(self, team):
        pass

    def on_team_idle(self, team):
        pass


class FinishHook(Team):
    """A per-task team that calls ``on_finish(team, task)`` as each task
    finishes, before the team's own bookkeeping of it."""

    def __init__(self, *args, on_finish=None, **kwargs):
        super().__init__(*args, listener=PerTask(), **kwargs)
        self.on_finish = on_finish

    def _finish_task(self, task, *args):
        if self.on_finish is not None:
            self.on_finish(self, task)
        super()._finish_task(task, *args)


def simple_graph(n_tasks, instr=SEC):
    g = TaskGraph()
    for _ in range(n_tasks):
        g.add_task(WorkSpec(instr))
    return g


class TestBasicExecution:
    def test_single_task_duration(self):
        eng, _, stats = run_graph(simple_graph(1), nthreads=1)
        assert eng.now == pytest.approx(1.0)
        assert stats.tasks_run == 1
        assert stats.makespan == pytest.approx(1.0)

    def test_parallel_tasks_use_all_threads(self):
        eng, _, stats = run_graph(simple_graph(4), nthreads=4)
        assert eng.now == pytest.approx(1.0)
        assert stats.max_concurrency == 4

    def test_more_tasks_than_threads(self):
        eng, _, stats = run_graph(simple_graph(4), nthreads=2)
        assert eng.now == pytest.approx(2.0)
        assert stats.busy_seconds == pytest.approx(4.0)

    def test_empty_graph_is_instant(self):
        eng, _, stats = run_graph(TaskGraph(), nthreads=2)
        assert eng.now == 0.0
        assert stats.tasks_run == 0

    def test_dependences_respected(self):
        g = TaskGraph()
        g.add_task(WorkSpec(SEC), depend={DepType.OUT: ["x"]})
        g.add_task(WorkSpec(SEC), depend={DepType.IN: ["x"]})
        eng, _, stats = run_graph(g, nthreads=4)
        assert eng.now == pytest.approx(2.0)  # serialized despite 4 threads

    def test_run_while_running_rejected(self):
        eng = Engine()
        team = Team(eng, CORE, 1)

        def prog():
            yield from team.run(simple_graph(2))

        def second():
            yield eng.timeout(0.5)
            yield from team.run(simple_graph(1))

        eng.process(prog())
        p2 = eng.process(second())
        eng.run()
        assert not p2.ok
        assert isinstance(p2.value, RuntimeError_)

    def test_stats_instructions_and_ipc(self):
        eng, team, stats = run_graph(simple_graph(3), nthreads=1)
        assert stats.instructions == pytest.approx(3 * SEC)
        assert stats.ipc(CORE) == pytest.approx(1.0)

    def test_sequential_runs_on_same_team(self):
        eng = Engine()
        team = Team(eng, CORE, 2)
        spans = []

        def prog():
            s1 = yield from team.run(simple_graph(2))
            s2 = yield from team.run(simple_graph(2))
            spans.append((s1.makespan, s2.makespan))

        eng.process(prog())
        eng.run()
        assert spans[0] == (pytest.approx(1.0), pytest.approx(1.0))
        assert eng.now == pytest.approx(2.0)


class TestMutexScheduling:
    def test_conflicting_tasks_serialize(self):
        g = TaskGraph()
        g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: [0, 1]})
        g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: [1, 2]})
        eng, _, stats = run_graph(g, nthreads=2)
        assert eng.now == pytest.approx(2.0)
        assert stats.max_concurrency == 1

    def test_nonconflicting_tasks_parallel(self):
        g = TaskGraph()
        g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: [0]})
        g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: [1]})
        eng, _, stats = run_graph(g, nthreads=2)
        assert eng.now == pytest.approx(1.0)
        assert stats.max_concurrency == 2

    def test_mutex_skip_allows_out_of_order_start(self):
        """A runnable later task starts while the head of the queue is
        mutex-blocked (mutexinoutset imposes no order)."""
        g = TaskGraph()
        g.add_task(WorkSpec(2 * SEC), depend={DepType.MUTEXINOUTSET: ["a"]})
        g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: ["a"]})
        g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: ["b"]})
        eng, _, stats = run_graph(g, nthreads=2)
        # t0 and t2 run together; t1 runs after t0 -> total 3s (not 4s)
        assert eng.now == pytest.approx(3.0)

    def test_multidep_subdomain_pattern(self):
        """A ring of 4 subdomains with shared-boundary refs: opposite
        (non-adjacent) subdomains run concurrently."""
        g = TaskGraph()
        for s in range(4):
            refs = {s,
                    frozenset((s, (s - 1) % 4)),
                    frozenset((s, (s + 1) % 4))}
            g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: refs})
        eng, _, stats = run_graph(g, nthreads=4)
        # neighbours exclude each other: at most 2 concurrent (0&2, 1&3)
        assert stats.max_concurrency == 2
        assert eng.now == pytest.approx(2.0)


class TestMalleability:
    def test_capacity_increase_speeds_up(self):
        # 4 x 1s tasks on 1 thread; at t=1 capacity -> 4
        eng, _, stats = run_graph(simple_graph(4), nthreads=1,
                                  capacity_script=[(1.0, 4)])
        assert eng.now == pytest.approx(2.0)  # 1 task, then 3 in parallel

    def test_capacity_decrease_at_task_boundary(self):
        # 4 x 1s tasks on 2 threads; at t=0.5 capacity -> 1.
        # Running tasks finish; afterwards only 1 at a time.
        eng, _, stats = run_graph(simple_graph(4), nthreads=2,
                                  capacity_script=[(0.5, 1)])
        assert eng.now == pytest.approx(3.0)

    def test_zero_capacity_stalls_until_restored(self):
        eng, _, stats = run_graph(simple_graph(2), nthreads=0,
                                  capacity_script=[(5.0, 2)])
        assert eng.now == pytest.approx(6.0)

    def test_zero_capacity_start_plans_nothing(self):
        """A run started without workers goes per task (a plan would
        stall); the next run, with workers, is planned."""
        eng = Engine()
        team = Team(eng, CORE, 0)
        reads = []
        out = []

        def prog():
            out.append((yield from team.run(simple_graph(2))))
            out.append((yield from team.run(simple_graph(2))))

        def restore():
            yield eng.timeout(5.0)
            reads.append((team.planned, team.ready_count,
                          team.active_workers))
            team.set_capacity(2)

        eng.process(prog())
        eng.process(restore())
        eng.run()
        assert reads == [(False, 2, 0)]
        assert [s.tasks_run for s in out] == [2, 2]
        assert eng.now == pytest.approx(7.0)
        assert eng.counters()["batch"]["plans"]["planned_graphs"] == 1

    def test_hungry_notification(self):
        calls = []

        class Listener:
            def on_team_hungry(self, team):
                calls.append(("hungry", team.ready_count))

            def on_team_idle(self, team):
                calls.append(("idle", 0))

        run_graph(simple_graph(4), nthreads=1, listener=Listener())
        kinds = [k for k, _ in calls]
        assert "hungry" in kinds
        assert kinds[-1] == "idle"

    def test_wants_cores_reflects_backlog(self):
        eng = Engine()
        team = Team(eng, CORE, 1)
        probes = []

        def prog():
            yield from team.run(simple_graph(3))

        def probe():
            yield eng.timeout(0.5)
            probes.append(team.wants_cores)

        eng.process(prog())
        eng.process(probe())
        eng.run()
        assert probes == [True]


class TestPlanEquivalence:
    """Whole-graph plans vs the task-by-task path.

    A mid-run ``set_slowdown``/``set_capacity`` continues a plan task by
    task; the planned prefix and the per-task suffix must land on exactly
    the per-task stats — not approximately: the same float expressions in
    the same order.
    """

    @staticmethod
    def _perturbed_run(graph_factory, script, listener=None):
        eng = Engine()
        team = Team(eng, CORE, 2, listener=listener)
        out = {}

        def prog():
            out["stats"] = yield from team.run(graph_factory())

        eng.process(prog())

        def scripted():
            for delay, action in script:
                yield eng.timeout(delay)
                action(team)

        eng.process(scripted())
        eng.run()
        s = out["stats"]
        return (s.tasks_run, s.instructions, s.busy_seconds,
                s.t_start, s.t_end, s.max_concurrency)

    @pytest.mark.parametrize("script", [
        [(0.4, lambda t: t.set_slowdown(3.0)),
         (0.7, lambda t: t.set_slowdown(1.0))],
        [(0.3, lambda t: t.set_capacity(1)),
         (0.9, lambda t: t.set_capacity(2))],
        [(0.2, lambda t: t.set_slowdown(2.0)),
         (0.5, lambda t: t.set_capacity(1)),
         (1.1, lambda t: t.set_capacity(2)),
         (1.3, lambda t: t.set_slowdown(1.0))],
    ], ids=["slowdown", "capacity", "mixed"])
    def test_midrun_perturbation_exact(self, script):
        def graphs():
            return simple_graph(7, instr=0.35 * SEC)

        per_task = self._perturbed_run(graphs, script, PerTask())
        planned = self._perturbed_run(graphs, script)
        assert planned == per_task      # bit-exact, no approx

    # -- mutexes, policies and epochs on dispatch instants ---------------

    @staticmethod
    def _finish_instants(graph, workers, scheduler):
        """The distinct task finish times of ``graph``'s unperturbed run,
        in order."""
        eng = Engine()
        instants = set()
        team = FinishHook(eng, CORE, workers, scheduler=scheduler,
                          on_finish=lambda team, task:
                          instants.add(eng.now))
        eng.process(team.run(graph))
        eng.run()
        return sorted(instants)

    @staticmethod
    def _mutex_graph(spec, unit=0.25):
        """A graph from drawn ``(instr_units, mutex refs, chain ref)``
        triples: equal instruction counts tie on LPT, shared mutex refs
        block ready tasks, and a shared chain ref orders tasks by a DAG
        edge.  A non-dyadic ``unit`` makes paths of equal real length
        finish at rounding-dependent times."""
        g = TaskGraph()
        for units, mutexes, chain in spec:
            depend = {DepType.MUTEXINOUTSET: mutexes}
            if chain is not None:
                depend[DepType.INOUT] = [chain]
            g.add_task(WorkSpec(units * unit * SEC), depend=depend)
        return g

    @staticmethod
    def _epoch_run(graph, workers, scheduler, epochs, listener):
        """Run ``graph`` with ``(time, action)`` epochs armed before the run
        starts: each epoch's timer precedes every task finish at its
        instant, so it applies to every dispatch made at that instant."""
        eng = Engine()
        team = Team(eng, CORE, workers, listener=listener,
                    scheduler=scheduler)
        for when, action in epochs:
            eng.call_later(when, action, team)
        out = {}

        def prog():
            out["stats"] = yield from team.run(graph)

        eng.process(prog())
        eng.run()
        s = out["stats"]
        return (s.tasks_run, s.instructions, s.busy_seconds,
                s.t_start, s.t_end, s.max_concurrency)

    @settings(max_examples=80, deadline=None)
    @given(spec=MUTEX_SPECS,
           workers=st.integers(2, 4),
           scheduler=st.sampled_from(Team.SCHEDULERS),
           kind=st.sampled_from(["slowdown", "capacity"]),
           factor=st.sampled_from([0.5, 2.0, 3.0]),
           cap=st.integers(1, 3),
           pick=st.integers(0, 64),
           later=st.one_of(st.none(), st.sampled_from([0.1, 0.35])),
           unit=st.sampled_from([0.25, 0.2637]))
    def test_mutex_graphs_exact(self, spec, workers, scheduler, kind, factor,
                                cap, pick, later, unit):
        """Per-task path (declining listener) vs plan path on drawn mutex
        graphs, stat for stat and bit for bit, with a capacity or slowdown
        epoch landing exactly on a dispatch instant of the unperturbed run
        (a task finish, where the finished task's successors and any
        mutex-blocked tasks start) and an optional later epoch undoing
        it."""
        instants = self._finish_instants(self._mutex_graph(spec, unit),
                                         workers, scheduler)
        when = instants[pick % len(instants)]
        if kind == "slowdown":
            apply, undo = (lambda t: t.set_slowdown(factor),
                           lambda t: t.set_slowdown(1.0))
        else:
            apply, undo = (lambda t: t.set_capacity(cap),
                           lambda t: t.set_capacity(workers))
        epochs = [(when, apply)]
        if later is not None:
            epochs.append((when + later, undo))

        per_task = self._epoch_run(self._mutex_graph(spec, unit), workers,
                                   scheduler, epochs, PerTask())
        planned = self._epoch_run(self._mutex_graph(spec, unit), workers,
                                  scheduler, epochs, None)
        assert planned == per_task      # bit-exact, no approx
        assert per_task[0] == len(spec)

    @settings(max_examples=100, deadline=None)
    @given(spec=MUTEX_SPECS,
           workers=st.integers(1, 4),
           scheduler=st.sampled_from(Team.SCHEDULERS),
           slowdown=st.sampled_from([1.0, 0.5, 3.0]),
           unit=st.sampled_from([0.25, 0.2637]))
    def test_plans_complete_every_task(self, spec, workers, scheduler,
                                       slowdown, unit):
        """With a worker or more a plan never stalls: once nothing runs, no
        mutex ref is held, so a ready task is always picked."""
        graph = self._mutex_graph(spec, unit)
        team = Team(Engine(), CORE, workers, scheduler=scheduler)
        team.set_slowdown(slowdown)
        plan = team._plan_sim(graph, 0.0)
        everything = list(range(len(spec)))
        assert sorted(plan.d_tids) == everything
        assert sorted(plan.c_order) == everything
        assert len(plan.steps) == len(spec) + 1
        assert plan.t_end == plan.c_finish[-1] == max(plan.d_finish)

    # -- plan templates ----------------------------------------------------

    PLAN_FIELDS = ("d_tids", "d_start", "d_finish", "d_dur", "c_finish",
                   "sums", "n_total", "t_end", "gen")

    @classmethod
    def _assert_plans_equal(cls, got, want):
        """Two lists of per-repeat plans, field for field."""
        assert len(got) == len(want)
        for got_part, want_part in zip(got, want):
            for name in cls.PLAN_FIELDS:
                assert getattr(got_part, name) == getattr(want_part, name), \
                    name

    @staticmethod
    def _back_to_back(plan_one, t0, repeats):
        """``repeats`` plans ``plan_one(start)``, one at a time, each
        starting at the previous one's end."""
        plans = []
        for _ in range(repeats):
            plans.append(plan_one(t0))
            t0 = plans[-1].t_end
        return plans

    @classmethod
    def _fresh(cls, team, graph, t0, repeats=1):
        """Simulated plans, none served from a template."""
        return cls._back_to_back(lambda t: team._plan_sim(graph, t), t0,
                                 repeats)

    @classmethod
    def _served(cls, team, graph, t0, repeats=1):
        """Plans served as a run gets them: from a template when one
        passes its order check."""
        return cls._back_to_back(lambda t: team._plan_templated(graph, t),
                                 t0, repeats)

    @settings(max_examples=200, deadline=None)
    @given(spec=MUTEX_SPECS,
           workers=st.integers(1, 4),
           scheduler=st.sampled_from(Team.SCHEDULERS),
           slowdown=st.sampled_from([1.0, 0.5, 3.0]),
           unit=st.sampled_from([0.25, 0.1, 0.0137]),
           repeats=st.integers(1, 3),
           t_rec=st.sampled_from([0.0, 0.7, 123456.789]),
           t0s=st.lists(st.one_of(
               st.floats(0.0, 10.0),
               st.floats(1e3, 1e7),
               st.sampled_from([0.1, 1.7, 98765.4321, 3.3e5 + 0.1])),
               min_size=1, max_size=6))
    def test_template_plans_exact(self, spec, workers, scheduler, slowdown,
                                  unit, repeats, t_rec, t0s):
        """A plan served from a graph's template — or from the fallback
        simulation when the recorded completion order fails the order
        check — equals a fresh simulation field for field, float ``==``
        (a digest rounds times and would miss an ulp of drift)."""
        graph = self._mutex_graph(spec, unit)
        team = Team(Engine(), CORE, workers, scheduler=scheduler)
        team.set_slowdown(slowdown)
        first = self._served(team, graph, t_rec, repeats)
        self._assert_plans_equal(first, self._fresh(team, graph, t_rec,
                                                    repeats))
        [templates] = graph._plan_templates.values()
        for t0 in t0s:
            self._assert_plans_equal(self._served(team, graph, t0, repeats),
                                     self._fresh(team, graph, t0, repeats))
        counters = team._plan_counters
        served = counters.plan_cache_hits + counters.plan_template_misses
        assert served == repeats * (1 + len(t0s)) - 1
        assert len(templates) == min(1 + counters.plan_template_misses,
                                     MAX_PLAN_TEMPLATES)
        if workers == 1:
            assert counters.plan_template_misses == 0

    @staticmethod
    def _race_graph():
        """fifo on two workers: ``y`` (0.3 s) runs beside ``x1`` (0.1 s)
        then ``x2`` (0.2 s), so the finish order of ``y`` and ``x2``
        compares ``t0 + 0.3`` with ``(t0 + 0.1) + 0.2``, which rounding
        decides differently at different start times."""
        g = TaskGraph()
        g.add_task(WorkSpec(0.3 * SEC))
        g.add_task(WorkSpec(0.1 * SEC))
        g.add_task(WorkSpec(0.2 * SEC))
        return g

    def test_order_check_failure_falls_back(self):
        graph = self._race_graph()
        team = Team(Engine(), CORE, 2, scheduler="fifo")
        team._plan_templated(graph, 0.0)
        [[tpl]] = graph._plan_templates.values()
        t0 = next(t for t in (k * 0.1 for k in range(1, 10_000))
                  if tpl.instantiate(t) is None)
        counters = team._plan_counters
        misses = counters.plan_template_misses
        plan = team._plan_templated(graph, t0)
        assert counters.plan_template_misses == misses + 1
        self._assert_plans_equal([plan], self._fresh(team, graph, t0))
        # the fallback took the other completion order and recorded it:
        # the same start time is now served, and so is the first one
        assert plan.c_order != tpl.plan.c_order
        [templates] = graph._plan_templates.values()
        assert len(templates) == 2
        hits = counters.plan_cache_hits
        for t in (t0, 0.0):
            self._assert_plans_equal(self._served(team, graph, t),
                                     self._fresh(team, graph, t))
        assert counters.plan_cache_hits == hits + 2
        assert counters.plan_template_misses == misses + 1

    def test_graph_growth_drops_templates(self):
        """A graph that gains a task after a run is planned afresh, not
        from the template recorded before (which would report two tasks
        with a one-task makespan)."""
        graph = simple_graph(1, instr=1.1338 * SEC)
        eng = Engine()
        team = Team(eng, CORE, 1)
        out = []

        def prog():
            out.append((yield from team.run(graph)))
            graph.add_task(WorkSpec(0.5 * SEC))
            out.append((yield from team.run(graph)))

        eng.process(prog())
        eng.run()
        assert [s.tasks_run for s in out] == [1, 2]
        assert out[1].makespan == pytest.approx(1.6338)
        per_task = run_graph(graph, 1, listener=PerTask())[2]
        assert (out[1].busy_seconds, out[1].instructions) == \
            (per_task.busy_seconds, per_task.instructions)

    def test_teams_sharing_a_graph_keep_their_own_templates(self):
        """Templates are keyed by the team parameters, so two teams with
        different worker counts or schedulers running one graph each get
        their own exact plan."""
        graph = self._mutex_graph([(3, frozenset("a"), None),
                                   (1, frozenset("ab"), "x"),
                                   (2, frozenset(), None),
                                   (4, frozenset("b"), "x"),
                                   (2, frozenset("c"), None)])
        teams = [Team(Engine(), CORE, workers, scheduler=sched)
                 for workers, sched in [(2, "lpt"), (3, "lpt"),
                                        (2, "fifo"), (3, "lifo")]]
        for t0 in (0.0, 2.5, 7.125):
            for team in teams:
                self._assert_plans_equal(self._served(team, graph, t0),
                                         self._fresh(team, graph, t0))
        assert len(graph._plan_templates) == len(teams)


class _Admit:
    """A listener that admits every run to plan mode and ignores hunger."""

    def admit_plan(self, team):
        return True

    def on_team_hungry(self, team):
        pass

    def on_team_idle(self, team):
        pass


class _Observe:
    """A listener without ``admit_plan``: it sees every task boundary."""

    def on_team_hungry(self, team):
        pass

    def on_team_idle(self, team):
        pass


def _act_at(when, action):
    """A :class:`FinishHook` callback that calls ``action`` at the first
    task finish at ``when``."""
    pending = [action]

    def on_finish(team, task):
        if team.engine.now == when and pending:
            pending.pop()()

    return on_finish


class TestPlanReadsAtFinishInstants:
    """A capacity change landing exactly on a finish instant of the team it
    changes — from a plain entry, or from another team's completion at the
    same instant, which orders against the team's own finishes by dispatch
    key.  A planned team and its per-task twin must read the same
    ``wants_cores``, ``ready_count`` and ``active_workers`` before and
    after the change and end with the same stats, bit for bit, whether it
    plans for a listener or without one: either way its plan completes at
    its last task's key."""

    @staticmethod
    def _scenario(spec, unit, workers, scheduler, cap, when, trigger,
                  other_first, mode):
        graph = TestPlanEquivalence._mutex_graph(spec, unit)
        eng = Engine()
        if mode == "listener":
            team = Team(eng, CORE, workers, scheduler=scheduler,
                        listener=_Admit())
        elif mode == "plain":
            team = Team(eng, CORE, workers, scheduler=scheduler)
        else:
            team = Team(eng, CORE, workers, scheduler=scheduler,
                        listener=_Observe())
        reads = []

        def act():
            reads.append((team.wants_cores, team.ready_count,
                          team.active_workers))
            team.set_capacity(cap)
            reads.append((team.wants_cores, team.ready_count,
                          team.active_workers))

        out = {}

        def prog():
            out["stats"] = yield from team.run(graph)

        if trigger == "entry":
            eng.call_later(when, act)
            eng.process(prog())
        else:
            # a per-task clone of the unperturbed run finishes at the same
            # instants; it acts at its finish at ``when``
            twin = FinishHook(eng, CORE, workers, scheduler=scheduler,
                              on_finish=_act_at(when, act))
            twin_graph = TestPlanEquivalence._mutex_graph(spec, unit)

            def other():
                yield from twin.run(twin_graph)

            if other_first:
                eng.process(other())
                eng.process(prog())
            else:
                eng.process(prog())
                eng.process(other())
        eng.run()
        s = out["stats"]
        return reads, (s.tasks_run, s.instructions, s.busy_seconds,
                       s.t_start, s.t_end, s.max_concurrency)

    @settings(max_examples=80, deadline=None)
    @given(spec=MUTEX_SPECS,
           workers=st.integers(1, 3),
           scheduler=st.sampled_from(Team.SCHEDULERS),
           cap=st.integers(1, 4),
           pick=st.integers(0, 64),
           trigger=st.sampled_from(["entry", "completion"]),
           other_first=st.booleans(),
           mode=st.sampled_from(["listener", "plain"]),
           unit=st.sampled_from([0.25, 0.2637]))
    def test_same_reads_and_stats_as_per_task(self, spec, workers, scheduler,
                                              cap, pick, trigger,
                                              other_first, mode, unit):
        instants = TestPlanEquivalence._finish_instants(
            TestPlanEquivalence._mutex_graph(spec, unit), workers, scheduler)
        when = instants[pick % len(instants)]
        args = (spec, unit, workers, scheduler, cap, when, trigger,
                other_first)
        per_task = self._scenario(*args, "per_task")
        planned = self._scenario(*args, mode)
        assert len(per_task[0]) == 2          # the change did land
        assert planned == per_task


class _LogHunger:
    """A declining listener (every run goes task by task) that logs each
    hunger notification with the team's ``ready_count`` at it."""

    def __init__(self, log):
        self.log = log

    def admit_plan(self, team):
        return False

    def on_team_hungry(self, team):
        self.log.append(("hungry", team.engine.now, team.ready_count))

    def on_team_idle(self, team):
        self.log.append(("idle", team.engine.now))


class _LogDispatch(Engine):
    """An engine that logs every task completion scheduled on it: a
    per-task team's dispatch, with its time, task and dispatch key."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def schedule_completion(self, when, key, fn, *args):
        if args and isinstance(args[0], Task):
            self.log.append(("dispatch", self.now, args[0].tid, key))
        return super().schedule_completion(when, key, fn, *args)


class _ProbedTeam(Team):
    """A per-task team that logs its reads after each task finish and the
    dispatches it made: ``ready_count`` always, ``wants_cores`` at every
    ``probe``-th finish (a read may move blocked entries off the heap,
    so reading at some finishes only covers picks that meet them
    first)."""

    def __init__(self, engine, workers, scheduler, probe):
        super().__init__(engine, CORE, workers, scheduler=scheduler,
                         listener=_LogHunger(engine.log))
        self.probe = probe
        self.finishes = 0

    def _finish_task(self, task, exec_seconds):
        super()._finish_task(task, exec_seconds)
        self.finishes += 1
        wants = (self.wants_cores if self.finishes % self.probe == 0
                 else None)
        self.engine.log.append(("finish", self.engine.now, task.tid,
                                self.ready_count, wants))


def _scanning_pop(heap, held):
    """The reference pick: a scan of every ready entry for the smallest
    one whose task holds no ``held`` mutex ref."""
    runnable = [e for e in heap if e[2].mutex_refs.isdisjoint(held)]
    if not runnable:
        return None
    best = min(runnable)
    heap.remove(best)
    heapq.heapify(heap)
    return best[2]


class _ScanningTeam(_ProbedTeam):
    """The reference per-task team: every ready entry stays on the heap,
    a pick scans them all (:func:`_scanning_pop`), ``ready_count`` is
    the heap's length and ``wants_cores`` scans for a runnable entry."""

    @property
    def ready_count(self):
        return len(self._ready)

    @property
    def wants_cores(self):
        if self._graph is None or self._active < self._max_workers:
            return False
        return any(e[2].mutex_refs.isdisjoint(self._held_refs)
                   for e in self._ready)

    def _dispatch(self):
        engine = self.engine
        while self._active < self._max_workers and self._ready:
            task = _scanning_pop(self._ready, self._held_refs)
            if task is None:
                break
            self._held_refs |= task.mutex_refs
            self._active += 1
            self._stats.max_concurrency = max(self._stats.max_concurrency,
                                              self._active)
            exec_seconds = CORE.seconds(task.work) * self.slowdown
            engine.schedule_completion(engine.now + exec_seconds,
                                       engine.completion_key(),
                                       self._finish_task, task, exec_seconds)
        if (self._active >= self._max_workers and self._ready
                and not self._hungry_notified):
            self._hungry_notified = True
            self.listener.on_team_hungry(self)


class TestPickAgainstScanningReference:
    """The per-task pick, step by step, against a reference team whose
    pick scans every ready entry: the same dispatched task under the same
    key, the same ``ready_count`` and ``wants_cores`` after each finish,
    and the same hunger notifications, on drawn mutex graphs under every
    policy with capacity changes on finish instants.  The plan path
    shares the pick, so the plan-vs-per-task tests cannot see a pick
    change that moves both paths alike; this test can."""

    @staticmethod
    def _trace(team_class, spec, unit, workers, scheduler, epochs, probe):
        log = []
        eng = _LogDispatch(log)
        team = team_class(eng, workers, scheduler, probe)

        def change(cap):
            log.append(("epoch", eng.now, team.ready_count,
                        team.wants_cores))
            team.set_capacity(cap)
            log.append(("epoch", eng.now, team.ready_count,
                        team.wants_cores))

        for when, cap in epochs:
            eng.call_later(when, change, cap)
        eng.process(team.run(TestPlanEquivalence._mutex_graph(spec, unit)))
        eng.run()
        return log, team

    @settings(max_examples=150, deadline=None)
    @given(spec=MUTEX_SPECS,
           workers=st.integers(1, 6),
           scheduler=st.sampled_from(Team.SCHEDULERS),
           caps=st.lists(st.tuples(st.integers(0, 64), st.integers(1, 6)),
                         max_size=3),
           probe=st.integers(1, 3),
           unit=st.sampled_from([0.25, 0.2637]))
    def test_same_steps_as_scanning_pick(self, spec, workers, scheduler,
                                         caps, probe, unit):
        instants = TestPlanEquivalence._finish_instants(
            TestPlanEquivalence._mutex_graph(spec, unit), workers, scheduler)
        epochs = [(instants[pick % len(instants)], cap)
                  for pick, cap in caps]
        args = (spec, unit, workers, scheduler, epochs, probe)
        got, team = self._trace(_ProbedTeam, *args)
        want, _ = self._trace(_ScanningTeam, *args)
        assert got == want
        assert sum(e[0] == "dispatch" for e in got) == len(spec)
        assert team._lot == {} and team._ready == []
