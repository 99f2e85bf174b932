"""Unit tests for the malleable task-execution team."""

import pytest

from repro.core import DepType, Team, TaskGraph
from repro.core.runtime import RuntimeError_
from repro.machine import CoreModel, WorkSpec
from repro.sim import Engine


#: A convenient core: 1 GHz, IPC 1 => 1e9 instructions per second.
CORE = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0, out_of_order=True,
                 atomic_stall_cycles=0.0, mem_stall_cycles=0.0)

#: 1e9 instructions == 1 simulated second on CORE.
SEC = 1e9


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


class NullRecorder:
    """A recorder that keeps nothing: attaching it makes a team run its
    graphs task by task (plan mode engages only when no one observes
    per-task execution)."""

    def record(self, rank, category, label, t0, t1):
        pass


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

    def test_task_overhead_added(self):
        eng, _, stats = run_graph(simple_graph(2), nthreads=1,
                                  task_overhead_s=0.25)
        assert eng.now == pytest.approx(2.5)
        assert stats.overhead_seconds == pytest.approx(0.5)

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

    def test_recorder_sees_tasks(self):
        records = []

        class Rec:
            def record(self, rank, category, label, t0, t1):
                records.append((rank, category, label, t0, t1))

        run_graph(simple_graph(2), nthreads=1, rank=7, recorder=Rec())
        assert len(records) == 2
        assert all(r[0] == 7 and r[1] == "task" for r in records)


class TestPlanEquivalence:
    """Whole-graph plans vs the task-by-task path (the one DLB and traced
    runs take).

    Mid-run ``set_slowdown``/``set_capacity`` force a replan; the replayed
    prefix and the re-simulated suffix must land on exactly the per-task
    stats — not approximately: the same float expressions in the same
    order.
    """

    @staticmethod
    def _perturbed_run(graph_factory, script, recorder=None):
        eng = Engine()
        team = Team(eng, CORE, 2, recorder=recorder)
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
                s.overhead_seconds, s.t_start, s.t_end, s.max_concurrency)

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

        per_task = self._perturbed_run(graphs, script, NullRecorder())
        planned = self._perturbed_run(graphs, script)
        assert planned == per_task      # bit-exact, no approx
