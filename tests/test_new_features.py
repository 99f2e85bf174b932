"""Tests for scheduler policies, critical-path analysis, polydisperse
aerosols, and DLB lend policies."""

import numpy as np
import pytest

from repro.core import DepType, Team, TaskGraph
from repro.core.runtime import RuntimeError_
from repro.machine import CoreModel, WorkSpec
from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh
from repro.particles import (
    AirwayFlow,
    NewmarkTracker,
    STATUS_DEPOSITED,
    inject_at_inlet,
    lognormal_diameters,
    particle_mass,
)
from repro.sim import Engine
from tests.test_runtime import FinishHook

CORE = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0, out_of_order=True,
                 atomic_stall_cycles=0.0, mem_stall_cycles=0.0)
SEC = 1e9


def run_graph(graph, nthreads, scheduler):
    eng = Engine()
    team = Team(eng, CORE, nthreads, scheduler=scheduler)

    def prog():
        return (yield from team.run(graph))

    p = eng.process(prog())
    eng.run()
    return p.value


class TestSchedulers:
    def mixed_graph(self):
        # the big task is LAST in submission order: FIFO starts it late
        g = TaskGraph()
        for instr in (1 * SEC, 1 * SEC, 1 * SEC, 1 * SEC, 4 * SEC):
            g.add_task(WorkSpec(instr))
        return g

    def test_lpt_beats_fifo_on_skewed_sizes(self):
        """LPT pulls the 4s task forward: makespan 4 vs FIFO's 6."""
        t_lpt = run_graph(self.mixed_graph(), 2, "lpt").makespan
        t_fifo = run_graph(self.mixed_graph(), 2, "fifo").makespan
        assert t_lpt == pytest.approx(4.0)
        assert t_fifo == pytest.approx(6.0)

    def test_all_schedulers_complete_all_tasks(self):
        for scheduler in Team.SCHEDULERS:
            stats = run_graph(self.mixed_graph(), 2, scheduler)
            assert stats.tasks_run == 5
            assert stats.busy_seconds == pytest.approx(8.0)

    def test_lifo_takes_newest(self):
        g = TaskGraph()
        g.add_task(WorkSpec(SEC), label="old")
        g.add_task(WorkSpec(SEC), label="new")
        eng = Engine()
        order = []
        team = FinishHook(eng, CORE, 1, scheduler="lifo",
                          on_finish=lambda team, task:
                          order.append(task.label))

        def prog():
            return (yield from team.run(g))

        eng.process(prog())
        eng.run()
        assert order == ["new", "old"]

    def test_unknown_scheduler_rejected(self):
        eng = Engine()
        with pytest.raises(RuntimeError_):
            Team(eng, CORE, 1, scheduler="random")

    def test_schedulers_respect_mutexes(self):
        for scheduler in Team.SCHEDULERS:
            g = TaskGraph()
            g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: ["m"]})
            g.add_task(WorkSpec(SEC), depend={DepType.MUTEXINOUTSET: ["m"]})
            stats = run_graph(g, 4, scheduler)
            assert stats.max_concurrency == 1


class TestCriticalPath:
    def test_chain(self):
        g = TaskGraph()
        for _ in range(3):
            g.add_task(WorkSpec(10.0), depend={DepType.INOUT: ["x"]})
        length, path = g.critical_path()
        assert length == pytest.approx(30.0)
        assert path == [0, 1, 2]

    def test_independent_tasks(self):
        g = TaskGraph()
        g.add_task(WorkSpec(5.0))
        g.add_task(WorkSpec(9.0))
        length, path = g.critical_path()
        assert length == pytest.approx(9.0)
        assert path == [1]

    def test_diamond(self):
        g = TaskGraph()
        g.add_task(WorkSpec(1.0), depend={DepType.OUT: ["x"]})
        g.add_task(WorkSpec(10.0), depend={DepType.IN: ["x"],
                                           DepType.OUT: ["a"]})
        g.add_task(WorkSpec(2.0), depend={DepType.IN: ["x"],
                                          DepType.OUT: ["b"]})
        g.add_task(WorkSpec(1.0), depend={DepType.IN: ["a", "b"]})
        length, path = g.critical_path()
        assert length == pytest.approx(12.0)
        assert path == [0, 1, 3]

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.critical_path() == (0.0, [])

    def test_makespan_lower_bound(self):
        """No schedule can beat the critical path (engine property)."""
        g = TaskGraph()
        g.add_task(WorkSpec(2 * SEC), depend={DepType.OUT: ["x"]})
        g.add_task(WorkSpec(3 * SEC), depend={DepType.IN: ["x"]})
        g.add_task(WorkSpec(1 * SEC))
        stats = run_graph(g, 8, "lpt")
        length, _ = g.critical_path()
        assert stats.makespan >= length / (CORE.freq_ghz * 1e9) - 1e-12


class TestPolydisperse:
    @pytest.fixture(scope="class")
    def airway(self):
        return build_airway_mesh(AirwayConfig(generations=3),
                                 MeshResolution(points_per_ring=6))

    @pytest.fixture(scope="class")
    def flow(self, airway):
        return AirwayFlow(airway.segments)

    def test_lognormal_distribution_stats(self):
        d = lognormal_diameters(20000, median=4e-6, gsd=1.8, seed=1)
        assert np.median(d) == pytest.approx(4e-6, rel=0.05)
        gsd = np.exp(np.std(np.log(d)))
        assert gsd == pytest.approx(1.8, rel=0.05)
        assert (d > 0).all()

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            lognormal_diameters(-1)
        with pytest.raises(ValueError):
            lognormal_diameters(10, median=0.0)
        with pytest.raises(ValueError):
            lognormal_diameters(10, gsd=0.9)

    def test_particle_mass_array(self):
        d = np.array([1e-6, 2e-6])
        m = particle_mass(d, 1000.0)
        assert m[1] / m[0] == pytest.approx(8.0)

    def test_inject_polydisperse(self, airway, flow):
        d = lognormal_diameters(100, seed=2)
        state = inject_at_inlet(airway, flow, 100, diameters=d)
        np.testing.assert_array_equal(state.diameter, d)

    def test_inject_diameter_validation(self, airway, flow):
        with pytest.raises(ValueError):
            inject_at_inlet(airway, flow, 10, diameters=np.ones(5))
        with pytest.raises(ValueError):
            inject_at_inlet(airway, flow, 2, diameters=np.array([1e-6, -1e-6]))

    def test_polydisperse_tracking_stable(self, airway, flow):
        d = lognormal_diameters(300, median=6e-6, gsd=2.0, seed=3)
        state = inject_at_inlet(airway, flow, 300, seed=4, diameters=d)
        tracker = NewmarkTracker(flow)
        for _ in range(150):
            tracker.step(state, dt=1e-4)
        assert np.isfinite(state.x).all()
        assert np.isfinite(state.v).all()

    def test_bigger_particles_deposit_more(self, airway, flow):
        """Within one polydisperse population, the deposited particles are
        on average larger (inertial impaction + sedimentation)."""
        d = lognormal_diameters(800, median=8e-6, gsd=2.2, seed=5)
        state = inject_at_inlet(airway, flow, 800, seed=6, diameters=d)
        tracker = NewmarkTracker(flow)
        for _ in range(400):
            if state.n_active == 0:
                break
            tracker.step(state, dt=1e-4)
        deposited = state.status == STATUS_DEPOSITED
        if deposited.sum() < 20 or deposited.sum() > 780:
            pytest.skip("degenerate deposition split")
        assert (np.median(state.diameter[deposited])
                >= np.median(state.diameter[~deposited]) * 0.9)

    def test_extend_mixes_rejected(self, airway, flow):
        mono = inject_at_inlet(airway, flow, 10)
        poly = inject_at_inlet(airway, flow, 10,
                               diameters=np.full(10, 4e-6))
        with pytest.raises(ValueError):
            mono.extend(poly)

    def test_extend_concatenates_diameters(self, airway, flow):
        a = inject_at_inlet(airway, flow, 5, diameters=np.full(5, 1e-6))
        b = inject_at_inlet(airway, flow, 3, diameters=np.full(3, 2e-6))
        a.extend(b)
        assert a.n == 8
        assert a.diameter.shape == (8,)
        assert a.diameter[-1] == pytest.approx(2e-6)
