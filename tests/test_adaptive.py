"""Tests for the PR 9 adaptive time-stepping stack.

Covers the deterministic CFL controller and Δt ladder, the per-rung
operator cache behind ``FractionalStepSolver.dt`` (including the stale-Δt
regression the setter fixes), ``advance_to`` determinism across reruns, endpoint accuracy against a fine
fixed-Δt reference, the app-layer Δt schedules / local subcycling, the
driver's bit-identical replay of adaptive workloads, the campaign axis,
and the planned runtime's repeats-ordering contract.  The absolute Δt
walks and fields are pinned in ``tests/golden_digests.json``.
"""

import hashlib

import numpy as np
import pytest

from repro.app.driver import RunConfig, run_cfpd
from repro.app.workload import WorkloadSpec, get_workload
from repro.campaign import get_campaign
from repro.core import Team, TaskGraph
from repro.fem import FlowBC, FractionalStepSolver, element_sizes
from repro.fem.fractional_step import FLUID_COUNTERS
from repro.fem.geometry import geometry_blocks
from repro.fem.timestep import (CflController, DtLadder, cfl_rate,
                                element_cfl_rates)
from repro.machine import CoreModel, WorkSpec
from repro.mesh.airway import Segment
from repro.mesh.generator import MeshResolution, build_tube_mesh
from repro.sim import Engine
from tests.test_runtime import NullRecorder


@pytest.fixture(scope="module")
def tube():
    seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                  direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                  radius=0.01)
    mesh = build_tube_mesh(seg, MeshResolution(points_per_ring=8,
                                               max_sections=6))
    z = mesh.coords[:, 2]
    r = np.linalg.norm(mesh.coords[:, :2], axis=1)
    inlet = np.nonzero(np.isclose(z, 0.0) & (r < 0.0099))[0]
    outlet = np.nonzero(np.isclose(z, -0.04))[0]
    wall = np.nonzero(np.isclose(r, 0.01))[0]
    u_in = np.zeros((len(inlet), 3))
    # weak inflow so the CFL controller has headroom to climb rungs
    u_in[:, 2] = -0.25 * (1.0 - (r[inlet] / 0.01) ** 2)
    bc = FlowBC(inlet_nodes=inlet, inlet_velocity=u_in, wall_nodes=wall,
                outlet_nodes=outlet)
    return mesh, bc


# -- controller / ladder ----------------------------------------------------

class TestDtLadder:
    def test_rungs_and_quantize(self):
        ladder = DtLadder(dt_min=1e-4, dt_max=8e-4)
        assert ladder.top == 3
        assert ladder.dt_of(0) == 1e-4
        assert ladder.dt_of(3) == pytest.approx(8e-4)
        # clamped outside [0, top]
        assert ladder.dt_of(-5) == 1e-4
        assert ladder.dt_of(99) == pytest.approx(8e-4)
        assert ladder.rungs() == [ladder.dt_of(k) for k in range(4)]
        # coarsest rung not exceeding the target
        assert ladder.quantize(5e-4) == 2
        assert ladder.quantize(1e-3) == 3
        assert ladder.quantize(1.5e-4) == 0
        # below the bottom rung floors at 0 (never stalls)
        assert ladder.quantize(1e-5) == 0
        # the relative epsilon admits its own rung values exactly
        assert ladder.quantize(ladder.dt_of(1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DtLadder(dt_min=0.0, dt_max=1e-3)
        with pytest.raises(ValueError):
            DtLadder(dt_min=1e-3, dt_max=1e-4)
        with pytest.raises(ValueError):
            DtLadder(dt_min=1e-4, dt_max=8e-4, ratio=1.0)


class TestCflController:
    def test_drop_is_immediate_climb_has_hysteresis(self):
        control = CflController(cfl_target=0.9,
                                ladder=DtLadder(1e-4, 8e-4))
        top = control.ladder.top
        # violation: drop straight to the admissible rung
        assert control.rung_for(0.9 / 1e-4, top) == 0
        # zero rate targets dt_max: climb one rung at a time
        assert control.rung_for(0.0, 0) == 1
        assert control.rung_for(0.0, 1) == 2
        assert control.rung_for(0.0, top) == top
        # hysteresis: a target barely above the next rung does not climb
        rate = 0.9 / (2e-4 * 1.01)      # target = 1.01 * dt_of(1)
        assert control.rung_for(rate, 0) == 0
        rate = 0.9 / (2e-4 * 1.10)      # target = 1.10 * dt_of(1)
        assert control.rung_for(rate, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CflController(cfl_target=0.0)
        with pytest.raises(ValueError):
            CflController(climb_margin=0.99)


class TestCflRates:
    def test_rate_matches_elementwise_max(self, tube):
        mesh, bc = tube
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3)
        solver.run(2, tol=1e-6)
        blocks = geometry_blocks(mesh)
        rates = element_cfl_rates(solver.u, blocks, mesh.nelem)
        assert rates.shape == (mesh.nelem,)
        assert cfl_rate(solver.u, blocks) == rates.max()
        assert rates.max() > 0

    def test_element_sizes(self, tube):
        mesh, _ = tube
        h = element_sizes(mesh)
        assert h.shape == (mesh.nelem,)
        assert (h > 0).all()


# -- per-rung operator cache ------------------------------------------------

class TestRungCache:
    def test_counter_deltas(self, tube):
        mesh, bc = tube
        before = dict(FLUID_COUNTERS)
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3)
        assert FLUID_COUNTERS["dt_rung_rebuilds"] == \
            before["dt_rung_rebuilds"] + 1
        assert solver.rung_cache_size() == 1
        solver.dt = 1e-3                    # miss: new rung built
        assert FLUID_COUNTERS["dt_rung_misses"] == \
            before["dt_rung_misses"] + 1
        assert FLUID_COUNTERS["dt_rung_rebuilds"] == \
            before["dt_rung_rebuilds"] + 2
        assert solver.rung_cache_size() == 2
        solver.dt = 2e-3                    # hit: restored from the cache
        assert FLUID_COUNTERS["dt_rung_hits"] == before["dt_rung_hits"] + 1
        assert solver.rung_cache_size() == 2
        solver.dt = 2e-3                    # no-op: same value
        assert FLUID_COUNTERS["dt_rung_hits"] == before["dt_rung_hits"] + 1
        with pytest.raises(ValueError):
            solver.dt = 0.0
        with pytest.raises(ValueError):
            solver.dt = -1e-3

    @pytest.mark.parametrize("pressure_solver", ["cg", "deflated"])
    def test_stale_dt_regression(self, tube, pressure_solver):
        """Mutating ``dt`` mid-run must continue exactly like a fresh
        solver built at the new Δt and seeded with the same fields.

        This is the latent bug the property setter fixes: reassigning the
        old attribute left the recycled momentum operators (and the
        deflation setup) at the construction Δt.
        """
        mutated = FractionalStepSolver(mesh := tube[0], bc := tube[1],
                                       viscosity=1e-3, density=1.0,
                                       dt=2e-3,
                                       pressure_solver=pressure_solver)
        mutated.run(3, tol=1e-6)
        u_snap, p_snap = mutated.u.copy(), mutated.p.copy()
        mutated.dt = 1e-3
        infos_m = mutated.run(3, tol=1e-6)

        fresh = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                     dt=1e-3,
                                     pressure_solver=pressure_solver)
        fresh.u = u_snap.copy()
        fresh.p = p_snap.copy()
        infos_f = fresh.run(3, tol=1e-6)

        assert mutated.u.tobytes() == fresh.u.tobytes()
        assert mutated.p.tobytes() == fresh.p.tobytes()
        assert [(i.momentum_iterations, i.pressure_iterations)
                for i in infos_m] == \
            [(i.momentum_iterations, i.pressure_iterations)
             for i in infos_f]


# -- adaptive advance -------------------------------------------------------

def _advance_digest(mesh, bc, pressure_solver="cg"):
    control = CflController(ladder=DtLadder(dt_min=5e-4, dt_max=4e-3))
    solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                  dt=2e-3, pressure_solver=pressure_solver)
    infos = solver.advance_to(8e-3, control=control, tol=1e-5)
    h = hashlib.sha256()
    h.update(solver.u.tobytes())
    h.update(solver.p.tobytes())
    for i in infos:
        h.update(repr((i.momentum_iterations, i.pressure_iterations,
                       round(i.dt, 12), i.rung)).encode())
    return h.hexdigest(), infos


class TestAdvanceTo:
    def test_lands_exactly_on_t_end(self, tube):
        mesh, bc = tube
        _, infos = _advance_digest(mesh, bc)
        assert sum(i.dt for i in infos) == pytest.approx(8e-3, rel=1e-12)
        assert all(i.subcycles == 1 for i in infos)
        assert all(i.cfl > 0 for i in infos)
        # the adaptive run takes fewer steps than fixed dt=5e-4 would (16)
        assert len(infos) < 16

    def test_validation(self, tube):
        mesh, bc = tube
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3,
                                      density=1.0, dt=2e-3)
        with pytest.raises(ValueError):
            solver.advance_to(0.0)

    def test_rerun_replays_bit_identically(self, tube):
        """Same initial state ⇒ identical Δt sequence, rung walk, Krylov
        iteration counts and final fields."""
        mesh, bc = tube
        ref, _ = _advance_digest(mesh, bc)
        again, _ = _advance_digest(mesh, bc)
        assert again == ref

    def test_deterministic_deflated(self, tube):
        mesh, bc = tube
        ref, _ = _advance_digest(mesh, bc, "deflated")
        got, _ = _advance_digest(mesh, bc, "deflated")
        assert got == ref

    def test_endpoint_accuracy_vs_fine_reference(self, tube):
        """From a developed state, the adaptive endpoint tracks the fine
        fixed-Δt reference within the documented tolerance (the bench gate
        uses the same bound on the larger mesh)."""
        mesh, bc = tube
        spinup = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=4e-3)
        spinup.run(120, tol=1e-6)
        u0, p0 = spinup.u.copy(), spinup.p.copy()

        def from_snapshot(dt):
            s = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                     dt=dt)
            s.u, s.p = u0.copy(), p0.copy()
            return s

        fine = from_snapshot(5e-4)
        fine.run(16, tol=1e-6)
        adaptive = from_snapshot(5e-4)
        control = CflController(ladder=DtLadder(dt_min=5e-4, dt_max=4e-3))
        infos = adaptive.advance_to(16 * 5e-4, control=control, tol=1e-6)
        assert len(infos) < 16
        err = np.linalg.norm(adaptive.u - fine.u) / np.linalg.norm(fine.u)
        assert err < 0.05


# -- app-layer schedules ----------------------------------------------------

class TestWorkloadSchedules:
    SPEC = dict(generations=2, points_per_ring=6, n_steps=8)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(adaptive="bogus")
        with pytest.raises(ValueError):
            WorkloadSpec(inlet_waveform="bogus")
        with pytest.raises(ValueError):
            WorkloadSpec(cfl_target=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(dt_ladder_rungs=0)
        with pytest.raises(ValueError):
            WorkloadSpec(dt_ladder_ratio=1.0)

    def test_off_mode_is_the_fixed_schedule(self):
        spec = WorkloadSpec(**self.SPEC)
        wl = get_workload(spec)
        sched = wl.dt_schedule()
        assert wl.n_sim_steps == spec.n_steps
        assert all(plan.dt == spec.dt for plan in sched)
        assert all(plan.rung == -1 for plan in sched)
        assert [plan.t for plan in sched] == \
            [s * spec.dt for s in range(spec.n_steps)]
        assert wl.injection_step_set() == set(spec.injection_steps())

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_adaptive_schedule_reaches_t_end(self, mode):
        spec = WorkloadSpec(adaptive=mode, inlet_waveform="sine",
                            **self.SPEC)
        wl = get_workload(spec)
        sched = wl.dt_schedule()
        assert sum(plan.dt for plan in sched) == \
            pytest.approx(spec.t_end, rel=1e-9)
        assert wl.n_sim_steps < spec.n_steps
        # injection steps land inside the schedule
        assert all(0 <= i < wl.n_sim_steps
                   for i in wl.injection_step_set())
        # cached and deterministic
        assert wl.dt_schedule() is sched

    def test_local_subcycles(self):
        spec = WorkloadSpec(adaptive="local", inlet_waveform="sine",
                            **self.SPEC)
        wl = get_workload(spec)
        sub = wl.subcycle_matrix(4)
        assert sub.shape == (wl.n_sim_steps, 4)
        assert sub.dtype == np.int64
        assert (sub >= 1).all()
        assert np.array_equal(sub, wl.subcycle_matrix(4))
        summary = wl.schedule_summary(nranks=4)
        for key in ("mode", "waveform", "n_sim_steps", "fixed_steps",
                    "steps_saved", "t_end", "dt_values", "max_cfl",
                    "h_min", "subcycles_total", "subcycles_max",
                    "subcycle_imbalance"):
            assert key in summary
        assert summary["mode"] == "local"
        assert summary["subcycles_total"] >= sub.shape[0] * sub.shape[1]

    def test_off_mode_subcycles_all_ones(self):
        wl = get_workload(WorkloadSpec(**self.SPEC))
        assert (wl.subcycle_matrix(4) == 1).all()


# -- driver replay ----------------------------------------------------------

def _run_digest(spec):
    cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=8)
    result = run_cfpd(cfg, spec=spec)
    h = hashlib.sha256()
    for s in result.phase_log.samples:
        h.update(repr((s.step, s.rank, s.phase, s.t0, s.t1,
                       s.busy, s.instructions)).encode())
    h.update(repr(result.total_time).encode())
    h.update(repr(result.deposition).encode())
    h.update(repr(result.solver_info).encode())
    return h.hexdigest(), result


class TestDriverAdaptive:
    SPEC = WorkloadSpec(generations=2, points_per_ring=6, n_steps=4,
                        adaptive="local", inlet_waveform="sine")

    def test_adaptive_run_replays_bit_identically(self):
        ref, result = _run_digest(self.SPEC)
        again, _ = _run_digest(self.SPEC)
        assert again == ref
        diag = result.adaptive_diag
        assert diag["mode"] == "local"
        assert diag["n_sim_steps"] < self.SPEC.n_steps
        assert diag["subcycles_total"] >= diag["n_sim_steps"]

    def test_fixed_run_has_no_adaptive_diag_mode_on(self):
        _, result = _run_digest(WorkloadSpec(generations=2,
                                             points_per_ring=6, n_steps=4))
        assert result.adaptive_diag.get("mode", "off") == "off"


# -- campaign axis ----------------------------------------------------------

class TestCampaignAxis:
    def test_adaptive_dlb_grid_expansion(self):
        camp = get_campaign("adaptive-dlb")
        jobs = camp.expand()
        cells = {(job.spec.adaptive, job.config.dlb) for job in jobs}
        assert cells == {("off", False), ("off", True),
                         ("local", False), ("local", True)}
        assert all(job.spec.inlet_waveform == "sine" for job in jobs)


# -- planned runtime: repeats ordering --------------------------------------

CORE = CoreModel(name="unit", freq_ghz=1.0, base_ipc=1.0, out_of_order=True,
                 atomic_stall_cycles=0.0, mem_stall_cycles=0.0)
SEC = 1e9


def _tied_completion_order(recorder=None):
    """Two teams finishing at the same simulated time, with different
    repeat structure: A runs a 4-task graph twice, B runs an 8-task graph
    once (same total work, both on 2 threads ⇒ both end at t=4).

    The completion order of this tie is the per-task runtime's dispatch
    genealogy; planned execution must reproduce it even though A's final
    completion comes from a repeated plan.  A ``recorder`` forces the
    per-task path.
    """
    eng = Engine()
    team_a = Team(eng, CORE, 2, name="A", recorder=recorder)
    team_b = Team(eng, CORE, 2, name="B", recorder=recorder)
    order = []

    def graph(n):
        g = TaskGraph()
        for _ in range(n):
            g.add_task(WorkSpec(SEC))
        return g

    def run(team, g, repeats):
        def prog():
            stats = yield from team.run(g, repeats=repeats)
            order.append((team.name, eng.now, stats.tasks_run,
                          stats.busy_seconds, stats.t_end))
        eng.process(prog())

    run(team_a, graph(4), 2)
    run(team_b, graph(8), 1)
    eng.run()
    assert len(order) == 2
    assert order[0][1] == order[1][1]       # genuinely a tie
    return order


class TestBatchedRepeatsOrdering:
    def test_tie_order_matches_scalar_runtime(self):
        per_task = _tied_completion_order(NullRecorder())
        planned = _tied_completion_order()
        assert planned == per_task

    @pytest.mark.parametrize("repeats", [2, 3, 4])
    def test_repeated_plan_stats_match_scalar(self, repeats):
        """The k-repeat plan's aggregate stats replicate the per-task
        left-fold ``+=`` accumulation bit for bit (not ``k * x``, which
        rounds differently for k >= 3)."""
        g = TaskGraph()
        for instr in (SEC / 3, SEC / 7, SEC / 11):
            g.add_task(WorkSpec(instr))

        def run_once(recorder=None):
            eng = Engine()
            team = Team(eng, CORE, 2, recorder=recorder)
            out = {}

            def prog():
                out["stats"] = yield from team.run(g, repeats=repeats)
            eng.process(prog())
            eng.run()
            s = out["stats"]
            return (eng.now, s.tasks_run, s.busy_seconds,
                    s.instructions, s.overhead_seconds, s.t_end)

        assert run_once() == run_once(NullRecorder())
