"""Tests for the PR 10 co-simulation stack (`repro.cosim` + coupling).

Covers the 0D lung/ventilator model (eager validation, closed-form
phases, conservation of the Euler trace), the buffered co-simulation hub
(receive/transform/forward, hold vs interp staleness policies, cyclic
queries, pure transfer summaries, hub caching), the `WorkloadSpec`
breathing waveform family (validation satellites, `waveform_scale` edge
cases at exact phase boundaries / beyond `t_end` / on the clipped
off-ladder final step, inhale-gated injection), the tracker's carrier
`flow_scale`, the fluid solver's hub-driven inlet rescale, the driver's
`cosim_diag`, and the `adaptive`/`cosim` metrics of a campaign job
record.  The absolute ventilator-run digests and hub-driven tube-flow
walks are pinned in ``tests/golden_digests.json``.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.app import BREATHING_WAVEFORMS, INLET_WAVEFORMS
from repro.app.driver import RunConfig, run_cfpd
from repro.app.workload import WorkloadSpec, get_workload
from repro.cosim import (
    BREATHING_PHASES,
    SCALE_FLOOR,
    BreathingPattern,
    CosimHub,
    HubPolicy,
    LungModel,
    VentilatorSettings,
    hub_for,
    simulate_breathing,
)
from repro.fem import FlowBC, FractionalStepSolver
from repro.mesh.airway import Segment
from repro.mesh.generator import MeshResolution, build_tube_mesh
from repro.particles import (
    FluidProperties,
    NewmarkTracker,
    ParticleProperties,
    ParticleState,
    inject_at_inlet,
)
#: a small ventilator-coupled spec exercising every cosim path: hub
#: forwarding, inhale-gated injection, the CFL ladder on the transient
VENT_SPEC = WorkloadSpec(generations=2, points_per_ring=6, n_steps=16,
                         inlet_waveform="ventilator",
                         injection_phase="inhale", injection_interval=4,
                         adaptive="global", dt_ladder_rungs=2)


# -- 0D model ----------------------------------------------------------------

class TestLungModel:
    def test_derived_quantities(self):
        lung = LungModel(r_aw=3.0, c_rs=60.0)
        assert lung.resistance == pytest.approx(0.003)
        assert lung.time_constant == pytest.approx(0.18)

    def test_validation(self):
        with pytest.raises(ValueError):
            LungModel(r_aw=0.0)
        with pytest.raises(ValueError):
            LungModel(c_rs=-1.0)


class TestVentilatorSettings:
    def test_derived_quantities(self):
        vent = VentilatorSettings(tidal_volume=350.0, respiratory_rate=15.0,
                                  inspiratory_time=1.0,
                                  inspiratory_pause=0.25)
        assert vent.cycle_time == pytest.approx(4.0)
        assert vent.expiratory_time == pytest.approx(2.75)
        assert vent.inspiratory_flow == pytest.approx(350.0)

    @pytest.mark.parametrize("kwargs", [
        {"tidal_volume": 0.0},
        {"tidal_volume": -10.0},
        {"respiratory_rate": 0.0},
        {"respiratory_rate": -5.0},
        {"inspiratory_time": 0.0},
        {"inspiratory_time": -1.0},
        {"inspiratory_pause": -0.1},
        {"peep": -1.0},
        {"cpap": -0.5},
        # inhale + pause fill the whole 60/20=3 s cycle: no room to exhale
        {"respiratory_rate": 20.0, "inspiratory_time": 2.5,
         "inspiratory_pause": 0.5},
    ])
    def test_eager_validation(self, kwargs):
        with pytest.raises(ValueError):
            VentilatorSettings(**kwargs)


class TestBreathingPattern:
    def test_phase_at_exact_boundaries(self):
        p = BreathingPattern()
        t_i = p.ventilator.inspiratory_time
        t_ip = p.ventilator.inspiratory_pause
        cycle = p.ventilator.cycle_time
        assert p.phase_at(0.0) == ("inhale", 0.0)
        assert p.phase_at(t_i) == ("pause", 0.0)
        assert p.phase_at(t_i + t_ip) == ("exhale", 0.0)
        # exact cycle boundary wraps back to inhale start
        name, s = p.phase_at(cycle)
        assert name == "inhale" and s == pytest.approx(0.0, abs=1e-12)
        # negative times wrap too
        assert p.phase_at(-0.5 * cycle)[0] == p.phase_at(0.5 * cycle)[0]

    def test_flow_shape(self):
        p = BreathingPattern()
        t_i = p.ventilator.inspiratory_time
        t_ip = p.ventilator.inspiratory_pause
        assert p.flow_at(0.5 * t_i) == pytest.approx(p.inhale_flow)
        assert p.flow_at(t_i + 0.5 * t_ip) == 0.0
        # exhale: negative, decaying toward zero
        q0 = p.flow_at(t_i + t_ip)
        q1 = p.flow_at(t_i + t_ip + 3 * p.lung.time_constant)
        assert q0 == pytest.approx(-p.exhale_flow0)
        assert q0 < q1 < 0.0

    def test_volume_continuity(self):
        p = BreathingPattern()
        t_i = p.ventilator.inspiratory_time
        t_ip = p.ventilator.inspiratory_pause
        assert p.volume_at(t_i) == pytest.approx(p.end_volume)
        assert p.volume_at(t_i + t_ip) == pytest.approx(p.end_volume)
        # the residual at end-expiration is exp(-t_e/tau) of V_end: tiny
        residual = p.volume_at(p.ventilator.cycle_time - 1e-12)
        assert residual < 1e-4 * p.end_volume

    def test_scale_floor_and_peak(self):
        p = BreathingPattern()
        # defaults: passive exhalation peaks above the driver flow
        assert p.peak_flow == pytest.approx(p.exhale_flow0)
        assert p.scale_at(0.0) == pytest.approx(p.inhale_flow / p.peak_flow)
        # late exhale decays below the floor: clamped
        t_late = p.ventilator.cycle_time - 1e-6
        assert p.scale_at(t_late) == SCALE_FLOOR
        # pause has zero flow: floored too
        assert p.scale_at(p.ventilator.inspiratory_time) == SCALE_FLOOR

    def test_next_inhale_start(self):
        p = BreathingPattern()
        cycle = p.ventilator.cycle_time
        assert p.next_inhale_start(0.3) == 0.3          # already inhaling
        assert p.next_inhale_start(2.0) == pytest.approx(cycle)
        assert p.next_inhale_start(cycle + 2.0) == pytest.approx(2 * cycle)

    def test_cpap_defeating_exhalation_rejected(self):
        # with t_i < tau the CPAP support flow cannot build enough recoil
        # volume during inspiration: V_end/C stays below CPAP and there
        # is no pressure gradient to exhale against
        with pytest.raises(ValueError, match="cpap"):
            BreathingPattern(ventilator=VentilatorSettings(
                inspiratory_time=0.1, cpap=20.0))


class TestSimulateBreathing:
    def test_deterministic_and_shapes(self):
        p = BreathingPattern()
        a = simulate_breathing(p, n_cycles=2, samples_per_cycle=128)
        b = simulate_breathing(p, n_cycles=2, samples_per_cycle=128)
        assert a.duration == pytest.approx(2 * p.ventilator.cycle_time)
        assert len(a.flow) == 256
        for name in ("t", "flow", "volume", "pressure", "phase"):
            assert (getattr(a, name) == getattr(b, name)).all()

    def test_trace_tracks_analytic_model(self):
        p = BreathingPattern()
        trace = simulate_breathing(p, samples_per_cycle=2048)
        exact = np.array([p.volume_at(t) for t in trace.t])
        err = np.abs(trace.volume - exact).max()
        assert err < 0.01 * p.end_volume
        exact_p = np.array([p.pressure_at(t) for t in trace.t])
        assert np.abs(trace.pressure - exact_p).max() < 0.01 * exact_p.max()
        assert trace.peak_flow == pytest.approx(p.peak_flow, rel=0.05)
        # phase indices follow the cycle order
        assert trace.phase[0] == BREATHING_PHASES.index("inhale")
        assert trace.phase[-1] == BREATHING_PHASES.index("exhale")

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_breathing(BreathingPattern(), n_cycles=0)
        with pytest.raises(ValueError):
            simulate_breathing(BreathingPattern(), samples_per_cycle=4)


# -- hub ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def trace():
    return simulate_breathing(BreathingPattern(), n_cycles=2,
                              samples_per_cycle=512)


class TestHubPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HubPolicy(window=0)
        with pytest.raises(ValueError):
            HubPolicy(mode="extrapolate")
        with pytest.raises(ValueError):
            HubPolicy(floor=1.0)
        with pytest.raises(ValueError):
            HubPolicy(floor=-0.1)


class TestCosimHub:
    def test_receive_transform(self, trace):
        hub = CosimHub(trace, HubPolicy(window=16))
        assert hub.n_windows == math.ceil(len(trace.flow) / 16)
        assert hub.window_dt == pytest.approx(16 * trace.dt)
        assert (hub.scales >= SCALE_FLOOR).all()
        assert (hub.scales <= 1.0 + 1e-12).all()

    def test_hold_forwards_last_completed_window(self, trace):
        hub = CosimHub(trace, HubPolicy(window=16, mode="hold"))
        # mid window k: the forwarded value is window k-1's scale
        t = 2.5 * hub.window_dt
        assert hub.scale_at(t) == pytest.approx(float(hub.scales[1]))
        # the first window bootstraps itself
        assert hub.scale_at(0.0) == pytest.approx(float(hub.scales[0]))

    def test_interp_between_centers(self, trace):
        hub = CosimHub(trace, HubPolicy(window=16, mode="interp"))
        # exactly at a window center the interpolant hits the window scale
        t = float(hub._centers[3])
        assert hub.scale_at(t) == pytest.approx(float(hub.scales[3]))
        mid = 0.5 * float(hub._centers[3] + hub._centers[4])
        expected = 0.5 * float(hub.scales[3] + hub.scales[4])
        assert hub.scale_at(mid) == pytest.approx(expected)

    def test_cyclic_queries(self, trace):
        for mode in ("hold", "interp"):
            hub = CosimHub(trace, HubPolicy(mode=mode))
            for t in (0.1, 1.7, 3.9):
                assert hub.scale_at(t + hub.duration) == \
                    pytest.approx(hub.scale_at(t))
                assert hub.scale_at(t) > 0.0

    def test_time_scale_maps_solver_time(self, trace):
        hub1 = CosimHub(trace, time_scale=1.0)
        hub100 = CosimHub(trace, time_scale=100.0)
        assert hub100.scale_at(0.01) == pytest.approx(hub1.scale_at(1.0))
        with pytest.raises(ValueError):
            CosimHub(trace, time_scale=0.0)

    def test_staleness(self, trace):
        hold = CosimHub(trace, HubPolicy(window=16, mode="hold"))
        # hold: age grows within a window, resets at the next boundary
        t0 = 2.0 * hold.window_dt
        assert hold.staleness(t0) == pytest.approx(0.0, abs=1e-12)
        assert hold.staleness(t0 + 0.5 * hold.window_dt) == \
            pytest.approx(0.5 * hold.window_dt)
        interp = CosimHub(trace, HubPolicy(window=16, mode="interp"))
        times = np.linspace(0.0, interp.duration * 0.99, 37)
        assert max(interp.staleness(t) for t in times) <= \
            0.5 * interp.window_dt + 1e-12

    def test_transfer_summary_is_pure(self, trace):
        hub = CosimHub(trace)
        times = [0.0, 0.5, 1.0, 2.5]
        a = hub.transfer_summary(times)
        b = hub.transfer_summary(times)
        assert a == b
        assert a["forwards"] == 4
        assert a["windows"] == hub.n_windows
        assert a["forward_scale_min"] >= SCALE_FLOOR
        assert a["staleness_max"] >= a["staleness_mean"] >= 0.0
        # the summary is a schedule property: extra live queries between
        # the two calls must not change it (no hidden counters)
        hub.scale_at(1.23)
        assert hub.transfer_summary(times) == a

    def test_hub_for_caches_by_value(self):
        p = BreathingPattern()
        a = hub_for(p, n_cycles=1, horizon=2e-3)
        b = hub_for(BreathingPattern(), n_cycles=1, horizon=2e-3)
        assert a is b                     # frozen pattern: value-keyed hit
        c = hub_for(p, n_cycles=1, horizon=4e-3)
        assert c is not a
        assert a.time_scale == pytest.approx(
            p.ventilator.cycle_time / 2e-3)
        with pytest.raises(ValueError):
            hub_for(p, n_cycles=1, horizon=0.0)

    def test_hub_for_keys_trace_and_scale_on_one_integer(self):
        p = BreathingPattern()
        two = hub_for(p, n_cycles=2, horizon=2e-3)
        assert hub_for(p, n_cycles=2.0, horizon=2e-3) is two
        assert two.time_scale == pytest.approx(
            2 * p.ventilator.cycle_time / 2e-3)
        assert two.duration == pytest.approx(2 * p.ventilator.cycle_time)
        with pytest.raises(ValueError, match="n_cycles"):
            hub_for(p, n_cycles=2.5, horizon=2e-3)


# -- WorkloadSpec: breathing family -----------------------------------------

class TestSpecValidation:
    def test_waveform_error_enumerates_all_modes(self):
        with pytest.raises(ValueError) as err:
            WorkloadSpec(inlet_waveform="square")
        message = str(err.value)
        for mode in INLET_WAVEFORMS:
            assert f"'{mode}'" in message
        assert "square" in message

    @pytest.mark.parametrize("kwargs", [
        {"respiratory_rate": 0.0},
        {"respiratory_rate": -12.0},
        {"tidal_volume": 0.0},
        {"tidal_volume": -400.0},
        {"inspiratory_time": 0.0},
        {"inspiratory_time": -1.0},
        {"inspiratory_pause": -0.1},
        {"cpap": -1.0},
        {"breathing_cycles": 0},
        {"injection_phase": "exhale"},
        {"particle_diameter": 0.0},
        # the hub cache keys on whole cycles: a fractional count shared
        # (and poisoned) the hub of its integer neighbour
        {"breathing_cycles": 1.5},
        {"breathing_cycles": 2.0},
    ])
    def test_eager_field_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(**kwargs)

    def test_gating_requires_breathing_waveform(self):
        with pytest.raises(ValueError, match="injection_phase"):
            WorkloadSpec(injection_phase="inhale")
        for wf in BREATHING_WAVEFORMS:
            WorkloadSpec(inlet_waveform=wf, injection_phase="inhale")

    def test_cross_field_validation_is_eager_for_breathing(self):
        # inconsistent ventilator timing only matters once a breathing
        # waveform asks for the pattern — then it fails at spec build
        bad = {"respiratory_rate": 20.0, "inspiratory_time": 2.5,
               "inspiratory_pause": 0.5}
        WorkloadSpec(**bad)               # steady: fields are inert
        with pytest.raises(ValueError):
            WorkloadSpec(inlet_waveform="breathing", **bad)


class TestWaveformScale:
    def test_exact_phase_boundaries(self):
        spec = WorkloadSpec(inlet_waveform="breathing", n_steps=16)
        pattern = spec.breathing_pattern()
        ts = spec.breathing_time_scale
        t_i = pattern.ventilator.inspiratory_time
        # inhale start and interior: the constant inspiratory scale
        inhale_scale = pattern.inhale_flow / pattern.peak_flow
        assert spec.waveform_scale(0.0) == pytest.approx(inhale_scale)
        assert spec.waveform_scale(0.5 * t_i / ts) == \
            pytest.approx(inhale_scale)
        # pause start (exact boundary): zero flow, floored
        assert spec.waveform_scale(t_i / ts) == SCALE_FLOOR

    @pytest.mark.parametrize("waveform", BREATHING_WAVEFORMS)
    def test_beyond_t_end_wraps_cyclically(self, waveform):
        spec = WorkloadSpec(inlet_waveform=waveform, n_steps=16)
        for t in (0.2 * spec.t_end, 0.7 * spec.t_end):
            assert spec.waveform_scale(spec.t_end + t) == \
                pytest.approx(spec.waveform_scale(t))

    def test_scale_bounded(self):
        for waveform in BREATHING_WAVEFORMS:
            spec = WorkloadSpec(inlet_waveform=waveform, n_steps=16)
            scales = [spec.waveform_scale(t)
                      for t in np.linspace(0.0, spec.t_end, 50)]
            assert min(scales) >= SCALE_FLOOR
            assert max(scales) <= 1.0 + 1e-12

    def test_clipped_final_step_with_time_varying_waveform(self):
        wl = get_workload(VENT_SPEC)
        plans = wl.dt_schedule()
        spec = wl.spec
        # the schedule lands exactly on t_end
        assert sum(p.dt for p in plans) == pytest.approx(spec.t_end,
                                                         rel=1e-12)
        assert plans[-1].t + plans[-1].dt == pytest.approx(spec.t_end,
                                                           rel=1e-12)
        # every step's scale — including the clipped off-ladder final one
        # — is the waveform evaluated at the step start
        for plan in plans:
            assert plan.scale == pytest.approx(spec.waveform_scale(plan.t))
        rungs = {p.rung for p in plans}
        assert rungs - {-1}, "transient should keep some steps on-ladder"


class TestFixedStepWaveform:
    """A fixed-Δt (``adaptive="off"``) breathing-family run reads its
    waveform once per step; the other waveforms keep unit steps."""

    SMALL = dict(generations=2, points_per_ring=6, n_steps=8,
                 adaptive="off")

    @pytest.mark.parametrize("waveform,owner", [
        ("ventilator", CosimHub), ("breathing", BreathingPattern)])
    def test_breathing_family_reads_its_waveform_once_per_step(
            self, monkeypatch, waveform, owner):
        from repro.app.workload import Workload

        spec = WorkloadSpec(inlet_waveform=waveform, **self.SMALL)
        wl = Workload(spec)
        wl.element_rates()
        calls = []
        inner = owner.scale_at

        def counted(self, t):
            calls.append(t)
            return inner(self, t)

        monkeypatch.setattr(owner, "scale_at", counted)
        plans = wl.dt_schedule()
        assert len(calls) == spec.n_steps == len(plans)
        for s, plan in enumerate(plans):
            assert plan.t == s * spec.dt and plan.dt == spec.dt
            assert plan.scale == spec.waveform_scale(plan.t)
        assert len({plan.scale for plan in plans}) > 1

    @pytest.mark.parametrize("waveform", ["steady", "ramp", "sine"])
    def test_other_waveforms_keep_unit_scale(self, waveform):
        wl = get_workload(WorkloadSpec(inlet_waveform=waveform,
                                       **self.SMALL))
        assert {plan.scale for plan in wl.dt_schedule()} == {1.0}


class TestInjectionGating:
    def test_ungated_off_mode_unchanged(self):
        spec = WorkloadSpec(generations=2, points_per_ring=6, n_steps=8,
                            injection_interval=2)
        wl = get_workload(spec)
        assert wl.injection_step_set() == set(spec.injection_steps())

    def test_gated_injections_land_in_inhale_windows(self):
        spec = WorkloadSpec(generations=2, points_per_ring=6, n_steps=16,
                            inlet_waveform="breathing",
                            injection_phase="inhale", injection_interval=2,
                            breathing_cycles=2)
        wl = get_workload(spec)
        pattern = spec.breathing_pattern()
        steps = wl.injection_step_set()
        assert steps, "gating must keep at least the t=0 injection"
        # fewer injections than nominal: late-cycle ones were dropped
        assert len(steps) < len(spec.injection_steps())
        plans = wl.dt_schedule()
        eps = 1e-9 * pattern.ventilator.cycle_time
        for s in steps:
            tb = spec.breathing_time(plans[s].t)
            name, _ = pattern.phase_at(tb + eps)
            assert name == "inhale"

    def test_gated_drops_windows_beyond_t_end(self):
        # one cycle, one late nominal injection: its next inhale start is
        # t_end itself, so it must be dropped, not wrapped
        spec = WorkloadSpec(generations=2, points_per_ring=6, n_steps=16,
                            inlet_waveform="breathing",
                            injection_phase="inhale",
                            injection_interval=12)
        wl = get_workload(spec)
        assert wl.injection_step_set() == {0}


# -- carrier-flow coupling ---------------------------------------------------

class TestTrackerFlowScale:
    @pytest.fixture(scope="class")
    def setup(self):
        wl = get_workload(WorkloadSpec(generations=2, points_per_ring=6))
        tracker = NewmarkTracker(wl.flow, particles=ParticleProperties(),
                                 fluid=FluidProperties())
        return wl, tracker

    def _stepped(self, setup, n=5, **kwargs):
        wl, tracker = setup
        state = ParticleState.empty()
        state.extend(inject_at_inlet(wl.airway, wl.flow, 32, seed=7))
        for _ in range(n):
            tracker.step(state, 1e-4, **kwargs)
        return state

    def test_unit_scale_is_the_default_path(self, setup):
        a = self._stepped(setup)
        b = self._stepped(setup, flow_scale=1.0)
        assert (a.x == b.x).all() and (a.v == b.v).all()

    def test_scaled_carrier_changes_transport(self, setup):
        a = self._stepped(setup)
        b = self._stepped(setup, flow_scale=0.2)
        assert not (a.x == b.x).all()
        # weaker carrier: particles travel less far from the inlet
        assert np.linalg.norm(b.v) < np.linalg.norm(a.v)


class TestInletRescale:
    @pytest.fixture(scope="class")
    def tube(self):
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
        u_in[:, 2] = -1.0 * (1.0 - (r[inlet] / 0.01) ** 2)
        bc = FlowBC(inlet_nodes=inlet, inlet_velocity=u_in,
                    wall_nodes=wall, outlet_nodes=outlet)
        return mesh, bc, inlet, u_in

    def _solver(self, tube):
        mesh, bc, _, _ = tube
        return FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                    dt=1e-3)

    def test_constant_scale_imposed_on_inlet_dofs(self, tube):
        mesh, bc, inlet, u_in = tube
        solver = self._solver(tube)
        infos = solver.advance_to(3e-3, inlet_scale=lambda t: 0.5,
                                  tol=1e-6)
        assert [i.inlet_scale for i in infos] == [0.5] * len(infos)
        # an unchanged scale re-binds once, not per step
        assert solver.counters["inlet_rescales"] == 1
        u = solver.u.reshape(-1, 3)
        assert np.allclose(u[inlet], 0.5 * u_in)

    def test_hub_driven_scale_recorded_per_step(self, tube):
        pattern = BreathingPattern()
        hub = hub_for(pattern, n_cycles=1, horizon=4e-3)
        solver = self._solver(tube)
        infos = solver.advance_to(4e-3, inlet_scale=hub.scale_at, tol=1e-6)
        assert [i.inlet_scale for i in infos] == \
            [pytest.approx(hub.scale_at(t)) for t in
             np.cumsum([0.0] + [i.dt for i in infos[:-1]])]

    def test_set_inlet_scale_validation(self, tube):
        solver = self._solver(tube)
        with pytest.raises(ValueError):
            solver.set_inlet_scale(0.0)


# -- driver / determinism matrix --------------------------------------------

def _run_digest(spec):
    cfg = RunConfig(cluster="thunder", num_nodes=1, nranks=4)
    result = run_cfpd(cfg, spec=spec)
    h = hashlib.sha256()
    for s in result.phase_log.samples:
        h.update(repr((s.step, s.rank, s.phase, s.t0, s.t1,
                       s.busy, s.instructions)).encode())
    h.update(repr(result.total_time).encode())
    h.update(repr(result.deposition).encode())
    h.update(repr(sorted(result.cosim_diag)).encode())
    h.update(repr(result.cosim_diag.get("deposited_by_cycle")).encode())
    return h.hexdigest(), result


class TestDriverCosim:
    def test_cosim_diag_contents(self):
        _, result = _run_digest(VENT_SPEC)
        diag = result.cosim_diag
        assert diag["waveform"] == "ventilator"
        assert diag["pattern"]["cycle_time"] == pytest.approx(4.0)
        assert sum(diag["steps_by_phase"].values()) == diag["n_sim_steps"]
        assert set(diag["steps_by_phase"]) == set(BREATHING_PHASES)
        assert diag["injection_phase_policy"] == "inhale"
        assert set(diag["injection_phases"]) <= {"inhale"}
        assert diag["total_injected"] > 0
        assert diag["deposited"] + diag["escaped"] + diag["active"] == \
            diag["total_injected"]
        assert len(diag["deposited_by_cycle"]) == \
            VENT_SPEC.breathing_cycles
        hub = diag["hub"]
        assert hub["forwards"] == diag["n_sim_steps"]
        assert hub["staleness_max"] >= 0.0

    def test_steady_run_has_no_cosim_diag(self):
        _, result = _run_digest(WorkloadSpec(generations=2,
                                             points_per_ring=6, n_steps=2))
        assert result.cosim_diag == {}

    @pytest.mark.parametrize("spec", [
        VENT_SPEC, dataclasses.replace(VENT_SPEC, adaptive="local")],
        ids=["global", "local"])
    def test_cosim_summary_in_campaign_metrics(self, spec):
        from repro.campaign import Job
        from repro.campaign.runner import run_job

        job = Job(index=0, campaign="t", config=RunConfig(
            cluster="thunder", num_nodes=1, nranks=4), spec=spec)
        record = run_job(job)
        cosim = record["metrics"]["cosim"]
        assert cosim["waveform"] == "ventilator"
        assert cosim["total_injected"] > 0
        assert 0.0 <= cosim["deposition_fraction"] <= 1.0
        assert cosim["hub"]["staleness_max"] >= 0.0
        adaptive = record["metrics"]["adaptive"]
        assert adaptive["mode"] == spec.adaptive
        assert adaptive["n_sim_steps"] == cosim["n_sim_steps"]
        if spec.adaptive == "local":
            # every rank runs at least once per global step
            assert adaptive["subcycles_max"] >= 1
            assert adaptive["subcycles_total"] >= \
                adaptive["n_sim_steps"] * job.config.nranks
            assert adaptive["subcycle_imbalance"] >= 1.0
        else:
            assert "subcycles_total" not in adaptive
        # serialized cleanly (the record is store-ready plain data)
        import json

        json.dumps(record)
