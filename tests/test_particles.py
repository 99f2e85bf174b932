"""Unit tests for particle forces, flow field, and tracking."""

import numpy as np
import pytest

from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh
from repro.partition import decompose_mesh
from repro.particles import (
    AirwayFlow,
    ElementLocator,
    FluidProperties,
    NewmarkTracker,
    ParticleProperties,
    ParticleState,
    STATUS_ACTIVE,
    STATUS_DEPOSITED,
    drag_force,
    ganser_cd,
    gravity_buoyancy_acceleration,
    inject_at_inlet,
    reynolds,
)


FLUID = FluidProperties()
PART = ParticleProperties()


class TestForces:
    def test_stokes_limit(self):
        """At tiny Re, F_D -> 3 pi mu d (u_f - u_p)."""
        u_f = np.array([[1e-6, 0.0, 0.0]])
        u_p = np.zeros((1, 3))
        f = drag_force(u_f, u_p, PART, FLUID)
        stokes = 3.0 * np.pi * FLUID.viscosity * PART.diameter * u_f
        np.testing.assert_allclose(f, stokes, rtol=1e-3)

    def test_ganser_cd_reference_values(self):
        """Hand-evaluated values of Ganser's Eq. 8 (spherical limit)."""
        assert ganser_cd(np.array([1.0]))[0] == pytest.approx(26.68, rel=0.01)
        assert ganser_cd(np.array([100.0]))[0] == pytest.approx(0.806,
                                                                rel=0.02)

    def test_cd_monotone_decreasing_at_low_re(self):
        re = np.logspace(-3, 2, 50)
        cd = ganser_cd(re)
        assert (np.diff(cd) < 0).all()

    def test_drag_opposes_relative_motion(self):
        u_f = np.zeros((1, 3))
        u_p = np.array([[2.0, 0.0, 0.0]])
        f = drag_force(u_f, u_p, PART, FLUID)
        assert f[0, 0] < 0.0

    def test_drag_zero_at_equal_velocity(self):
        u = np.array([[1.0, 2.0, 3.0]])
        f = drag_force(u, u, PART, FLUID)
        np.testing.assert_allclose(f, 0.0)

    def test_gravity_buoyancy_reduced_by_density_ratio(self):
        acc = gravity_buoyancy_acceleration(PART, FLUID)
        assert acc[2] == pytest.approx(-9.81 * (1 - FLUID.density
                                                / PART.density))

    def test_reynolds_definition(self):
        re = reynolds(np.array([1.0]), PART, FLUID)
        expected = FLUID.density * PART.diameter / FLUID.viscosity
        assert re[0] == pytest.approx(expected)

    def test_relaxation_time_order_of_magnitude(self):
        # 4 um water droplet in air: tau ~ 5e-5 s
        tau = PART.relaxation_time(FLUID)
        assert 1e-5 < tau < 1e-4

    def test_property_validation(self):
        with pytest.raises(ValueError):
            ParticleProperties(diameter=-1e-6)
        with pytest.raises(ValueError):
            FluidProperties(density=0.0)


@pytest.fixture(scope="module")
def airway():
    return build_airway_mesh(AirwayConfig(generations=3),
                             MeshResolution(points_per_ring=6))


@pytest.fixture(scope="module")
def flow(airway):
    return AirwayFlow(airway.segments, inlet_flow_rate=1e-3)


class TestFlowField:
    def test_flow_rate_conserved_across_bifurcations(self, flow):
        children: dict = {}
        for seg in flow.segments:
            if seg.parent >= 0:
                children.setdefault(seg.parent, []).append(seg.sid)
        for parent, kids in children.items():
            q_kids = sum(flow.flow_rates[k] for k in kids)
            assert q_kids == pytest.approx(flow.flow_rates[parent])

    def test_centerline_velocity_is_peak(self, flow):
        seg = flow.segments[2]  # trachea
        mid = seg.start + seg.direction * seg.length * 0.5
        u = flow.velocity(mid[None, :])[0]
        expected = 2.0 * flow.flow_rates[seg.sid] / (np.pi * seg.radius ** 2)
        assert np.linalg.norm(u) == pytest.approx(expected, rel=1e-6)
        np.testing.assert_allclose(u / np.linalg.norm(u), seg.direction,
                                   atol=1e-9)

    def test_velocity_vanishes_at_wall(self, flow):
        seg = flow.segments[2]
        mid = seg.start + seg.direction * seg.length * 0.5
        perp = np.array([1.0, 0.0, 0.0])
        wall_pt = mid + perp * seg.radius * 0.9999
        u = flow.velocity(wall_pt[None, :])[0]
        center_u = flow.velocity(mid[None, :])[0]
        assert np.linalg.norm(u) < 0.01 * np.linalg.norm(center_u)

    def test_velocity_speeds_up_downstream(self, flow):
        """Total cross-section area grows slower than 2x per generation at
        the first generations, so mean velocity changes; just check finite
        positive flow everywhere along the tree."""
        for seg in flow.segments:
            mid = seg.start + seg.direction * seg.length * 0.5
            u = flow.velocity(mid[None, :])[0]
            assert np.dot(u, seg.direction) > 0.0

    def test_locate_identifies_segment(self, flow):
        seg = flow.segments[2]
        mid = seg.start + seg.direction * seg.length * 0.5
        sidx, axial, radial = flow.locate(mid[None, :])
        assert sidx[0] == 2
        assert axial[0] == pytest.approx(0.5, abs=0.01)
        assert radial[0] == pytest.approx(0.0, abs=1e-9)

    def test_wall_gap_sign(self, flow):
        seg = flow.segments[2]
        mid = seg.start + seg.direction * seg.length * 0.5
        inside = mid
        outside = mid + np.array([1.0, 0.0, 0.0]) * seg.radius * 2.0
        gaps = flow.wall_gap(np.stack([inside, outside]))
        assert gaps[0] > 0 and gaps[1] < 0

    def test_invalid_flow_rate(self, airway):
        with pytest.raises(ValueError):
            AirwayFlow(airway.segments, inlet_flow_rate=0.0)


class TestInjection:
    def test_particles_inside_inlet_disk(self, airway, flow):
        state = inject_at_inlet(airway, flow, 500, seed=1)
        center, axis, radius = airway.inlet_disk()
        rel = state.x - center
        radial = np.linalg.norm(rel - np.outer(rel @ axis, axis), axis=1)
        assert (radial <= radius).all()

    def test_all_active_initially(self, airway, flow):
        state = inject_at_inlet(airway, flow, 100)
        assert state.n_active == 100

    def test_deterministic_for_seed(self, airway, flow):
        a = inject_at_inlet(airway, flow, 50, seed=9)
        b = inject_at_inlet(airway, flow, 50, seed=9)
        np.testing.assert_array_equal(a.x, b.x)

    def test_empty_injection(self, airway, flow):
        state = inject_at_inlet(airway, flow, 0)
        assert state.n == 0

    def test_injection_speed_follows_the_callers_flow(self, airway):
        """The initial velocity is ``speed_fraction`` of the given flow's
        local velocity, at that flow's own inlet rate."""
        fast = AirwayFlow(airway.segments, inlet_flow_rate=2e-3)
        state = inject_at_inlet(airway, fast, 200, seed=1)
        np.testing.assert_array_equal(state.v, 0.5 * fast.velocity(state.x))

    def test_workload_injects_at_its_inlet_flow_rate(self):
        from repro.app.workload import WorkloadSpec, get_workload

        wl = get_workload(WorkloadSpec(generations=2, points_per_ring=6,
                                       n_steps=2, inlet_flow_rate=2e-3))
        state = ParticleState.empty()
        wl.particle_stage._inject(state, 0, wl.dt_schedule()[0])
        np.testing.assert_array_equal(state.v,
                                      0.5 * wl.flow.velocity(state.x))


class TestLocateBlocks:
    """``locate`` walks its points in row blocks of a fixed byte budget:
    every row is computed on its own, so results are bit-identical however
    the points are split, and the workspace stays bounded."""

    @staticmethod
    def _held_bytes(flow) -> int:
        return sum(a.nbytes for a in vars(flow._ws).values()
                   if isinstance(a, np.ndarray))

    def test_blocked_locate_bit_identical_to_rows_and_slices(self, airway,
                                                             flow):
        block = flow._block_rows
        rng = np.random.default_rng(3)
        lo, hi = airway.mesh.coords.min(axis=0), airway.mesh.coords.max(axis=0)
        points = np.concatenate([airway.mesh.coords,
                                 rng.uniform(lo, hi, size=(2 * block, 3))])
        assert len(points) > 2 * block
        whole = flow.locate(points)
        single = [flow.locate(p) for p in points[::97]]
        for k, got in enumerate(single):
            for a, b in zip(whole, got):
                assert a[97 * k] == b[0]
        for start, stop in ((0, block), (block - 5, block + 5),
                            (block - 1, 2 * block + 3), (7, len(points))):
            part = flow.locate(points[start:stop])
            for a, b in zip(whole, part):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a[start:stop], b)

    def test_workspace_bound_does_not_grow_with_points(self, airway):
        from repro.particles.flowfield import _LOCATE_BLOCK_BYTES

        flow = AirwayFlow(airway.segments)
        coords = airway.mesh.coords
        n = 3 * flow._block_rows
        flow.locate(np.resize(coords, (n, 3)))
        held = self._held_bytes(flow)
        flow.locate(np.resize(coords, (4 * n, 3)))
        assert self._held_bytes(flow) == held <= _LOCATE_BLOCK_BYTES

    def test_default_flow_stage_holds_a_bounded_workspace(self):
        """The flow stage samples the whole mesh once at build; the
        workspace it keeps for the tracker's later calls must not be
        mesh-sized (20.4 MB at the default spec before blocking)."""
        from repro.app.workload import WorkloadSpec, get_workload

        wl = get_workload(WorkloadSpec())
        assert wl.mesh.nnodes > wl.flow._block_rows
        assert self._held_bytes(wl.flow) <= 2 << 20


class TestTracking:
    def test_particles_move_downstream(self, airway, flow):
        state = inject_at_inlet(airway, flow, 200, seed=0)
        tracker = NewmarkTracker(flow)
        z0 = state.x[:, 2].mean()
        for _ in range(50):
            tracker.step(state, dt=1e-4)
        # airway axis points -z: particles must advance downward
        assert state.x[state.active][:, 2].mean() < z0 if state.n_active \
            else True
        moved = state.x[:, 2].mean()
        assert moved < z0

    def test_velocity_relaxes_to_fluid(self, airway, flow):
        """A particle with small relaxation time approaches the local fluid
        velocity within a few time steps."""
        state = inject_at_inlet(airway, flow, 50, seed=2, speed_fraction=0.0)
        tracker = NewmarkTracker(flow)
        for _ in range(30):
            tracker.step(state, dt=1e-4)
        act = state.active
        if act.sum() == 0:
            pytest.skip("all particles deposited too quickly")
        u_f = flow.velocity(state.x[act])
        rel = np.linalg.norm(state.v[act] - u_f, axis=1)
        mag = np.linalg.norm(u_f, axis=1) + 1e-12
        assert np.median(rel / mag) < 0.3

    def test_some_particles_deposit_over_time(self, airway, flow):
        state = inject_at_inlet(airway, flow, 300, seed=3)
        tracker = NewmarkTracker(flow)
        for _ in range(300):
            tracker.step(state, dt=1e-4)
            if (state.status == STATUS_DEPOSITED).any():
                break
        counts = state.counts()
        assert counts[STATUS_DEPOSITED] + counts[STATUS_ACTIVE] > 0

    def test_deposited_particles_stop(self, airway, flow):
        state = inject_at_inlet(airway, flow, 300, seed=3)
        tracker = NewmarkTracker(flow)
        for _ in range(200):
            tracker.step(state, dt=1e-4)
        dep = state.status == STATUS_DEPOSITED
        if dep.any():
            np.testing.assert_allclose(state.v[dep], 0.0)

    def test_step_with_no_active_particles(self, flow):
        state = ParticleState.empty()
        tracker = NewmarkTracker(flow)
        tracker.step(state, dt=1e-4)  # must not raise
        assert state.n == 0

    def test_finite_state_always(self, airway, flow):
        state = inject_at_inlet(airway, flow, 100, seed=5)
        tracker = NewmarkTracker(flow)
        for _ in range(100):
            tracker.step(state, dt=1e-4)
            assert np.isfinite(state.x).all()
            assert np.isfinite(state.v).all()


class TestLocatorAndImbalance:
    def test_owner_histogram_sums_to_population(self, airway, flow):
        dec = decompose_mesh(airway, 8, method="rcb")
        locator = ElementLocator(airway, dec.labels)
        state = inject_at_inlet(airway, flow, 400, seed=0)
        hist = locator.rank_histogram(state.x, 8)
        assert hist.sum() == 400

    def test_injection_concentrated_in_few_ranks(self, airway, flow):
        """The paper's key imbalance: at injection, particles live in one or
        few MPI subdomains (L96 = 0.02)."""
        dec = decompose_mesh(airway, 16, method="rcb")
        locator = ElementLocator(airway, dec.labels)
        state = inject_at_inlet(airway, flow, 1000, seed=0)
        hist = locator.rank_histogram(state.x, 16)
        # load balance L_n = mean / max must be tiny
        ln = hist.mean() / hist.max()
        assert ln < 0.3
        assert (hist > 0).sum() <= 6  # few ranks hold everything

    def test_particles_spread_over_time(self, airway, flow):
        dec = decompose_mesh(airway, 16, method="rcb")
        locator = ElementLocator(airway, dec.labels)
        state = inject_at_inlet(airway, flow, 1000, seed=0)
        h0 = locator.rank_histogram(state.x, 16)
        tracker = NewmarkTracker(flow)
        for _ in range(400):
            tracker.step(state, dt=1e-4)
        h1 = locator.rank_histogram(state.x, 16)
        assert (h1 > 0).sum() >= (h0 > 0).sum()

    def test_locator_requires_labels_for_owners(self, airway):
        locator = ElementLocator(airway)
        with pytest.raises(ValueError):
            locator.owners_of(np.zeros((1, 3)))


class TestParticleStateExtend:
    def test_polydisperse_remnant_then_monodisperse(self):
        """A zero-length polydisperse extend must not poison a later
        monodisperse append (diameter fell out of sync with status)."""
        state = ParticleState.empty()
        poly = ParticleState(x=np.zeros((0, 3)), v=np.zeros((0, 3)),
                             a=np.zeros((0, 3)),
                             status=np.zeros(0, dtype=np.int8),
                             diameter=np.zeros(0))
        state.extend(poly)
        mono = ParticleState(x=np.zeros((5, 3)), v=np.zeros((5, 3)),
                             a=np.zeros((5, 3)),
                             status=np.zeros(5, dtype=np.int8))
        state.extend(mono)
        assert state.n == 5
        assert state.diameter is None
        state.check_invariants()

    def test_mixing_nonempty_populations_raises(self):
        mono = ParticleState(x=np.zeros((2, 3)), v=np.zeros((2, 3)),
                             a=np.zeros((2, 3)),
                             status=np.zeros(2, dtype=np.int8))
        poly = ParticleState(x=np.zeros((2, 3)), v=np.zeros((2, 3)),
                             a=np.zeros((2, 3)),
                             status=np.zeros(2, dtype=np.int8),
                             diameter=np.full(2, 1e-6))
        with pytest.raises(ValueError, match="mix"):
            mono.extend(poly)

    def test_check_invariants_catches_length_mismatch(self):
        state = ParticleState(x=np.zeros((3, 3)), v=np.zeros((3, 3)),
                              a=np.zeros((3, 3)),
                              status=np.zeros(3, dtype=np.int8),
                              diameter=np.zeros(2))
        with pytest.raises(ValueError, match="diameter"):
            state.check_invariants()

    def test_extend_empty_with_polydisperse_adopts_diameters(self):
        state = ParticleState.empty()
        poly = ParticleState(x=np.zeros((3, 3)), v=np.zeros((3, 3)),
                             a=np.zeros((3, 3)),
                             status=np.zeros(3, dtype=np.int8),
                             diameter=np.full(3, 2e-6))
        state.extend(poly)
        assert state.diameter is not None and len(state.diameter) == 3
        state.check_invariants()
