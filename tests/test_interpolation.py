"""Tests for mesh-based velocity interpolation."""

import numpy as np
import pytest

from repro.mesh import MeshResolution, Segment, build_tube_mesh
from repro.particles import AirwayFlow, MeshVelocityField, NewmarkTracker
from repro.particles.tracker import ParticleState


@pytest.fixture(scope="module")
def tube():
    return build_tube_mesh(
        Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                radius=0.01),
        MeshResolution(points_per_ring=8))


class TestMeshVelocityField:
    def test_exact_at_nodes(self, tube):
        rng = np.random.default_rng(0)
        nodal = rng.normal(size=(tube.nnodes, 3))
        field = MeshVelocityField(tube, nodal)
        # sample exactly at a few nodes that are centroid-nearest to
        # themselves (interior nodes)
        sample = tube.coords[::17]
        out = field.velocity(sample)
        # inverse-distance weights make the value exact at a node when the
        # node belongs to the host element
        hosts = field.host_elements(sample)
        for i, (pt, host) in enumerate(zip(sample, hosts)):
            node_ids = tube.elem_nodes[host]
            node_ids = node_ids[node_ids >= 0]
            dists = np.linalg.norm(tube.coords[node_ids] - pt, axis=1)
            if dists.min() < 1e-12:
                node = node_ids[dists.argmin()]
                np.testing.assert_allclose(out[i], nodal[node], atol=1e-9)

    def test_constant_field_reproduced(self, tube):
        nodal = np.tile([1.0, -2.0, 0.5], (tube.nnodes, 1))
        field = MeshVelocityField(tube, nodal)
        rng = np.random.default_rng(1)
        pts = tube.centroids()[rng.integers(0, tube.nelem, 50)]
        out = field.velocity(pts)
        np.testing.assert_allclose(out, nodal[:50], atol=1e-12)

    def test_close_to_analytic_flow(self, tube):
        """Interpolating the sampled analytic field approximates the
        analytic field away from sharp gradients."""
        seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                      direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                      radius=0.01)
        flow = AirwayFlow([seg])
        nodal = flow.velocity(tube.coords)
        field = MeshVelocityField(tube, nodal)
        rng = np.random.default_rng(2)
        pts = tube.centroids()[rng.integers(0, tube.nelem, 200)]
        ui = field.velocity(pts)
        ua = flow.velocity(pts)
        scale = np.abs(ua).max()
        err = np.linalg.norm(ui - ua, axis=1)
        assert np.median(err) < 0.15 * scale

    def test_shape_validation(self, tube):
        with pytest.raises(ValueError):
            MeshVelocityField(tube, np.zeros((3, 3)))

    def test_empty_points(self, tube):
        field = MeshVelocityField(tube, np.zeros((tube.nnodes, 3)))
        assert field.velocity(np.zeros((0, 3))).shape == (0, 3)
        assert field.host_elements(np.zeros((0, 3))).shape == (0,)

    def test_usable_as_tracker_flow(self, tube):
        """Duck-typing: the tracker only needs .velocity(); particles can
        be transported in a mesh-interpolated field."""
        seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                      direction=np.array([0.0, 0.0, -1.0]), length=0.04,
                      radius=0.01)
        flow = AirwayFlow([seg])
        field = MeshVelocityField(tube, flow.velocity(tube.coords))

        class HybridFlow:
            """Mesh-interpolated velocity + analytic geometry queries."""

            def velocity(self, pts):
                return field.velocity(pts)

            def locate(self, pts):
                return flow.locate(pts)

            def is_terminal(self, seg_idx):
                return flow.is_terminal(seg_idx)

        n = 50
        rng = np.random.default_rng(3)
        x = np.column_stack([rng.uniform(-3e-3, 3e-3, n),
                             rng.uniform(-3e-3, 3e-3, n),
                             rng.uniform(-0.03, -0.01, n)])
        state = ParticleState(x=x, v=np.zeros((n, 3)), a=np.zeros((n, 3)),
                              status=np.zeros(n, dtype=np.int8))
        tracker = NewmarkTracker(HybridFlow())
        z0 = state.x[:, 2].mean()
        for _ in range(30):
            tracker.step(state, dt=1e-4)
        assert np.isfinite(state.x).all()
        assert state.x[:, 2].mean() < z0  # advected downstream


class TestFusedInterpolation:
    def test_host_elements_dtype_intp(self, tube):
        field = MeshVelocityField(tube, np.zeros((tube.nnodes, 3)))
        assert field.host_elements(tube.coords[:5]).dtype == np.intp
        assert field.host_elements(np.zeros((0, 3))).dtype == np.intp
