"""Unit tests for the mesh substrate (elements, container, airway, mesher)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mesh import (
    AirwayConfig,
    ElementType,
    Mesh,
    MeshResolution,
    Segment,
    build_airway_mesh,
    build_airway_tree,
    build_tube_mesh,
)
from repro.fem.geometry import geometry_blocks


# ---------------------------------------------------------------------------
# element volumes
# ---------------------------------------------------------------------------

def volumes(mesh):
    """(nelem,) element volumes: the sum of ``fem.geometry``'s |J| dV."""
    vols = np.zeros(mesh.nelem)
    for block in geometry_blocks(mesh):
        vols[block.eids] = block.vol
    return vols


def element_volume(coords, etype, nodes):
    """Volume of the one-element mesh over ``coords``."""
    row = np.full((1, 6), -1, dtype=np.int32)
    row[0, :len(nodes)] = nodes
    return volumes(Mesh(coords, np.array([etype], dtype=np.int8), row))[0]


UNIT_TET = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
UNIT_PRISM = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                       [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float)
UNIT_PYRAMID = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                         [0.5, 0.5, 1.0]], dtype=float)


class TestElementVolumes:
    def test_unit_tet(self):
        v = element_volume(UNIT_TET, ElementType.TET, [0, 1, 2, 3])
        assert v == pytest.approx(1.0 / 6.0)

    def test_unit_prism(self):
        v = element_volume(UNIT_PRISM, ElementType.PRISM, range(6))
        assert v == pytest.approx(0.5)

    def test_unit_pyramid(self):
        v = element_volume(UNIT_PYRAMID, ElementType.PYRAMID, range(5))
        assert v == pytest.approx(1.0 / 3.0)

    def test_bad_connectivity_shape(self):
        """A tet row with three nodes is rejected by the container."""
        with pytest.raises(ValueError):
            element_volume(UNIT_TET, ElementType.TET, [0, 1, 2])

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_volume_scales_cubically(self, scale):
        v1 = element_volume(UNIT_PRISM, ElementType.PRISM, range(6))
        v2 = element_volume(UNIT_PRISM * scale, ElementType.PRISM, range(6))
        assert v2 == pytest.approx(v1 * scale ** 3, rel=1e-9)


# ---------------------------------------------------------------------------
# Mesh container
# ---------------------------------------------------------------------------

def two_tet_mesh():
    """Two tets sharing a face (0,1,2)."""
    coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [0, 0, -1]], dtype=float)
    types = np.array([ElementType.TET, ElementType.TET], dtype=np.int8)
    conn = np.array([[0, 1, 2, 3, -1, -1], [0, 1, 2, 4, -1, -1]],
                    dtype=np.int32)
    return Mesh(coords, types, conn)


class TestMeshContainer:
    def test_basic_counts(self):
        m = two_tet_mesh()
        assert m.nnodes == 5 and m.nelem == 2
        assert m.type_counts()[ElementType.TET] == 2

    def test_centroids(self):
        m = two_tet_mesh()
        c = m.centroids()
        assert c[0] == pytest.approx([0.25, 0.25, 0.25])

    def test_face_adjacency_detects_shared_face(self):
        m = two_tet_mesh()
        g = m.face_adjacency()
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]

    def test_node_sharing_adjacency(self):
        m = two_tet_mesh()
        g = m.node_sharing_adjacency()
        assert list(g.neighbors(0)) == [1]

    def test_node_sharing_subset(self):
        m = two_tet_mesh()
        g = m.node_sharing_adjacency(np.array([1]))
        assert g.n == 1 and len(g.neighbors(0)) == 0

    def test_invalid_padding_rejected(self):
        coords = np.zeros((4, 3))
        types = np.array([ElementType.TET], dtype=np.int8)
        conn = np.array([[0, 1, 2, 3, 9, -1]], dtype=np.int32)
        with pytest.raises(ValueError):
            Mesh(coords, types, conn)

    def test_out_of_range_node_rejected(self):
        coords = np.zeros((3, 3))
        types = np.array([ElementType.TET], dtype=np.int8)
        conn = np.array([[0, 1, 2, 7, -1, -1]], dtype=np.int32)
        with pytest.raises(ValueError):
            Mesh(coords, types, conn)


# ---------------------------------------------------------------------------
# airway tree
# ---------------------------------------------------------------------------

class TestAirwayTree:
    def test_segment_count(self):
        # face + nasal + trachea + sum(2^g for g=1..G)
        for g in (0, 1, 3):
            segs = build_airway_tree(AirwayConfig(generations=g))
            assert len(segs) == 3 + (2 ** (g + 1) - 2)

    def test_parents_precede_children(self):
        segs = build_airway_tree(AirwayConfig(generations=4))
        for seg in segs:
            if seg.parent >= 0:
                assert seg.parent < seg.sid

    def test_children_start_at_parent_end(self):
        segs = build_airway_tree(AirwayConfig(generations=3))
        by_id = {s.sid: s for s in segs}
        for seg in segs:
            if seg.parent >= 0:
                np.testing.assert_allclose(seg.start, by_id[seg.parent].end)

    def test_radii_follow_murray_law(self):
        cfg = AirwayConfig(generations=4)
        segs = build_airway_tree(cfg)
        for seg in segs:
            if seg.generation >= 1:
                expected = cfg.trachea_radius * cfg.radius_ratio ** seg.generation
                assert seg.radius == pytest.approx(expected)

    def test_deterministic_given_seed(self):
        a = build_airway_tree(AirwayConfig(generations=3, seed=7))
        b = build_airway_tree(AirwayConfig(generations=3, seed=7))
        for sa, sb in zip(a, b):
            np.testing.assert_allclose(sa.direction, sb.direction)

    def test_directions_unit_norm(self):
        segs = build_airway_tree(AirwayConfig(generations=5))
        for seg in segs:
            assert np.linalg.norm(seg.direction) == pytest.approx(1.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AirwayConfig(generations=-1)
        with pytest.raises(ValueError):
            AirwayConfig(radius_ratio=1.5)


# ---------------------------------------------------------------------------
# tube mesher
# ---------------------------------------------------------------------------

def straight_tube(radius=0.01, length=0.06):
    return Segment(sid=0, parent=-1, generation=0,
                   start=np.zeros(3), direction=np.array([0.0, 0.0, -1.0]),
                   length=length, radius=radius)


class TestTubeMesher:
    def test_contains_all_three_types(self):
        mesh = build_tube_mesh(straight_tube())
        counts = mesh.type_counts()
        assert counts[ElementType.TET] > 0
        assert counts[ElementType.PYRAMID] > 0
        assert counts[ElementType.PRISM] > 0

    def test_two_rings_has_no_pyramids(self):
        mesh = build_tube_mesh(straight_tube(),
                               MeshResolution(rings=2))
        counts = mesh.type_counts()
        assert counts[ElementType.PYRAMID] == 0
        assert counts[ElementType.PRISM] > 0

    def test_volume_matches_polygonal_cylinder(self):
        seg = straight_tube(radius=0.01, length=0.05)
        res = MeshResolution(points_per_ring=16, rings=3)
        mesh = build_tube_mesh(seg, res)
        P = res.points_for(seg.radius, seg.radius)
        # The lattice inscribes a regular P-gon: area = P/2 r^2 sin(2pi/P)
        poly_area = 0.5 * P * seg.radius ** 2 * np.sin(2 * np.pi / P)
        assert volumes(mesh).sum() == pytest.approx(poly_area * seg.length,
                                                    rel=1e-9)

    def test_all_nodes_within_radius(self):
        seg = straight_tube()
        mesh = build_tube_mesh(seg)
        r = np.linalg.norm(mesh.coords[:, :2], axis=1)
        assert r.max() <= seg.radius * (1 + 1e-9)

    def test_elements_in_generation_order_are_local(self):
        """Consecutive elements must be spatially close (locality)."""
        mesh = build_tube_mesh(straight_tube())
        c = mesh.centroids()
        gaps = np.linalg.norm(np.diff(c, axis=0), axis=1)
        # neighbours in memory are within a couple of cell sizes
        assert np.median(gaps) < 0.01

    def test_dual_graph_connected(self):
        import networkx as nx
        mesh = build_tube_mesh(straight_tube())
        g = mesh.face_adjacency()
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        for v in range(g.n):
            for w in g.neighbors(v):
                G.add_edge(v, int(w))
        assert nx.is_connected(G)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            MeshResolution(rings=1)
        with pytest.raises(ValueError):
            MeshResolution(min_points=2)


# ---------------------------------------------------------------------------
# full airway mesh
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_airway():
    return build_airway_mesh(AirwayConfig(generations=3),
                             MeshResolution(points_per_ring=6))


class TestAirwayMesh:
    def test_element_ranges_cover_all(self, small_airway):
        am = small_airway
        total = sum(hi - lo for lo, hi in am.elem_ranges.values())
        assert total == am.mesh.nelem

    def test_regions_match_ranges(self, small_airway):
        am = small_airway
        for sid, (lo, hi) in am.elem_ranges.items():
            assert (am.mesh.regions[lo:hi] == sid).all()

    def test_junction_pairs_one_per_tree_edge(self, small_airway):
        am = small_airway
        n_edges = sum(1 for s in am.segments if s.parent >= 0)
        assert len(am.junction_pairs) == n_edges

    def test_dual_with_junctions_connected(self, small_airway):
        import networkx as nx
        g = small_airway.dual_with_junctions()
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        for v in range(g.n):
            for w in g.neighbors(v):
                G.add_edge(v, int(w))
        assert nx.is_connected(G)

    def test_inlet_disk_is_nasal_orifice(self, small_airway):
        """Particles enter through the nasal orifice (paper Sec. 2.2), not
        the outer face hemisphere."""
        center, axis, radius = small_airway.inlet_disk()
        nasal = small_airway.nasal_segment
        assert nasal.generation == -1
        assert radius == nasal.radius
        np.testing.assert_allclose(center, nasal.start)
        assert small_airway.segments[0].generation == -2

    def test_boundary_layer_prisms_present_everywhere(self, small_airway):
        """Every segment has wall prisms (the paper's BL structure)."""
        am = small_airway
        for sid, (lo, hi) in am.elem_ranges.items():
            types = am.mesh.elem_types[lo:hi]
            assert (types == ElementType.PRISM).sum() > 0, f"segment {sid}"

    def test_default_mesh_has_positive_volumes(self):
        """No degenerate element in the default airway mesh: every
        quadrature point of every element has a positive |J| dV."""
        mesh = build_airway_mesh(AirwayConfig(), MeshResolution()).mesh
        assert all((block.dvol > 0).all() for block in geometry_blocks(mesh))

    def test_mesh_size_grows_with_generations(self):
        small = build_airway_mesh(AirwayConfig(generations=2),
                                  MeshResolution(points_per_ring=6))
        large = build_airway_mesh(AirwayConfig(generations=4),
                                  MeshResolution(points_per_ring=6))
        assert large.mesh.nelem > 2 * small.mesh.nelem
