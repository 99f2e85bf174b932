"""Unit and property tests for partitioning and coloring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import (
    AirwayConfig,
    MeshResolution,
    Segment,
    build_airway_mesh,
    build_tube_mesh,
)
from repro.mesh.mesh import CSRGraph
from repro.partition import (
    decompose_mesh,
    dsatur_coloring,
    edge_cut,
    greedy_coloring,
    partition_graph,
    partition_weights,
    rcb_partition,
    rcb_partition_sets,
    subdomain_decomposition,
    verify_coloring,
)


def grid_graph(nx_, ny_):
    """A 2-D grid graph as CSR (classic partitioning testbed)."""
    def vid(i, j):
        return i * ny_ + j

    ea, eb = [], []
    for i in range(nx_):
        for j in range(ny_):
            if i + 1 < nx_:
                ea.append(vid(i, j)); eb.append(vid(i + 1, j))
            if j + 1 < ny_:
                ea.append(vid(i, j)); eb.append(vid(i, j + 1))
    return CSRGraph.from_edges(nx_ * ny_,
                               np.asarray(ea, dtype=np.int32),
                               np.asarray(eb, dtype=np.int32))


@pytest.fixture(scope="module")
def tube_mesh():
    seg = Segment(sid=0, parent=-1, generation=0, start=np.zeros(3),
                  direction=np.array([0.0, 0.0, -1.0]), length=0.08,
                  radius=0.01)
    return build_tube_mesh(seg, MeshResolution(points_per_ring=8))


class TestRCB:
    def test_labels_in_range(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(500, 3))
        labels = rcb_partition(pts, 7)
        assert labels.min() == 0 and labels.max() == 6

    def test_balanced_counts(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(1000, 3))
        labels = rcb_partition(pts, 8)
        counts = np.bincount(labels, minlength=8)
        assert counts.max() - counts.min() <= 2

    def test_weighted_balance(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(1000, 2))
        w = rng.uniform(0.5, 2.0, size=1000)
        labels = rcb_partition(pts, 4, weights=w)
        pw = partition_weights(labels, w, 4)
        assert pw.max() / pw.min() < 1.3

    def test_single_part(self):
        pts = np.zeros((10, 3))
        assert (rcb_partition(pts, 1) == 0).all()

    def test_parts_are_spatially_compact(self):
        pts = np.stack(np.meshgrid(np.arange(10), np.arange(10)),
                       axis=-1).reshape(-1, 2).astype(float)
        labels = rcb_partition(pts, 2)
        # a straight cut: one coordinate separates the halves
        side0 = pts[labels == 0]
        side1 = pts[labels == 1]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        assert side0[:, axis].max() <= side1[:, axis].min() or \
               side1[:, axis].max() <= side0[:, axis].min()

    def test_validation(self):
        with pytest.raises(ValueError):
            rcb_partition(np.zeros((5, 3)), 0)
        with pytest.raises(ValueError):
            rcb_partition(np.zeros(5), 2)
        with pytest.raises(ValueError):
            rcb_partition(np.zeros((5, 3)), 2, weights=-np.ones(5))

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=16, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_every_part_nonempty_when_enough_points(self, k, n):
        rng = np.random.default_rng(42)
        pts = rng.uniform(size=(n, 3))
        labels = rcb_partition(pts, k)
        assert len(np.unique(labels)) == k


def reference_rcb(points, nparts, weights=None):
    """Depth-first recursive RCB: the oracle of the level-synchronous
    kernel (each set sorted stably in its current order, cut at the
    weighted median, at most one point per part once len <= nparts)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    weights = (np.ones(n) if weights is None
               else np.asarray(weights, dtype=np.float64))
    labels = np.zeros(n, dtype=np.int32)

    def split(idx, nparts, offset):
        if nparts == 1 or len(idx) == 0:
            labels[idx] = offset
            return
        if len(idx) <= nparts:
            labels[idx] = offset + np.arange(len(idx))
            return
        k_left = nparts // 2
        sub = points[idx]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        order = np.argsort(sub[:, axis], kind="stable")
        w = weights[idx][order]
        total = w.sum()
        if total <= 0:
            cut = len(idx) * k_left // nparts
        else:
            cut = int(np.searchsorted(np.cumsum(w), total * k_left / nparts))
            cut = max(k_left, min(cut, len(idx) - (nparts - k_left)))
        split(idx[order[:cut]], k_left, offset)
        split(idx[order[cut:]], nparts - k_left, offset + k_left)

    split(np.arange(n), nparts, 0)
    return labels


@st.composite
def point_sets(draw):
    """Several point sets in 1-3 D on a coarse grid (many duplicated
    coordinates), empty sets and sets no larger than their part count
    included, with one of four weightings."""
    dim = draw(st.integers(min_value=1, max_value=3))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=40),
                          min_size=1, max_size=5))
    nparts = draw(st.lists(st.integers(min_value=1, max_value=12),
                           min_size=len(sizes), max_size=len(sizes)))
    n = sum(sizes)
    coords = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=n * dim, max_size=n * dim))
    points = np.asarray(coords, dtype=np.float64).reshape(n, dim)
    mode = draw(st.sampled_from(["none", "integer", "zero", "fractional"]))
    if mode == "none":
        weights = None
    elif mode == "zero":
        weights = np.zeros(n)
    elif mode == "integer":
        weights = np.asarray(draw(st.lists(
            st.integers(min_value=0, max_value=5), min_size=n, max_size=n)),
            dtype=np.float64)
    else:
        weights = np.asarray(draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False),
            min_size=n, max_size=n)), dtype=np.float64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return points, offsets, nparts, weights


class TestRCBKernel:
    @given(point_sets())
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_reference(self, case):
        points, offsets, nparts, weights = case
        got = rcb_partition_sets(points, offsets, nparts, weights)
        assert got.dtype == np.int32
        for a, b, k in zip(offsets[:-1], offsets[1:], nparts):
            w = None if weights is None else weights[a:b]
            want = reference_rcb(points[a:b], k, w)
            assert (got[a:b] == want).all()
            one = rcb_partition(points[a:b], k, w)
            assert one.dtype == np.int32 and (one == want).all()

    def test_degenerate_and_empty_sets(self):
        points = np.array([[0.0], [0.0], [1.0], [0.0], [2.0], [2.0]])
        labels = rcb_partition_sets(points, [0, 0, 3, 6], [4, 5, 2])
        assert labels.tolist() == [0, 1, 2, 0, 1, 1]

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            rcb_partition_sets(np.zeros((4, 2)), [0, 3], [2])
        with pytest.raises(ValueError):
            rcb_partition_sets(np.zeros((4, 2)), [0, 3, 2, 4], [2, 2, 2])
        with pytest.raises(ValueError):
            rcb_partition_sets(np.zeros((4, 2)), [0, 4], [0])


class TestMultilevel:
    def test_grid_bisection_balanced_and_low_cut(self):
        g = grid_graph(16, 16)
        labels = partition_graph(g, 2, seed=0)
        counts = np.bincount(labels, minlength=2)
        assert counts.min() >= 0.4 * g.n
        # optimal cut of a 16x16 grid bisection is 16; allow slack
        assert edge_cut(g, labels) <= 40

    def test_kway_parts_all_present(self):
        g = grid_graph(20, 20)
        labels = partition_graph(g, 6, seed=1)
        assert len(np.unique(labels)) == 6

    def test_kway_balance(self):
        g = grid_graph(24, 24)
        labels = partition_graph(g, 8, seed=0)
        counts = np.bincount(labels, minlength=8)
        assert counts.max() <= 1.25 * counts.mean()

    def test_weighted_partition(self):
        g = grid_graph(12, 12)
        w = np.ones(g.n)
        w[:36] = 4.0  # heavy corner
        labels = partition_graph(g, 4, vertex_weights=w, seed=0)
        pw = partition_weights(labels, w, 4)
        assert pw.max() <= 1.5 * pw.mean()

    def test_deterministic_for_seed(self):
        g = grid_graph(10, 10)
        a = partition_graph(g, 4, seed=5)
        b = partition_graph(g, 4, seed=5)
        assert (a == b).all()

    def test_single_part(self):
        g = grid_graph(4, 4)
        assert (partition_graph(g, 1) == 0).all()

    def test_nparts_exceeds_vertices(self):
        g = grid_graph(2, 2)
        labels = partition_graph(g, 4, seed=0)
        assert len(np.unique(labels)) == 4

    def test_mesh_partition_cut_beats_random(self, tube_mesh):
        g = tube_mesh.face_adjacency()
        labels = partition_graph(g, 8, seed=0)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 8, size=g.n)
        assert edge_cut(g, labels) < 0.5 * edge_cut(g, random_labels)


class TestColoring:
    @pytest.mark.parametrize("algo", [greedy_coloring, dsatur_coloring])
    def test_valid_on_grid(self, algo):
        g = grid_graph(10, 10)
        colors = algo(g)
        assert verify_coloring(g, colors)
        # grid is bipartite: DSATUR should find 2; greedy <= 3
        assert colors.max() <= 2

    @pytest.mark.parametrize("algo", [greedy_coloring, dsatur_coloring])
    def test_valid_on_mesh_conflict_graph(self, algo, tube_mesh):
        g = tube_mesh.node_sharing_adjacency()
        colors = algo(g)
        assert verify_coloring(g, colors)
        # bounded by max degree + 1
        maxdeg = int(np.max(np.diff(g.xadj)))
        assert colors.max() <= maxdeg

    def test_dsatur_not_worse_than_greedy_on_mesh(self, tube_mesh):
        g = tube_mesh.node_sharing_adjacency()
        assert dsatur_coloring(g).max() <= greedy_coloring(g).max() + 1

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, np.zeros(0, np.int32), np.zeros(0, np.int32))
        assert len(greedy_coloring(g)) == 0

    def test_verify_rejects_bad_coloring(self):
        g = grid_graph(3, 3)
        assert not verify_coloring(g, np.zeros(g.n, dtype=int))

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_coloring_always_valid(self, a, b):
        g = grid_graph(a, b)
        assert verify_coloring(g, greedy_coloring(g))
        assert verify_coloring(g, dsatur_coloring(g))


class TestSubdomains:
    def test_contiguous_labels_cover_and_contiguous(self, tube_mesh):
        ids = np.arange(tube_mesh.nelem)
        labels, adj = subdomain_decomposition(tube_mesh, ids, 8,
                                              method="contiguous")
        assert len(labels) == tube_mesh.nelem
        assert len(adj) == 8
        # contiguity: labels are non-decreasing over memory order
        assert (np.diff(labels) >= 0).all()

    def test_shared_node_threshold_sparsifies(self, tube_mesh):
        """Raising min_shared_nodes must monotonically thin the subdomain
        adjacency — the scale-compensation knob of the experiments."""
        ids = np.arange(tube_mesh.nelem)
        degrees = []
        for thr in (1, 2, 4):
            _, adj = subdomain_decomposition(tube_mesh, ids, 16,
                                             min_shared_nodes=thr)
            degrees.append(sum(len(a) for a in adj))
        assert degrees[0] >= degrees[1] >= degrees[2]
        # and the graph must not be a clique at production threshold
        _, adj = subdomain_decomposition(tube_mesh, ids, 16,
                                         min_shared_nodes=4)
        assert max(len(a) for a in adj) < 15

    def test_unknown_subdomain_method(self, tube_mesh):
        with pytest.raises(ValueError):
            subdomain_decomposition(tube_mesh, np.arange(10), 2,
                                    method="zigzag")

    def test_adjacency_symmetric(self, tube_mesh):
        ids = np.arange(tube_mesh.nelem)
        _, adj = subdomain_decomposition(tube_mesh, ids, 8)
        for s, nbrs in enumerate(adj):
            for t in nbrs:
                assert s in adj[t]

    def test_adjacency_no_self(self, tube_mesh):
        ids = np.arange(tube_mesh.nelem)
        _, adj = subdomain_decomposition(tube_mesh, ids, 8)
        assert all(s not in adj[s] for s in range(len(adj)))

    def test_fewer_elements_than_subdomains(self, tube_mesh):
        ids = np.arange(3)
        labels, adj = subdomain_decomposition(tube_mesh, ids, 16,
                                              min_elements_per_subdomain=1)
        assert len(adj) == 3
        assert set(labels) == {0, 1, 2}

    def test_granularity_floor(self, tube_mesh):
        """Small domains get fewer subdomains so tasks keep a minimum
        size (task overhead must not dominate)."""
        ids = np.arange(24)
        labels, adj = subdomain_decomposition(tube_mesh, ids, 16,
                                              min_elements_per_subdomain=6)
        assert len(adj) == 4  # 24 // 6

    def test_empty_rank(self, tube_mesh):
        labels, adj = subdomain_decomposition(tube_mesh,
                                              np.zeros(0, dtype=int), 4)
        assert len(labels) == 0 and adj == []


class TestDecomposeMesh:
    @pytest.fixture(scope="class")
    def airway(self):
        return build_airway_mesh(AirwayConfig(generations=3),
                                 MeshResolution(points_per_ring=6))

    @pytest.mark.parametrize("method", ["multilevel", "rcb"])
    def test_every_element_owned_once(self, airway, method):
        dec = decompose_mesh(airway, 12, method=method)
        assert dec.elements_per_rank().sum() == airway.mesh.nelem
        assert len(dec.domains) == 12

    def test_element_counts_balanced(self, airway):
        dec = decompose_mesh(airway, 12, method="rcb")
        counts = dec.elements_per_rank()
        assert counts.max() <= 1.35 * counts.mean()

    def test_cost_imbalance_emerges_from_element_types(self, airway):
        """Partitioning balances counts, not costs: with prisms ~3x tets the
        per-rank cost spread is wider than the count spread (Table 1)."""
        from repro.mesh import ElementType
        dec = decompose_mesh(airway, 12, method="rcb")
        cost_per_type = {ElementType.TET: 1.0, ElementType.PYRAMID: 1.7,
                         ElementType.PRISM: 3.0}
        costs = np.array([cost_per_type[ElementType(t)]
                          for t in airway.mesh.elem_types])
        rank_costs = np.bincount(dec.labels, weights=costs, minlength=12)
        counts = dec.elements_per_rank()
        count_balance = counts.mean() / counts.max()
        cost_balance = rank_costs.mean() / rank_costs.max()
        assert cost_balance < count_balance

    def test_domains_have_subdomain_structure(self, airway):
        dec = decompose_mesh(airway, 6, subdomains_per_rank=8, method="rcb")
        for dom in dec.domains:
            if dom.nelem >= 8:
                assert dom.nsub == 8
            assert len(dom.sub_labels) == dom.nelem

    def test_halo_nodes_positive(self, airway):
        dec = decompose_mesh(airway, 6, method="rcb")
        assert all(d.halo_nodes >= 0 for d in dec.domains)
        assert sum(d.halo_nodes for d in dec.domains) > 0

    def test_invalid_nranks(self, airway):
        with pytest.raises(ValueError):
            decompose_mesh(airway, 0)

    def test_unknown_method(self, airway):
        with pytest.raises(ValueError):
            decompose_mesh(airway, 4, method="magic")


class TestBatchedDecomposition:
    """Every rank of the all-ranks-at-once decomposition equals the
    per-rank public functions run on that rank alone."""

    @pytest.fixture(scope="class")
    def small_wl(self):
        from repro.app import Workload, WorkloadSpec

        return Workload(WorkloadSpec(generations=2, points_per_ring=6,
                                     n_steps=2))

    @staticmethod
    def assert_ranks_match(wl, dd, **kw):
        from repro.app import DEFAULT_COSTS
        from repro.fem import element_work_meters

        mesh = wl.mesh
        for rw in dd.ranks:
            ids = np.nonzero(dd.labels == rw.rank)[0]
            assert rw.element_ids.dtype == ids.dtype
            assert (rw.element_ids == ids).all()
            sub, adj = subdomain_decomposition(mesh, ids, **kw)
            assert rw.sub_labels.dtype == sub.dtype
            assert (rw.sub_labels == sub).all()
            assert rw.sub_adjacency == adj
            colors = (greedy_coloring(mesh.node_sharing_adjacency(ids))
                      if len(ids) else np.zeros(0, dtype=np.int32))
            assert rw.colors.dtype == colors.dtype
            assert (rw.colors == colors).all()
            instr, atomics = element_work_meters(
                mesh, DEFAULT_COSTS.assembly_instr, ids)
            assert (rw.assembly_instr == instr).all()
            assert (rw.assembly_atomics == atomics).all()

    @pytest.mark.parametrize("nranks, method", [
        (1, "rcb"), (7, "rcb"), (24, "rcb"), (8, "multilevel")])
    def test_ranks_equal_per_rank_functions(self, small_wl, nranks, method):
        dd = small_wl.decomposition(nranks, method=method)
        self.assert_ranks_match(small_wl, dd, nsub=64, min_shared_nodes=4,
                                min_elements_per_subdomain=3)

    def test_empty_ranks(self, small_wl):
        """More ranks than elements: the surplus ranks own nothing."""
        nranks = small_wl.mesh.nelem + 5
        dd = small_wl.decomposition(nranks)
        assert (np.bincount(dd.labels, minlength=nranks) == 0).sum() == 5
        self.assert_ranks_match(small_wl, dd, nsub=64, min_shared_nodes=4,
                                min_elements_per_subdomain=3)

    def test_decompose_mesh_with_given_labels(self, small_wl):
        mesh = small_wl.mesh
        labels = np.minimum(rcb_partition(mesh.centroids(), 4), 2)
        dec = decompose_mesh(mesh, 4, subdomains_per_rank=8, labels=labels)
        assert dec.domains[3].nelem == 0 and dec.domains[3].nsub == 0
        assert dec.domains[3].halo_nodes == 0
        for dom in dec.domains[:3]:
            ids = np.nonzero(labels == dom.rank)[0]
            sub, adj = subdomain_decomposition(mesh, ids, 8)
            assert (dom.sub_labels == sub).all() and dom.sub_adjacency == adj
        with pytest.raises(ValueError):
            decompose_mesh(mesh, 4, labels=labels[:-1])

    def test_contiguous_matches_linspace_chunks(self, tube_mesh):
        for nsub in (1, 3, 7, 16):
            ids = np.arange(0, tube_mesh.nelem, 2)[:101]
            labels, _ = subdomain_decomposition(
                tube_mesh, ids, nsub, method="contiguous",
                min_elements_per_subdomain=1)
            bounds = np.linspace(0, len(ids), nsub + 1).astype(np.int64)
            want = np.zeros(len(ids), dtype=np.int32)
            for s in range(nsub):
                want[bounds[s]:bounds[s + 1]] = s
            assert labels.dtype == np.int32 and (labels == want).all()
