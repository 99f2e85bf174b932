"""Tests for the static-geometry cache (repro.fem.geometry) and its
consumers: cache identity/invalidation, memory accounting, the eviction
budget, the operator-split assembly path, the cached SGS geometry, the
shared centroid KD-tree, and the driver's vectorized exchange topology."""

import numpy as np
import pytest

from repro.fem import (
    CACHE_BUDGET_BYTES,
    GeometryCache,
    SGSState,
    assemble_operator,
    cache_for,
    drop_cache,
    geometry_blocks,
    update_sgs,
)
from repro.mesh import AirwayConfig, MeshResolution, build_airway_mesh


def small_airway():
    return build_airway_mesh(AirwayConfig(generations=3, seed=2018),
                             MeshResolution(points_per_ring=6, rings=2))


@pytest.fixture
def mesh():
    return small_airway().mesh


# -- cache identity, counters, invalidation --------------------------------

class TestGeometryCache:
    def test_hits_and_misses_counted(self, mesh):
        cache = cache_for(mesh)
        hits0, misses0 = cache.hits, cache.misses
        b1 = geometry_blocks(mesh)
        assert cache.misses == misses0 + 1
        b2 = geometry_blocks(mesh)
        assert cache.hits == hits0 + 1
        assert b2 is b1  # same cached list, not a recompute

    def test_blocks_match_inline_geometry(self, mesh):
        """Cached blocks hold the per-type Jacobian geometry of the
        element set, in the kernels' selection order."""
        from repro.fem.geometry import _jacobian_geometry
        from repro.fem.shape import reference_element
        from repro.mesh import NODES_PER_TYPE

        for blk in geometry_blocks(mesh):
            nn = NODES_PER_TYPE[blk.etype]
            conn = mesh.elem_nodes[blk.eids][:, :nn]
            grads, dvol = _jacobian_geometry(mesh.coords, conn,
                                             reference_element(blk.etype))
            assert np.array_equal(blk.conn, conn)
            assert np.array_equal(blk.grads, grads)
            assert np.array_equal(blk.dvol, dvol)
            assert np.array_equal(blk.vol, dvol.sum(axis=1))
            assert np.array_equal(blk.h, np.cbrt(dvol.sum(axis=1)))

    def test_inplace_coordinate_mutation_invalidates(self, mesh):
        geometry_blocks(mesh)
        cache0 = cache_for(mesh)
        mesh.coords[0, 0] += 1e-3
        blocks = geometry_blocks(mesh)  # must rebuild, not serve stale
        cache1 = cache_for(mesh)
        assert cache1 is not cache0
        assert (cache1.hits, cache1.misses) == (0, 1)
        # the rebuilt geometry reflects the mutated coordinates
        from repro.fem.geometry import _jacobian_geometry
        from repro.fem.shape import reference_element
        from repro.mesh import NODES_PER_TYPE

        blk = blocks[0]
        nn = NODES_PER_TYPE[blk.etype]
        _, dvol = _jacobian_geometry(
            mesh.coords, mesh.elem_nodes[blk.eids][:, :nn],
            reference_element(blk.etype))
        assert np.array_equal(blk.dvol, dvol)

    def test_inplace_connectivity_mutation_invalidates(self, mesh):
        geometry_blocks(mesh)
        cache0 = cache_for(mesh)
        mesh.elem_nodes[0, 0], mesh.elem_nodes[0, 1] = (
            int(mesh.elem_nodes[0, 1]), int(mesh.elem_nodes[0, 0]))
        cache1 = cache_for(mesh)
        assert cache1 is not cache0
        assert len(cache1) == 0 and cache1.total_bytes == 0

    def test_bytes_accounting_and_drop(self, mesh):
        drop_cache(mesh)
        blocks = geometry_blocks(mesh)
        cache = cache_for(mesh)
        assert cache.total_bytes == sum(b.nbytes for b in blocks) > 0
        drop_cache(mesh)
        fresh = cache_for(mesh)
        assert fresh is not cache and fresh.total_bytes == 0

    def test_eviction_budget(self):
        cache = GeometryCache(b"")
        quarter = CACHE_BUDGET_BYTES // 4
        cache.put("a", "A", 2 * quarter)
        cache.put("b", "B", quarter)        # still within the budget
        assert cache.evictions == 0 and len(cache) == 2
        assert cache.get("a") == "A"        # "a" becomes most recently used
        cache.put("c", "C", 2 * quarter)    # over budget: LRU "b" goes
        assert cache.evictions == 1
        assert cache.get("b") is None and cache.get("a") == "A"
        assert cache.total_bytes == 4 * quarter <= CACHE_BUDGET_BYTES
        cache.put("d", "D", 2 * CACHE_BUDGET_BYTES)  # oversized: kept alone
        assert len(cache) == 1 and cache.get("d") == "D"
        assert cache.evictions == 3
        assert cache.total_bytes == 2 * CACHE_BUDGET_BYTES


# -- operator-split assembly -----------------------------------------------

class TestOperatorSplit:
    def _operands(self, mesh):
        rng = np.random.default_rng(7)
        return dict(kappa=1.9e-5, mass_coeff=230.0,
                    velocity=rng.normal(size=(mesh.nnodes, 3)), source=0.4)

    def test_repeated_assemblies_bit_identical(self, mesh):
        """The first call builds the constant part, the second reuses it;
        both produce the same operator bit for bit."""
        kw = self._operands(mesh)
        drop_cache(mesh)
        first = assemble_operator(mesh, **kw)
        second = assemble_operator(mesh, **kw)
        for attr in ("indices", "indptr", "data"):
            assert np.array_equal(getattr(first.matrix, attr),
                                  getattr(second.matrix, attr))
        assert np.array_equal(first.rhs, second.rhs)
        assert np.array_equal(first.scatter_counts, second.scatter_counts)

    def test_constant_operator_is_cached_copy(self, mesh):
        """velocity=None: the whole operator is constant across repeats."""
        a = assemble_operator(mesh, kappa=1.0, mass_coeff=2.0)
        cache = cache_for(mesh)
        hits0 = cache.hits
        b = assemble_operator(mesh, kappa=1.0, mass_coeff=2.0)
        assert cache.hits > hits0
        assert np.array_equal(a.matrix.data, b.matrix.data)
        assert a.matrix.data is not b.matrix.data

    def test_returned_arrays_are_copy_safe(self, mesh):
        """Mutating a result must not corrupt the cached constant blocks."""
        kw = self._operands(mesh)
        first = assemble_operator(mesh, **kw)
        rhs, data = first.rhs.copy(), first.matrix.data.copy()
        counts = first.scatter_counts.copy()
        first.rhs += 99.0
        first.matrix.data[:] = -1.0
        first.scatter_counts[:] = 0
        second = assemble_operator(mesh, **kw)
        assert np.array_equal(second.rhs, rhs)
        assert np.array_equal(second.matrix.data, data)
        assert np.array_equal(second.scatter_counts, counts)

    def test_stale_connectivity_still_detected(self, mesh):
        from repro.mesh import ElementType

        assemble_operator(mesh, kappa=1.0)
        tet = int(np.nonzero(mesh.elem_types == ElementType.TET)[0][0])
        mesh.elem_types[tet] = ElementType.PRISM
        mesh.elem_nodes[tet, 4:] = mesh.elem_nodes[tet, 0]
        with pytest.raises(ValueError, match="stale"):
            assemble_operator(mesh, kappa=1.0)


# -- SGS with cached geometry ----------------------------------------------

class TestSGSGeometry:
    def test_cached_geometry_is_bit_identical(self, mesh):
        """A sweep on a cold cache (geometry built) and one on the warm
        cache (geometry served) agree bit for bit."""
        rng = np.random.default_rng(5)
        vel = rng.normal(size=(mesh.nnodes, 3))

        def sweep():
            state = SGSState.zeros(mesh.nelem)
            for _ in range(3):
                update_sgs(mesh, state, vel, viscosity=1.9e-5, dt=1e-4)
            return state.values

        drop_cache(mesh)
        cold = sweep()
        assert np.array_equal(cold, sweep())

    def test_restricted_element_set(self, mesh):
        rng = np.random.default_rng(6)
        vel = rng.normal(size=(mesh.nnodes, 3))
        ids = np.arange(mesh.nelem // 3)

        def sweep(element_ids=None):
            state = SGSState.zeros(mesh.nelem)
            update_sgs(mesh, state, vel, viscosity=1.9e-5, dt=1e-4,
                       element_ids=element_ids)
            return state.values

        # element-local kernel: a restricted sweep updates exactly the
        # selected elements, to the values a full sweep gives them
        part, full = sweep(ids), sweep()
        assert np.allclose(part[ids], full[ids], rtol=1e-12, atol=0.0)
        assert not part[mesh.nelem // 3:].any()


# -- shared centroid KD-tree -----------------------------------------------

class TestSharedCentroidTree:
    def test_fields_share_one_tree(self, mesh):
        from repro.particles.interpolation import MeshVelocityField

        drop_cache(mesh)
        vel = np.zeros((mesh.nnodes, 3))
        f1 = MeshVelocityField(mesh, vel)
        f2 = MeshVelocityField(mesh, vel)
        assert f1._tree is f2._tree
        drop_cache(mesh)
        f3 = MeshVelocityField(mesh, vel)
        assert f3._tree is not f1._tree
        # a shared and a rebuilt tree answer identically
        pts = mesh.coords[:10] + 1e-4
        assert np.array_equal(f1.host_elements(pts), f3.host_elements(pts))


# -- driver exchange topology ----------------------------------------------

class TestExchangeTopology:
    def test_vectorized_topology_matches_nested_loop(self):
        from repro.app.driver import RunConfig, _RunContext
        from repro.app.workload import WorkloadSpec, get_workload

        wl = get_workload(WorkloadSpec(generations=3, points_per_ring=6,
                                       n_steps=2))
        config = RunConfig(cluster="thunder", num_nodes=1, nranks=8,
                           mode="coupled", fluid_ranks=6)
        ctx = _RunContext(wl, config)
        fluid_n, particle_n = 6, 2
        overlap = wl.overlap_bytes(fluid_n, particle_n,
                                   method=config.partition_method)
        sends = [[] for _ in range(fluid_n)]
        recvs = [[] for _ in range(particle_n)]
        for i in range(fluid_n):          # the former nested python loop
            for j in range(particle_n):
                if overlap[i, j] > 0:
                    sends[i].append((ctx.particle_world_ranks[j],
                                     float(overlap[i, j])))
                    recvs[j].append(ctx.fluid_world_ranks[i])
        assert ctx.sends == sends
        assert ctx.recvs == recvs
        assert any(sends)  # the workload must actually exercise the path
