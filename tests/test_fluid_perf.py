"""Unit tests for the numeric fluid solver's recycled operators: the
momentum-operator gather, the cached deflation setup and the Dirichlet
slot maps.  The absolute tube-flow fields and Krylov iteration counts are
pinned in ``tests/golden_digests.json``.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.fem import (FlowBC, FractionalStepSolver, apply_dirichlet,
                       assemble_operator, vector_operator)
from repro.fem.dirichlet import DirichletSlots
from repro.fem.fractional_step import FLUID_COUNTERS
from repro.fem.vector import vector_expansion_perm
from repro.mesh.airway import Segment
from repro.mesh.generator import MeshResolution, build_tube_mesh


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
    u_in[:, 2] = -1.0 * (1.0 - (r[inlet] / 0.01) ** 2)
    bc = FlowBC(inlet_nodes=inlet, inlet_velocity=u_in, wall_nodes=wall,
                outlet_nodes=outlet)
    return mesh, bc


class TestFluidSolverPaths:
    def test_counters_track_the_active_path(self, tube):
        mesh, bc = tube
        before = dict(FLUID_COUNTERS)
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3, pressure_solver="deflated")
        solver.run(2, tol=1e-6)
        assert FLUID_COUNTERS["momentum_recycled"] \
            == before["momentum_recycled"] + 2
        assert FLUID_COUNTERS["deflation_setups_built"] \
            == before["deflation_setups_built"] + 1
        assert FLUID_COUNTERS["deflation_setups_reused"] \
            == before["deflation_setups_reused"] + 2
        assert FLUID_COUNTERS["pressure_deflated_solves"] \
            == before["pressure_deflated_solves"] + 2

    def test_stale_pattern_raises(self, tube):
        """The recycler refuses to gather through a pattern that no longer
        matches the scalar assembly (static-mesh contract)."""
        mesh, bc = tube
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3)
        solver._scalar_nnz += 1
        with pytest.raises(ValueError, match="stale"):
            solver.step(tol=1e-6)

    def test_lumped_mass_cached(self, tube):
        mesh, bc = tube
        solver = FractionalStepSolver(mesh, bc, viscosity=1e-3, density=1.0,
                                      dt=2e-3)
        np.testing.assert_array_equal(
            solver._lumped, np.asarray(solver.M.sum(axis=1)).ravel())
        nodes = bc.outlet_nodes
        normal = np.array([0.0, 0.0, -1.0])
        u_n = solver.u[nodes] @ normal
        w = np.asarray(solver.M.sum(axis=1)).ravel()[nodes]
        expected = float((u_n * w).sum() / w.sum())
        assert solver.flow_rate_through(nodes, normal) == expected


class TestVectorExpansionPerm:
    def test_reproduces_vector_operator_bitwise(self, tube):
        mesh, _ = tube
        scalar = assemble_operator(mesh, kappa=1e-3, mass_coeff=500.0,
                                   velocity=np.ones((mesh.nnodes, 3))).matrix
        perm, indices, indptr = vector_expansion_perm(scalar, mesh.nnodes)
        naive = vector_operator(mesh, kappa=1e-3, mass_coeff=500.0,
                                velocity=np.ones((mesh.nnodes, 3)))
        np.testing.assert_array_equal(indices, naive.indices)
        np.testing.assert_array_equal(indptr, naive.indptr)
        np.testing.assert_array_equal(scalar.data[perm], naive.data)


class TestDirichletSlots:
    def _system(self, n=40, seed=4):
        rng = np.random.default_rng(seed)
        A = sparse.random(n, n, density=0.15, random_state=rng).tocsr()
        A = A + sparse.identity(n)  # stored diagonal
        dofs = np.array([0, 5, 17, n - 1])
        values = np.array([1.0, -2.0, 0.5, 3.0])
        return A.tocsr(), dofs, values

    def test_apply_matches_apply_dirichlet_bitwise(self):
        A, dofs, values = self._system()
        slots = DirichletSlots(A, dofs, values)
        rng = np.random.default_rng(7)
        for _ in range(3):
            data = rng.normal(size=A.nnz)
            B = sparse.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
            b = rng.normal(size=A.shape[0])
            ref_A, ref_b = apply_dirichlet(B, b.copy(), dofs, values)
            got_A, got_b = slots.apply(data, b.copy())
            np.testing.assert_array_equal(got_A.indptr, ref_A.indptr)
            np.testing.assert_array_equal(got_A.indices, ref_A.indices)
            np.testing.assert_array_equal(got_A.data, ref_A.data)
            np.testing.assert_array_equal(got_b, ref_b)

    def test_diag_slots_view_the_diagonal(self):
        A, dofs, values = self._system()
        slots = DirichletSlots(A, dofs, values)
        assert slots.diag_slots is not None
        data = np.arange(1.0, A.nnz + 1)
        got_A, _ = slots.apply(data, np.zeros(A.shape[0]))
        np.testing.assert_array_equal(
            got_A.data[slots.diag_slots], got_A.diagonal())

    def test_stale_data_length_raises(self):
        A, dofs, values = self._system()
        slots = DirichletSlots(A, dofs, values)
        with pytest.raises(ValueError, match="stale"):
            slots.apply(np.zeros(A.nnz + 3), np.zeros(A.shape[0]))
