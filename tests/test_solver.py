"""Unit tests for the Krylov solvers."""

import numpy as np
import pytest
from scipy import sparse

from repro.fem import assemble_operator
from repro.solver import bicgstab, cg, jacobi_preconditioner
from tests.test_fem import unit_cube_tets


def spd_system(n=80, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.08, random_state=rng)
    A = A @ A.T + sparse.identity(n) * n * 0.05
    b = rng.normal(size=n)
    return A.tocsr(), b


class TestCG:
    def test_solves_spd_system(self):
        A, b = spd_system()
        res = cg(A, b, tol=1e-10, maxiter=500)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-6)

    def test_residual_history_decreases_overall(self):
        A, b = spd_system()
        res = cg(A, b, tol=1e-10)
        assert res.residuals[-1] < res.residuals[0]

    def test_jacobi_preconditioner_helps_scaled_system(self):
        n = 120
        rng = np.random.default_rng(1)
        scale = sparse.diags(10.0 ** rng.uniform(-3, 3, size=n))
        A0, b = spd_system(n, seed=1)
        A = (scale @ A0 @ scale).tocsr()
        plain = cg(A, b, tol=1e-8, maxiter=2000)
        pre = cg(A, b, tol=1e-8, maxiter=2000,
                 M=jacobi_preconditioner(A))
        assert pre.iterations < plain.iterations

    def test_zero_rhs(self):
        A, _ = spd_system()
        res = cg(A, np.zeros(A.shape[0]))
        assert res.converged and np.allclose(res.x, 0.0)

    def test_maxiter_respected(self):
        A, b = spd_system(200, seed=3)
        res = cg(A, b, tol=1e-16, maxiter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_initial_guess_exact(self):
        A, b = spd_system()
        exact = cg(A, b, tol=1e-12, maxiter=1000).x
        res = cg(A, b, x0=exact, tol=1e-8)
        assert res.converged
        assert res.iterations <= 2

    def test_matvec_counter(self):
        A, b = spd_system()
        res = cg(A, b, tol=1e-10)
        assert res.matvecs == res.iterations + 1

    def test_fem_pressure_poisson(self):
        """Continuity-like solve: regularized Neumann Laplacian is SPD."""
        cube = unit_cube_tets(3)
        K = assemble_operator(cube, kappa=1.0).matrix
        M = assemble_operator(cube, kappa=0.0, mass_coeff=1.0).matrix
        A = (K + 1e-3 * M).tocsr()
        rng = np.random.default_rng(0)
        b = rng.normal(size=cube.nnodes)
        res = cg(A, b, tol=1e-9, maxiter=2000,
                 M=jacobi_preconditioner(A))
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-5)


class TestBiCGStab:
    def test_solves_nonsymmetric_system(self):
        n = 100
        rng = np.random.default_rng(2)
        A = (sparse.random(n, n, density=0.05, random_state=rng)
             + sparse.identity(n) * 4.0).tocsr()
        b = rng.normal(size=n)
        res = bicgstab(A, b, tol=1e-10, maxiter=500)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-6)

    def test_fem_momentum_system(self):
        """Momentum-like solve: mass/dt + convection + diffusion."""
        cube = unit_cube_tets(3)
        vel = np.tile([1.0, 0.5, 0.0], (cube.nnodes, 1))
        A = assemble_operator(cube, kappa=0.01, mass_coeff=1.0 / 1e-2,
                              velocity=vel).matrix.tocsr()
        rng = np.random.default_rng(1)
        b = rng.normal(size=cube.nnodes)
        res = bicgstab(A, b, tol=1e-9, maxiter=1000,
                       M=jacobi_preconditioner(A))
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-5)

    def test_zero_rhs(self):
        A, _ = spd_system()
        res = bicgstab(A, np.zeros(A.shape[0]))
        assert res.converged and np.allclose(res.x, 0.0)

    def test_matches_cg_on_spd(self):
        A, b = spd_system(seed=5)
        x_cg = cg(A, b, tol=1e-11, maxiter=1000).x
        x_bi = bicgstab(A, b, tol=1e-11, maxiter=1000).x
        np.testing.assert_allclose(x_cg, x_bi, atol=1e-6)

    def test_matches_scipy(self):
        from scipy.sparse import linalg as sla
        n = 90
        rng = np.random.default_rng(7)
        A = (sparse.random(n, n, density=0.06, random_state=rng)
             + sparse.identity(n) * 5.0).tocsr()
        b = rng.normal(size=n)
        ours = bicgstab(A, b, tol=1e-12, maxiter=2000)
        x_scipy, info = sla.bicgstab(A, b, rtol=1e-12, maxiter=2000)
        assert info == 0 and ours.converged
        np.testing.assert_allclose(ours.x, x_scipy, atol=1e-7)


class TestJacobi:
    def test_inverse_of_diagonal(self):
        A = sparse.diags([2.0, 4.0, 8.0]).tocsr()
        M = jacobi_preconditioner(A)
        np.testing.assert_allclose(M(np.ones(3)), [0.5, 0.25, 0.125])

    def test_zero_diagonal_guard(self):
        A = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        M = jacobi_preconditioner(A)
        out = M(np.ones(2))
        assert np.isfinite(out).all()


class TestBufferedCores:
    """The allocation-free cores allocate their vectors once per solve;
    their results against the recorded allocating-core solves are pinned
    in ``tests/golden_digests.json``."""

    @pytest.mark.parametrize("solve", [cg, bicgstab])
    def test_zero_rhs(self, solve):
        A, _ = spd_system(n=40, seed=1)
        res = solve(A, np.zeros(40))
        assert res.converged and res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_result_does_not_alias_workspace(self):
        """The returned solution must survive a later solve of the same
        size."""
        A, b = spd_system(n=60, seed=2)
        first = cg(A, b, tol=1e-10, maxiter=400)
        snapshot = first.x.copy()
        cg(A, 2.0 * b, tol=1e-10, maxiter=400)
        np.testing.assert_array_equal(first.x, snapshot)
