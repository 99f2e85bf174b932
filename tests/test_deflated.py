"""Unit tests for the deflated CG solver."""

import numpy as np
import pytest
from scipy import sparse

from repro.fem import assemble_operator
from repro.partition import rcb_partition
from repro.solver import DeflationSetup, cg, coarse_space_from_groups, \
    deflated_cg, jacobi_preconditioner
from tests.test_fem import unit_cube_tets


@pytest.fixture(scope="module")
def poisson_system():
    cube = unit_cube_tets(6)
    K = assemble_operator(cube, kappa=1.0).matrix
    M = assemble_operator(cube, kappa=0.0, mass_coeff=1.0).matrix
    A = (K + 1e-4 * M).tocsr()
    rng = np.random.default_rng(0)
    b = rng.normal(size=cube.nnodes)
    groups = rcb_partition(cube.coords, 16)
    return A, b, groups


class TestCoarseSpace:
    def test_indicator_structure(self):
        W = coarse_space_from_groups(np.array([0, 1, 1, 2, 0]))
        assert W.shape == (5, 3)
        dense = W.toarray()
        np.testing.assert_array_equal(dense.sum(axis=1), 1.0)
        assert dense[0, 0] == 1 and dense[3, 2] == 1

    def test_explicit_ngroups(self):
        W = coarse_space_from_groups(np.array([0, 0]), ngroups=4)
        assert W.shape == (2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            coarse_space_from_groups(np.array([], dtype=int))
        with pytest.raises(ValueError):
            coarse_space_from_groups(np.array([-1, 0]))


class TestDeflatedCG:
    def test_solves_to_tolerance(self, poisson_system):
        A, b, groups = poisson_system
        res = deflated_cg(A, b, groups, tol=1e-9, maxiter=2000)
        assert res.converged
        assert np.linalg.norm(A @ res.x - b) / np.linalg.norm(b) < 1e-8

    def test_fewer_iterations_than_plain_cg(self, poisson_system):
        """The whole point of deflation: low-frequency components removed."""
        A, b, groups = poisson_system
        plain = cg(A, b, tol=1e-8, maxiter=2000)
        defl = deflated_cg(A, b, groups, tol=1e-8, maxiter=2000)
        assert defl.converged and plain.converged
        assert defl.iterations < 0.8 * plain.iterations

    def test_with_jacobi_preconditioner(self, poisson_system):
        A, b, groups = poisson_system
        res = deflated_cg(A, b, groups, tol=1e-9, maxiter=2000,
                          M=jacobi_preconditioner(A))
        assert res.converged
        assert np.linalg.norm(A @ res.x - b) / np.linalg.norm(b) < 1e-8

    def test_matches_plain_cg_solution(self, poisson_system):
        A, b, groups = poisson_system
        x_plain = cg(A, b, tol=1e-11, maxiter=4000).x
        x_defl = deflated_cg(A, b, groups, tol=1e-11, maxiter=4000).x
        np.testing.assert_allclose(x_defl, x_plain, atol=1e-6)

    def test_single_group_equals_rank_one_deflation(self, poisson_system):
        A, b, _ = poisson_system
        res = deflated_cg(A, b, np.zeros(len(b), dtype=int), tol=1e-8,
                          maxiter=2000)
        assert res.converged

    def test_zero_rhs(self, poisson_system):
        A, _, groups = poisson_system
        res = deflated_cg(A, np.zeros(A.shape[0]), groups)
        assert res.converged and np.allclose(res.x, 0.0)

    def test_more_groups_fewer_iterations(self, poisson_system):
        """Richer coarse space => faster convergence (monotone trend)."""
        A, b, _ = poisson_system
        cube = unit_cube_tets(6)
        its = []
        for k in (2, 8, 32):
            groups = rcb_partition(cube.coords, k)
            its.append(deflated_cg(A, b, groups, tol=1e-8,
                                   maxiter=2000).iterations)
        assert its[2] < its[0]

    def test_needs_groups_or_setup(self, poisson_system):
        A, b, _ = poisson_system
        with pytest.raises(TypeError, match="groups or setup"):
            deflated_cg(A, b)

    @pytest.mark.parametrize("case", ["indefinite", "nonfinite"])
    def test_breakdown_reported_like_cg(self, case):
        """A breakdown stops at its iteration with cg's reason, not as an
        unconverged run to ``maxiter``."""
        n = 40
        laplacian = sparse.diags(
            [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
            [-1, 0, 1]).tocsr()
        # 1e200 keeps every vector finite while p^T A p overflows
        A, b = {"indefinite": (-laplacian, np.ones(n)),
                "nonfinite": (laplacian, np.full(n, 1e200))}[case]
        groups = np.arange(n) // 10
        with np.errstate(over="ignore", invalid="ignore"):
            res = deflated_cg(A, b, groups, maxiter=500)
            ref = cg(A, b, maxiter=500, retry_on_breakdown=False)
        assert not res.converged
        assert res.breakdown == ref.breakdown == {
            "indefinite": "indefinite_operator",
            "nonfinite": "nonfinite_residual"}[case]
        assert res.iterations == ref.iterations == 1

    @pytest.mark.parametrize("case", ["converged", "maxiter", "breakdown"])
    def test_matvecs_counts_every_product(self, poisson_system, case):
        """``matvecs`` is the number of products with ``A``, whichever way
        the solve ends: the initial residual, one per iteration and the
        final coarse correction."""
        A, b, groups = poisson_system
        if case == "breakdown":
            A = -A
        setup = DeflationSetup(A, groups)

        class Counting:
            products = 0

            def __matmul__(self, v):
                Counting.products += 1
                return A @ v

        maxiter = 3 if case == "maxiter" else 2000
        res = deflated_cg(Counting(), b, tol=1e-8, maxiter=maxiter,
                          setup=setup)
        assert res.converged == (case == "converged")
        assert (res.breakdown is not None) == (case == "breakdown")
        assert res.matvecs == Counting.products
        assert res.matvecs == res.iterations + 2


class TestDeflationSetup:
    def test_cached_setup_solution_bit_identical(self, poisson_system):
        """The whole contract of setup reuse: the iteration is unchanged,
        so a shared setup reproduces the per-call-setup solve exactly."""
        A, b, groups = poisson_system
        setup = DeflationSetup(A, groups)
        per_call = deflated_cg(A, b, groups, tol=1e-9, maxiter=2000)
        for _ in range(3):
            shared = deflated_cg(A, b, tol=1e-9, maxiter=2000, setup=setup)
            assert shared.x.tobytes() == per_call.x.tobytes()
            assert shared.iterations == per_call.iterations
            assert shared.residuals == per_call.residuals

    def test_coarse_blocks_stay_sparse(self, poisson_system):
        """Regression for the dense coarse block: W and AW must be sparse
        and no dense (n, k) intermediate may materialize during a solve
        (the original formulation went through ``W.toarray()``)."""
        A, b, groups = poisson_system
        setup = DeflationSetup(A, groups)
        assert sparse.issparse(setup.W)
        assert sparse.issparse(setup.AW)
        assert setup.AW.shape == setup.W.shape

        def boom(*args, **kwargs):  # pragma: no cover - fails the test
            raise AssertionError("dense (n, k) coarse block materialized")

        setup.W.toarray = boom
        setup.AW.toarray = boom
        res = deflated_cg(A, b, tol=1e-8, maxiter=2000, setup=setup)
        assert res.converged

    def test_singular_coarse_operator_lstsq_fallback(self, poisson_system):
        """An empty coarse group gives W a zero column, so E is exactly
        singular: the setup must fall back to least squares instead of
        raising, and the solve must still converge."""
        A, b, groups = poisson_system
        setup = DeflationSetup(A, groups, ngroups=int(groups.max()) + 2)
        assert setup.singular
        res = deflated_cg(A, b, tol=1e-8, maxiter=2000, setup=setup)
        assert res.converged
        assert np.linalg.norm(A @ res.x - b) / np.linalg.norm(b) < 1e-7

    def test_nonsingular_setup_uses_cholesky(self, poisson_system):
        A, _, groups = poisson_system
        setup = DeflationSetup(A, groups)
        assert not setup.singular

    def test_zero_rhs_with_setup(self, poisson_system):
        A, _, groups = poisson_system
        setup = DeflationSetup(A, groups)
        res = deflated_cg(A, np.zeros(A.shape[0]), setup=setup)
        assert res.converged and res.iterations == 0
        assert np.allclose(res.x, 0.0)
