"""Deflated conjugate gradients — Alya's production continuity solver.

Alya solves the pressure (continuity) system with a *deflated* CG: a coarse
space built from subdomain-constant vectors removes the low-frequency error
components that plain CG struggles with on Poisson-like systems, making the
iteration count nearly independent of the domain size (Vázquez et al. 2016;
Houzeaux et al. 2018, "HPC dos and don'ts").

Given a group assignment (e.g. one group per partition subdomain), the
coarse space is W in R^{n x k} with W[i, g] = 1 iff node i belongs to group
g.  Deflation projects the residual with

    P = I - A W E^{-1} W^T,        E = W^T A W   (k x k, dense-factorable)

CG then iterates on the deflected system and the coarse component
``W E^{-1} W^T b`` is added back — the standard two-level deflation of
Saad, Yeung, Erhel & Guyomarc'h (2000).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular

from .krylov import SolveResult

__all__ = ["DeflationSetup", "coarse_space_from_groups", "deflated_cg"]


def coarse_space_from_groups(groups: np.ndarray,
                             ngroups: Optional[int] = None) -> sparse.csr_matrix:
    """Sparse indicator matrix W (n x k) from a per-row group assignment."""
    groups = np.asarray(groups)
    n = len(groups)
    if n == 0:
        raise ValueError("groups must be non-empty")
    if (groups < 0).any():
        raise ValueError("group ids must be >= 0")
    k = int(ngroups if ngroups is not None else groups.max() + 1)
    data = np.ones(n)
    return sparse.csr_matrix((data, (np.arange(n), groups)), shape=(n, k))


class DeflationSetup:
    """Reusable coarse-space setup for :func:`deflated_cg`.

    Alya builds the continuity solver's deflation operators once and
    amortizes them over thousands of time steps; this object is that
    amortized state: the sparse indicator matrix ``W`` (n x k), the sparse
    product ``AW = A @ W`` (at most nnz(A) stored entries — the dense
    (n, k) intermediate of the naive formulation is never materialized),
    the dense coarse operator ``E = W^T A W`` (k x k) and its Cholesky
    factor.  A singular ``E`` (e.g. a pure-Neumann operator whose constant
    vector the coarse space contains) falls back to least squares.

    Build once per ``(A, groups)`` and pass via ``deflated_cg(...,
    setup=...)``; the setup holds no solve state, so one instance is safe
    to share across any number of solves against the same operator.
    """

    def __init__(self, A: sparse.spmatrix, groups: np.ndarray,
                 ngroups: Optional[int] = None):
        self.groups = np.asarray(groups)
        self.W = coarse_space_from_groups(self.groups, ngroups)
        self.AW = (A @ self.W).tocsr()                # sparse (n, k)
        self.E = np.asarray((self.W.T @ self.AW).toarray())   # dense (k, k)
        try:
            self._chol = np.linalg.cholesky(self.E)
        except np.linalg.LinAlgError:
            # singular coarse operator (e.g. fully regularized out): fall
            # back to least squares per solve
            self._chol = None

    @property
    def singular(self) -> bool:
        """True when ``E`` was not positive definite (lstsq fallback)."""
        return self._chol is None

    def coarse_solve(self, r: np.ndarray) -> np.ndarray:
        """``E^-1 W^T r`` (least-squares pseudo-solve when E is singular).

        Uses forward/back substitution on the triangular Cholesky factor —
        O(k^2) per call, where the general ``np.linalg.solve`` would
        re-factorize the (already triangular!) factor at O(k^3) on every
        deflation application.
        """
        rhs = self.W.T @ r
        if self._chol is not None:
            y = solve_triangular(self._chol, rhs, lower=True)
            return solve_triangular(self._chol.T, y, lower=False)
        return np.linalg.lstsq(self.E, rhs, rcond=None)[0]

    def deflate(self, r: np.ndarray) -> np.ndarray:
        """``P r = r - A W E^-1 W^T r``."""
        return r - self.AW @ self.coarse_solve(r)


def deflated_cg(A: sparse.spmatrix, b: np.ndarray,
                groups: Optional[np.ndarray] = None,
                tol: float = 1e-8, maxiter: int = 500,
                M: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                setup: Optional[DeflationSetup] = None) -> SolveResult:
    """Deflated (optionally preconditioned) CG for SPD ``A``.

    Parameters
    ----------
    A, b:
        The SPD system.
    groups:
        (n,) int group id per unknown — the coarse space is one constant
        vector per group (subdomain deflation).  May be omitted when a
        prebuilt ``setup`` is passed.
    tol, maxiter, M:
        As in :func:`repro.solver.cg`.
    setup:
        Optional prebuilt :class:`DeflationSetup` for ``(A, groups)``.
        Passing it skips the per-call coarse-space construction and
        factorization entirely (the Alya amortization); the iteration is
        unchanged, so the solution is bit-identical to a per-call setup.

    A non-positive or non-finite ``p^T A p`` stops the iteration at that
    step and is reported in :attr:`SolveResult.breakdown` with the reason
    :func:`repro.solver.cg` gives it; there is no retry.
    """
    n = len(b)
    if setup is None:
        if groups is None:
            raise TypeError("deflated_cg needs either groups or setup")
        setup = DeflationSetup(A, groups)
    W = setup.W
    coarse_solve = setup.coarse_solve

    def deflate(r: np.ndarray) -> np.ndarray:
        """P r = r - A W E^-1 W^T r."""
        return setup.deflate(r)

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveResult(x=np.zeros(n), converged=True, iterations=0,
                           residuals=[0.0], matvecs=0)
    # coarse component of the solution
    x = W @ coarse_solve(b)
    r = b - A @ x
    matvecs = 1
    r = deflate(r)
    z = M(r) if M is not None else r
    p = z.copy()
    rz = float(r @ z)
    residuals = [float(np.linalg.norm(r) / norm_b)]
    iterations, breakdown, converged = maxiter, None, False
    for it in range(1, maxiter + 1):
        Ap = deflate(A @ p)
        matvecs += 1
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0:
            iterations = it
            breakdown = ("indefinite_operator" if np.isfinite(pAp)
                         else "nonfinite_residual")
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r) / norm_b)
        residuals.append(res)
        if res < tol:
            iterations, converged = it, True
            break
        z = M(r) if M is not None else r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    # recover the coarse part of the final solution:
    # x_final = x + W E^-1 W^T (b - A x)
    x = x + W @ coarse_solve(b - A @ x)
    matvecs += 1
    return SolveResult(x=x, converged=converged, iterations=iterations,
                       residuals=residuals, matvecs=matvecs,
                       breakdown=breakdown)
