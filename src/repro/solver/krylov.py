"""Krylov solvers — the paper's "Solver1" (momentum) and "Solver2"
(continuity) phases.

Implemented from scratch (NumPy only):

* :func:`cg` — preconditioned conjugate gradients, for the SPD continuity
  (pressure Poisson) system;
* :func:`bicgstab` — BiCGStab, for the nonsymmetric stabilized momentum
  system.

Both report per-iteration residual histories and the work counters (matvec
count, nnz touched) the performance layer converts into simulated time: a
solver iteration costs ~ ``nnz`` ops and, in the MPI execution, one
allreduce per dot product — which is where solver phases block and DLB can
act.

Robustness: the iteration cores detect *breakdown* — a non-finite residual
(NaN/inf contamination), a stagnating residual, or an algebraic degeneracy
(loss of positive-definiteness in CG; a vanishing rho/omega in BiCGStab) —
and raise :class:`SolverBreakdown`.  The public wrappers recover once by
restarting from scratch with a fresh Jacobi preconditioner; if the retry
also breaks down the failure is surfaced *structurally* in
:attr:`SolveResult.breakdown` instead of propagating NaNs into the flow
field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

try:  # pragma: no cover - scipy always ships _sparsetools today
    from scipy.sparse import _sparsetools as _st
    _HAVE_CSR_MATVEC = hasattr(_st, "csr_matvec")
except ImportError:  # pragma: no cover
    _st = None
    _HAVE_CSR_MATVEC = False

__all__ = ["SolveResult", "SolverBreakdown", "cg", "bicgstab",
           "jacobi_preconditioner"]

#: residual-stagnation default: breakdown if no new best relative residual
#: appears for this many consecutive iterations
STAGNATION_WINDOW = 100

FaultHook = Callable[[int, np.ndarray], np.ndarray]


class SolverBreakdown(RuntimeError):
    """An iterative solve cannot continue (NaN/inf, stagnation, degeneracy).

    Attributes
    ----------
    reason:
        Short machine-readable cause (``"nonfinite_residual"``,
        ``"stagnation"``, ``"indefinite_operator"``, ``"rho_breakdown"``,
        ``"omega_breakdown"``, ...).
    iteration:
        Iteration index at which the breakdown was detected.
    residuals / matvecs:
        Work spent before the breakdown, so recovery can account the full
        cost of a recovered solve.
    """

    def __init__(self, reason: str, iteration: int,
                 residuals: Optional[list] = None, matvecs: int = 0):
        super().__init__(f"solver breakdown at iteration {iteration}: "
                         f"{reason}")
        self.reason = reason
        self.iteration = iteration
        self.residuals = residuals or []
        self.matvecs = matvecs


@dataclass
class SolveResult:
    """Outcome of an iterative solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: list[float] = field(default_factory=list)
    matvecs: int = 0
    #: breakdown reason when the solve failed structurally (None otherwise)
    breakdown: Optional[str] = None
    #: True when a breakdown occurred but the re-preconditioned retry
    #: produced this (usable) result
    recovered: bool = False

    @property
    def final_residual(self) -> float:
        """Relative residual at exit."""
        return self.residuals[-1] if self.residuals else np.inf


def jacobi_preconditioner(A: sparse.spmatrix) -> Callable[[np.ndarray],
                                                          np.ndarray]:
    """Diagonal (Jacobi) preconditioner ``z = D^-1 r``."""
    diag = np.asarray(A.diagonal()).ravel().copy()
    small = np.abs(diag) < 1e-300
    diag[small] = 1.0
    inv = 1.0 / diag

    def apply(r: np.ndarray) -> np.ndarray:
        return inv * r

    return apply


def _matvec(A, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = A @ x`` without allocating, bit-identical to ``A @ x``.

    SciPy's CSR matvec accumulates row sums into a zero-initialized result
    in nonzero order; calling the same kernel on a reused zeroed buffer
    performs the identical floating-point operation sequence.  Non-CSR
    operators fall back to the allocating product (values still identical).
    """
    if _HAVE_CSR_MATVEC and sparse.isspmatrix_csr(A):
        out[...] = 0.0
        _st.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices,
                       A.data, x, out)
        return out
    out[...] = A @ x
    return out


class _StagnationGuard:
    """Tracks the best residual seen; trips after ``window`` flat iters."""

    def __init__(self, window: int):
        self.window = window
        self.best = np.inf
        self.flat = 0

    def check(self, res: float, it: int) -> None:
        if not np.isfinite(res):
            raise SolverBreakdown("nonfinite_residual", it)
        if res < self.best * (1.0 - 1e-12):
            self.best = res
            self.flat = 0
        else:
            self.flat += 1
            if self.window > 0 and self.flat >= self.window:
                raise SolverBreakdown("stagnation", it)


def _cg_core(A: sparse.spmatrix, b: np.ndarray,
                      x0: Optional[np.ndarray], tol: float, maxiter: int,
                      M: Optional[Callable[[np.ndarray], np.ndarray]],
                      fault: Optional[FaultHook],
                      stagnation_window: int) -> SolveResult:
    """Allocation-free CG iteration core; raises :class:`SolverBreakdown`
    on failure.

    The iteration vectors are allocated once per solve; every axpy
    is an ``out=`` pair (``np.multiply`` then ``np.add``/``np.subtract``)
    performing the same scalar-times-element and element-plus-element
    operations, in the same order, as the one-line NumPy expressions.
    """
    n = len(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveResult(x=np.zeros(n), converged=True, iterations=0,
                           residuals=[0.0], matvecs=1)
    x, r, p, Ap, tmp = (np.empty(n) for _ in range(5))
    if x0 is None:
        x[...] = 0.0
    else:
        np.copyto(x, x0)
    _matvec(A, x, tmp)
    np.subtract(b, tmp, out=r)
    matvecs = 1
    z = M(r) if M is not None else r
    np.copyto(p, z)
    rz = float(r @ z)
    residuals = [float(np.linalg.norm(r) / norm_b)]
    guard = _StagnationGuard(stagnation_window)
    try:
        for it in range(1, maxiter + 1):
            _matvec(A, p, Ap)
            matvecs += 1
            pAp = float(p @ Ap)
            if not np.isfinite(pAp):
                raise SolverBreakdown("nonfinite_residual", it)
            if pAp <= 0:
                raise SolverBreakdown("indefinite_operator", it)
            alpha = rz / pAp
            np.multiply(p, alpha, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(Ap, alpha, out=tmp)
            np.subtract(r, tmp, out=r)
            if fault is not None:
                faulted = fault(it, r)
                if faulted is not r:
                    np.copyto(r, faulted)
            res = float(np.linalg.norm(r) / norm_b)
            residuals.append(res)
            guard.check(res, it)
            if res < tol:
                return SolveResult(x=x, converged=True, iterations=it,
                                   residuals=residuals, matvecs=matvecs)
            z = M(r) if M is not None else r
            rz_new = float(r @ z)
            beta = rz_new / rz
            rz = rz_new
            np.multiply(p, beta, out=tmp)
            np.add(z, tmp, out=p)
    except SolverBreakdown as exc:
        exc.residuals = residuals
        exc.matvecs = matvecs
        raise
    return SolveResult(x=x, converged=False, iterations=maxiter,
                       residuals=residuals, matvecs=matvecs)


def _bicgstab_core(A: sparse.spmatrix, b: np.ndarray,
                            x0: Optional[np.ndarray], tol: float,
                            maxiter: int,
                            M: Optional[Callable[[np.ndarray], np.ndarray]],
                            fault: Optional[FaultHook],
                            stagnation_window: int) -> SolveResult:
    """Allocation-free BiCGStab iteration core; raises
    :class:`SolverBreakdown` on failure.

    Compound updates decompose into the same elementary steps as the
    one-line NumPy expressions: ``p = r + beta*(p - omega*v)`` becomes
    ``tmp = omega*v; tmp = p - tmp; tmp = beta*tmp; p = r + tmp``, which
    is the evaluation order NumPy uses for the one-liner.
    """
    n = len(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveResult(x=np.zeros(n), converged=True, iterations=0,
                           residuals=[0.0], matvecs=1)
    x, r, r_hat, v, p, s, t, tmp, tmp2 = (np.empty(n) for _ in range(9))
    if x0 is None:
        x[...] = 0.0
    else:
        np.copyto(x, x0)
    _matvec(A, x, tmp)
    np.subtract(b, tmp, out=r)
    matvecs = 1
    np.copyto(r_hat, r)
    rho = alpha = omega = 1.0
    v[...] = 0.0
    p[...] = 0.0
    residuals = [float(np.linalg.norm(r) / norm_b)]
    guard = _StagnationGuard(stagnation_window)
    try:
        for it in range(1, maxiter + 1):
            rho_new = float(r_hat @ r)
            if not np.isfinite(rho_new):
                raise SolverBreakdown("nonfinite_residual", it)
            if abs(rho_new) < 1e-300:
                raise SolverBreakdown("rho_breakdown", it)
            beta = (rho_new / rho) * (alpha / omega) if it > 1 else 0.0
            rho = rho_new
            np.multiply(v, omega, out=tmp)
            np.subtract(p, tmp, out=tmp)
            np.multiply(tmp, beta, out=tmp)
            np.add(r, tmp, out=p)
            phat = M(p) if M is not None else p
            _matvec(A, phat, v)
            matvecs += 1
            denom = float(r_hat @ v)
            if abs(denom) < 1e-300:
                raise SolverBreakdown("orthogonality_breakdown", it)
            alpha = rho / denom
            np.multiply(v, alpha, out=tmp)
            np.subtract(r, tmp, out=s)
            if np.linalg.norm(s) / norm_b < tol:
                np.multiply(phat, alpha, out=tmp)
                np.add(x, tmp, out=x)
                residuals.append(float(np.linalg.norm(s) / norm_b))
                return SolveResult(x=x, converged=True, iterations=it,
                                   residuals=residuals, matvecs=matvecs)
            shat = M(s) if M is not None else s
            _matvec(A, shat, t)
            matvecs += 1
            tt = float(t @ t)
            if not np.isfinite(tt):
                raise SolverBreakdown("nonfinite_residual", it)
            if tt < 1e-300:
                raise SolverBreakdown("t_breakdown", it)
            omega = float(t @ s) / tt
            np.multiply(phat, alpha, out=tmp)
            np.multiply(shat, omega, out=tmp2)
            np.add(tmp, tmp2, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(t, omega, out=tmp)
            np.subtract(s, tmp, out=r)
            if fault is not None:
                faulted = fault(it, r)
                if faulted is not r:
                    np.copyto(r, faulted)
            res = float(np.linalg.norm(r) / norm_b)
            residuals.append(res)
            guard.check(res, it)
            if res < tol:
                return SolveResult(x=x, converged=True, iterations=it,
                                   residuals=residuals, matvecs=matvecs)
            if abs(omega) < 1e-300:
                raise SolverBreakdown("omega_breakdown", it)
    except SolverBreakdown as exc:
        exc.residuals = residuals
        exc.matvecs = matvecs
        raise
    return SolveResult(x=x, converged=False, iterations=maxiter,
                       residuals=residuals, matvecs=matvecs)


def _recovering(core, A, b, x0, tol, maxiter, M, fault,
                retry_on_breakdown, stagnation_window) -> SolveResult:
    """Run ``core``; on breakdown, retry once re-preconditioned.

    A recovered result accounts the *total* work: iterations, matvecs and
    residual history of the broken-down attempt plus the retry.
    """
    try:
        return core(A, b, x0, tol, maxiter, M, fault, stagnation_window)
    except SolverBreakdown as first:
        if not retry_on_breakdown:
            return SolveResult(x=np.zeros(len(b)), converged=False,
                               iterations=first.iteration,
                               residuals=list(first.residuals),
                               matvecs=first.matvecs,
                               breakdown=first.reason)
        # Recovery policy: restart from zero with a fresh Jacobi
        # preconditioner and without the transient fault source.
        try:
            result = core(A, b, None, tol, maxiter,
                          jacobi_preconditioner(A), None, stagnation_window)
        except SolverBreakdown as second:
            return SolveResult(
                x=np.zeros(len(b)), converged=False,
                iterations=first.iteration + second.iteration,
                residuals=list(first.residuals) + list(second.residuals),
                matvecs=first.matvecs + second.matvecs,
                breakdown=f"{first.reason}+{second.reason}")
        result.recovered = True
        result.iterations += first.iteration
        result.matvecs += first.matvecs
        result.residuals = list(first.residuals) + result.residuals
        return result


def cg(A: sparse.spmatrix, b: np.ndarray,
       x0: Optional[np.ndarray] = None,
       tol: float = 1e-8, maxiter: int = 500,
       M: Optional[Callable[[np.ndarray], np.ndarray]] = None,
       fault: Optional[FaultHook] = None,
       retry_on_breakdown: bool = True,
       stagnation_window: int = STAGNATION_WINDOW) -> SolveResult:
    """Preconditioned conjugate gradients for SPD ``A``.

    ``fault`` is an optional hook ``r = fault(it, r)`` applied to the
    residual each iteration (fault injection); breakdown triggers one
    re-preconditioned retry unless ``retry_on_breakdown`` is False.
    """
    return _recovering(_cg_core, A, b, x0, tol, maxiter, M, fault,
                       retry_on_breakdown, stagnation_window)


def bicgstab(A: sparse.spmatrix, b: np.ndarray,
             x0: Optional[np.ndarray] = None,
             tol: float = 1e-8, maxiter: int = 500,
             M: Optional[Callable[[np.ndarray], np.ndarray]] = None,
             fault: Optional[FaultHook] = None,
             retry_on_breakdown: bool = True,
             stagnation_window: int = STAGNATION_WINDOW) -> SolveResult:
    """BiCGStab for general (nonsymmetric) ``A``.

    Same breakdown/recovery contract as :func:`cg`.
    """
    return _recovering(_bicgstab_core, A, b, x0, tol, maxiter, M, fault,
                       retry_on_breakdown, stagnation_window)
