"""Algebraic solvers: CG and deflated CG (continuity), BiCGStab (momentum),
Jacobi preconditioning."""

from .deflated import DeflationSetup, coarse_space_from_groups, deflated_cg
from .krylov import (
    SolveResult,
    SolverBreakdown,
    bicgstab,
    cg,
    jacobi_preconditioner,
)

__all__ = [
    "DeflationSetup",
    "SolveResult",
    "SolverBreakdown",
    "bicgstab",
    "cg",
    "coarse_space_from_groups",
    "deflated_cg",
    "jacobi_preconditioner",
]
