"""Finite-element substrate: shape functions/quadrature, vectorized scalar
and vector assembly with work meters, Dirichlet BCs, the VMS subgrid-scale
update, the fractional-step Navier-Stokes solver, and the shared
static-geometry cache feeding the kernels."""

from .assembly import AssemblyResult, assemble_operator, element_work_meters
from .dirichlet import apply_dirichlet, apply_dirichlet_symmetric
from .fractional_step import FlowBC, FractionalStepSolver, StepInfo
from .geometry import (
    ElementGeometry,
    CACHE_BUDGET_BYTES,
    GeometryCache,
    cache_for,
    drop_cache,
    element_sizes,
    geometry_blocks,
    node_sharing_graph,
)
from .sgs import SGSState, update_sgs
from .timestep import CflController, DtLadder, cfl_rate, element_cfl_rates
from .shape import ReferenceElement, reference_element
from .vector import (
    deinterleave,
    divergence_operator,
    gradient_operator,
    interleave,
    vector_operator,
)

__all__ = [
    "AssemblyResult",
    "CACHE_BUDGET_BYTES",
    "CflController",
    "DtLadder",
    "ElementGeometry",
    "FlowBC",
    "FractionalStepSolver",
    "GeometryCache",
    "ReferenceElement",
    "SGSState",
    "StepInfo",
    "apply_dirichlet",
    "apply_dirichlet_symmetric",
    "assemble_operator",
    "cache_for",
    "cfl_rate",
    "drop_cache",
    "element_cfl_rates",
    "element_sizes",
    "geometry_blocks",
    "node_sharing_graph",
    "deinterleave",
    "divergence_operator",
    "element_work_meters",
    "gradient_operator",
    "interleave",
    "reference_element",
    "update_sgs",
    "vector_operator",
]
