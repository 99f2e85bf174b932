"""Subgrid-scale (SGS) velocity computation — the paper's "SGS" phase.

In Alya's Variational MultiScale (VMS) formulation (Houzeaux & Principe
2008) the velocity is split into a resolved (grid) scale and a subgrid
scale; the subgrid velocity is tracked per element and updated each step
from the momentum residual:

    u_sgs <- tau_e * R(u_h),    tau_e^-1 ~ c1 nu / h^2 + c2 |u| / h

The computational signature matters for the reproduction: a loop over
elements with **no shared updates** (each element owns its u_sgs), so the
parallel versions need no atomics — the paper uses this phase (Fig. 7) to
measure the pure *overhead* of coloring and multidependences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mesh.mesh import Mesh
from . import geometry as _geom
from .shape import reference_element

__all__ = ["SGSState", "update_sgs"]

_C1 = 4.0
_C2 = 2.0


@dataclass
class SGSState:
    """Per-element subgrid-scale velocity."""

    values: np.ndarray   # (nelem, 3)

    @classmethod
    def zeros(cls, nelem: int) -> "SGSState":
        """Fresh state with zero subgrid velocity everywhere."""
        return cls(values=np.zeros((nelem, 3)))


def update_sgs(mesh: Mesh, state: SGSState, velocity: np.ndarray,
               viscosity: float, dt: float,
               element_ids: Optional[np.ndarray] = None) -> SGSState:
    """One SGS update sweep over ``element_ids`` (default: all elements).

    Computes, per element, a residual estimate from the resolved velocity
    (convection plus temporal term against the previous subgrid value) and
    relaxes ``u_sgs`` toward ``tau * residual``.  Purely element-local —
    the race-free structure of the paper's SGS phase.
    """
    if element_ids is None:
        element_ids = np.arange(mesh.nelem)
    element_ids = np.asarray(element_ids)
    values = state.values
    # element geometry (gradients, volumes) from the static-geometry cache
    for blk in _geom.geometry_blocks(mesh, element_ids):
        ref = reference_element(blk.etype)
        eids, conn, grads = blk.eids, blk.conn, blk.grads
        ue = velocity[conn]                                # (ne, nn, 3)
        h = np.cbrt(np.maximum(blk.vol, 1e-300))
        uq = np.einsum("qa,eaj->eqj", ref.N, ue).mean(axis=1)
        gradu = np.einsum("eqnj,enk->eqjk", grads, ue).mean(axis=1)
        conv = np.einsum("ej,ejk->ek", uq, gradu)          # (ne, 3)
        umag = np.linalg.norm(uq, axis=1)
        inv_tau = _C1 * viscosity / h ** 2 + _C2 * umag / h
        tau = 1.0 / (inv_tau + 1.0 / dt + 1e-30)
        residual = -conv - values[eids] / dt
        values[eids] = tau[:, None] * residual
    return state
