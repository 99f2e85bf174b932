"""Finite-element matrix assembly (the paper's "Matrix assembly" phase).

Assembles stabilized scalar operators representing the Navier-Stokes blocks
solved by Alya's fractional-step VMS scheme:

* **momentum-like operator**: ``M/dt + C(u) + kappa K`` (mass + convection +
  diffusion, with a SUPG/VMS-style stabilization term), and
* **continuity-like operator** (pressure Poisson): ``K`` (+ small mass
  regularization so the pure-Neumann system stays SPD).

The numeric path is real — element Jacobians, quadrature loops (vectorized
over elements), CSR scatter with duplicate summation — and is exactly the
computation whose *nodal scatter* causes the race the paper's strategies
manage: two elements sharing a node update the same CSR entries.

Besides the matrix, the assembly returns per-element **work meters**
(instruction estimates and atomic-update counts per element) consumed by the
performance layer; the constants live in :mod:`repro.app.costs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from ..mesh.elements import ElementType, NODES_PER_TYPE
from ..mesh.mesh import Mesh
from . import geometry as _geom
from .shape import reference_element

__all__ = ["AssemblyResult", "assemble_operator", "element_work_meters"]

_STALE_MSG = (
    "cached assembly pattern is stale: the mesh connectivity "
    "changed after the first assembly (the pattern cache "
    "assumes a static mesh)")


@dataclass
class _CSRPattern:
    """Cached sparsity pattern of one (mesh, element set) assembly.

    ``slot[k]`` is the CSR data index receiving the ``k``-th scattered COO
    value (in the deterministic per-element-type concatenation order of
    :func:`assemble_operator`), so a repeated assembly reduces to one
    ``np.bincount`` scatter.  ``indices``/``indptr`` are shared between all
    matrices assembled from this pattern — treat them as read-only.

    The cache assumes the mesh geometry/connectivity is static (the paper's
    case: one airway mesh per run), like ``Mesh.centroids()``.
    """

    slot: np.ndarray       # (ncoo,) data index per scattered value
    nval: int              # expected ncoo (consistency check)
    nnz: int               # stored entries of the CSR matrix
    indices: np.ndarray    # (nnz,) CSR column indices
    indptr: np.ndarray     # (n+1,) CSR row pointers


def _build_csr_pattern(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                       n: int) -> tuple["sparse.csr_matrix", _CSRPattern]:
    """Deduplicate COO triplets into a CSR matrix plus its reusable pattern.

    Deterministic replacement for ``coo_matrix(...).tocsr()``: duplicates
    are summed in lexicographic (row, col, scatter-order) order via a stable
    sort, so repeated assemblies through the returned pattern are
    bit-identical to this first one.  (SciPy's ``tocsr`` sums duplicates in
    an implementation-defined order; values may differ from it in the last
    ulp, which every consumer tolerates — simulated-time results depend only
    on the sparsity *structure*, which matches exactly.)
    """
    order = np.lexsort((cols, rows))
    rs, cs = rows[order], cols[order]
    newgrp = np.empty(len(rs), dtype=bool)
    newgrp[0] = True
    np.logical_or(rs[1:] != rs[:-1], cs[1:] != cs[:-1], out=newgrp[1:])
    slot_sorted = np.cumsum(newgrp) - 1
    slot = np.empty(len(rs), dtype=np.int64)
    slot[order] = slot_sorted
    nnz = int(slot_sorted[-1]) + 1
    data = np.bincount(slot, weights=vals, minlength=nnz)
    indices = cs[newgrp]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rs[newgrp], minlength=n), out=indptr[1:])
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    # keep the (possibly dtype-canonicalized) arrays scipy settled on, so
    # later constructions from the pattern never re-cast
    pattern = _CSRPattern(slot=slot, nval=len(vals), nnz=nnz,
                          indices=matrix.indices, indptr=matrix.indptr)
    return matrix, pattern


@dataclass
class AssemblyResult:
    """Output of :func:`assemble_operator`."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    #: per processed element (in the order of ``element_ids``): number of
    #: scattered matrix/vector entries — the atomic updates of the ATOMICS
    #: strategy.
    scatter_counts: np.ndarray
    #: per processed element: nodes
    element_nodes: np.ndarray


def _type_blocks(mesh: Mesh, element_ids: np.ndarray, cache=None):
    """Yield per-element-type ``(nn, ref, eids, conn, grads, dvol, h, Ndvol)``
    from the shared static-geometry cache (:mod:`repro.fem.geometry`)."""
    for blk in _geom.geometry_blocks(mesh, element_ids, cache=cache):
        yield (NODES_PER_TYPE[blk.etype], reference_element(blk.etype),
               blk.eids, blk.conn, blk.grads, blk.dvol, blk.h, blk.Ndvol)


def assemble_operator(mesh: Mesh,
                      kappa: float = 1.0,
                      mass_coeff: float = 0.0,
                      velocity: Optional[np.ndarray] = None,
                      stabilize: bool = True,
                      element_ids: Optional[np.ndarray] = None,
                      source: float = 0.0) -> AssemblyResult:
    """Assemble ``mass_coeff*M + C(velocity) + kappa*K`` over the mesh.

    Parameters
    ----------
    mesh:
        The (possibly hybrid) mesh.
    kappa:
        Diffusion coefficient (viscosity-like).
    mass_coeff:
        Coefficient of the mass matrix (``rho/dt`` in the momentum step;
        ``0`` gives a pure Poisson operator).
    velocity:
        Optional (nnodes, 3) advection field; adds the convection operator
        with SUPG/VMS stabilization (the paper's VMS scheme).
    element_ids:
        Restrict assembly to these elements (a rank's local domain).  The
        result matrix is still global-sized; only local entries are filled —
        mirroring Alya's local assembly with no MPI communication.
    source:
        Constant volumetric source assembled into the RHS.

    The assembly is operator-split: the velocity-independent blocks are
    assembled once per (mesh, element set, coefficients) and cached, and
    each call recomputes only the convection + stabilization values, which
    scatter through the cached CSR sparsity pattern (see
    :func:`_assemble_split`).
    """
    n = mesh.nnodes
    if element_ids is None:
        element_ids = np.arange(mesh.nelem)
    element_ids = np.asarray(element_ids)

    return _assemble_split(mesh, kappa, mass_coeff, velocity, stabilize,
                           element_ids, source)


@dataclass
class _SplitConst:
    """Cached constant part of one operator-split assembly.

    Holds the velocity-independent ``mass_coeff*M + kappa*K`` CSR data
    (deduplicated through the shared :class:`_CSRPattern`), the constant
    source RHS and the work meters.  Stored in the mesh's geometry cache
    (:mod:`repro.fem.geometry`), so mesh mutation invalidates it; the
    pattern itself stays in ``mesh._asm_pattern_cache``.
    """

    pattern: Optional[_CSRPattern]   # None for an empty element set
    data: Optional[np.ndarray]       # (nnz,) constant CSR data
    rhs: np.ndarray
    scatter: np.ndarray
    elem_nn: np.ndarray

    @property
    def nbytes(self) -> int:
        """Resident bytes (the pattern is accounted by its own cache)."""
        total = self.rhs.nbytes + self.scatter.nbytes + self.elem_nn.nbytes
        if self.data is not None:
            total += self.data.nbytes
        return total


def _build_split_const(mesh: Mesh, element_ids: np.ndarray, kappa: float,
                       mass_coeff: float, source: float, n: int,
                       ids_key: bytes, gcache) -> _SplitConst:
    """Assemble the constant blocks once for a (mesh, element set, coeffs)."""
    rows_all, cols_all, vals_all = [], [], []
    rhs = np.zeros(n)
    scatter = np.zeros(len(element_ids), dtype=np.int64)
    elem_nn = np.zeros(len(element_ids), dtype=np.int32)
    id_order = np.argsort(element_ids, kind="stable")
    sorted_ids = element_ids[id_order]
    pattern_cache = mesh.__dict__.setdefault("_asm_pattern_cache", {})
    pattern = pattern_cache.get((n, ids_key))
    for nn, ref, eids, conn, grads, dvol, _h, _Ndvol in _type_blocks(
            mesh, element_ids, cache=gcache):
        Ke = kappa * np.einsum("eqaj,eqbj,eq->eab", grads, grads, dvol)
        if mass_coeff != 0.0:
            Ke += mass_coeff * np.einsum("qa,qb,eq->eab", ref.N, ref.N, dvol)
        if pattern is None:
            rows_all.append(np.repeat(conn, nn, axis=1).ravel())
            cols_all.append(np.tile(conn, (1, nn)).ravel())
        vals_all.append(Ke.ravel())
        if source != 0.0:
            fe = source * np.einsum("qa,eq->ea", ref.N, dvol)
            np.add.at(rhs, conn.ravel(), fe.ravel())
        pos = id_order[np.searchsorted(sorted_ids, eids)]
        scatter[pos] = nn * nn + nn
        elem_nn[pos] = nn
    if not vals_all:
        return _SplitConst(pattern=None, data=None, rhs=rhs,
                           scatter=scatter, elem_nn=elem_nn)
    vals = np.concatenate(vals_all)
    if pattern is not None:
        if len(vals) != pattern.nval:
            raise ValueError(_STALE_MSG)
        data = np.bincount(pattern.slot, weights=vals,
                           minlength=pattern.nnz)
    else:
        matrix, pattern = _build_csr_pattern(
            np.concatenate(rows_all), np.concatenate(cols_all), vals, n)
        pattern_cache[(n, ids_key)] = pattern
        data = matrix.data
    return _SplitConst(pattern=pattern, data=data, rhs=rhs,
                       scatter=scatter, elem_nn=elem_nn)


def _assemble_split(mesh: Mesh, kappa: float, mass_coeff: float,
                    velocity: Optional[np.ndarray], stabilize: bool,
                    element_ids: np.ndarray, source: float) -> AssemblyResult:
    """Operator-split assembly: cached constant part + per-call convection.

    The constant ``mass_coeff*M + kappa*K`` (and source RHS) is reused from
    the geometry cache; only the convection + stabilization values are
    recomputed and combined per CSR slot.  A ``velocity=None`` call (the
    continuity operator) is fully constant and reduces to one array copy.

    The per-call part contracts conv + stab together as one batched matmul
    (``Ke = (Ndvol + tau dV u.grad)^T (u.grad)``): matrix *values* may
    differ in the last ulp from an element-by-element sum of the separate
    terms, like the duplicate summation documented on
    :func:`_build_csr_pattern`.  Simulated-time results depend only on the
    sparsity structure and work meters.
    """
    n = mesh.nnodes
    ids_key = element_ids.tobytes()
    gcache = _geom.cache_for(mesh)
    const_key = ("split", ids_key, float(kappa), float(mass_coeff),
                 float(source))
    const = gcache.get(const_key)
    if const is None:
        const = _build_split_const(mesh, element_ids, kappa, mass_coeff,
                                   source, n, ids_key, gcache)
        gcache.put(const_key, const, const.nbytes)
    pattern = const.pattern
    if pattern is None:
        return AssemblyResult(matrix=sparse.csr_matrix((n, n)),
                              rhs=const.rhs.copy(),
                              scatter_counts=const.scatter.copy(),
                              element_nodes=const.elem_nn.copy())
    if velocity is None:
        data = const.data.copy()
    else:
        vals_all = []
        for nn, ref, eids, conn, grads, dvol, h, Ndvol in _type_blocks(
                mesh, element_ids, cache=gcache):
            uq = np.einsum("qa,eaj->eqj", ref.N, velocity[conn])
            ugb = np.einsum("eqj,eqbj->eqb", uq, grads)
            A = Ndvol
            if stabilize:
                umag = np.linalg.norm(uq, axis=2).mean(axis=1)
                tau = h / (2.0 * umag + 1e-12)
                # u.grad N doubles as the 'a'-index factor of the stab term
                A = A + (tau[:, None] * dvol)[:, :, None] * ugb
            Ke = A.transpose(0, 2, 1) @ ugb
            vals_all.append(Ke.ravel())
        vals = np.concatenate(vals_all) if vals_all else np.zeros(0)
        if len(vals) != pattern.nval:
            raise ValueError(_STALE_MSG)
        data = const.data + np.bincount(pattern.slot, weights=vals,
                                        minlength=pattern.nnz)
    matrix = sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                               shape=(n, n))
    return AssemblyResult(matrix=matrix, rhs=const.rhs.copy(),
                          scatter_counts=const.scatter.copy(),
                          element_nodes=const.elem_nn.copy())


def element_work_meters(mesh: Mesh,
                        instr_per_type: dict,
                        element_ids: Optional[np.ndarray] = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-element (instructions, atomic updates) for the performance layer.

    ``instr_per_type`` maps :class:`ElementType` to an instruction estimate
    per element (see :mod:`repro.app.costs`).  Atomic updates are the CSR
    scatter size ``nn*nn + nn``.
    """
    if element_ids is None:
        element_ids = np.arange(mesh.nelem)
    etypes = mesh.elem_types[element_ids]
    instr = np.zeros(len(element_ids))
    atomics = np.zeros(len(element_ids))
    for etype in ElementType:
        sel = etypes == etype
        if not sel.any():
            continue
        nn = NODES_PER_TYPE[etype]
        instr[sel] = float(instr_per_type[etype])
        atomics[sel] = nn * nn + nn
    return instr, atomics
