"""Shared static-geometry cache for the numeric kernels.

The paper's workload is the classic static-mesh case: one airway mesh, many
timesteps.  Element geometry — Jacobians, inverse-Jacobian physical
gradients, quadrature volumes ``|J| dV``, element volumes and sizes ``h`` —
never changes across a run.  This module computes it once per (mesh,
element-type, element-set) and hands the cached arrays to every consumer:
:func:`repro.fem.assembly.assemble_operator`, :func:`repro.fem.sgs.update_sgs`,
the pressure-velocity coupling in :mod:`repro.fem.vector`, and the centroid
KD-tree of :class:`repro.particles.interpolation.MeshVelocityField`.

Cache management:

* **identity / invalidation** — the cache rides in ``mesh.__dict__`` and
  stores a SHA-256 fingerprint of the mesh's coordinate, connectivity and
  type arrays.  :func:`cache_for` re-checks the fingerprint, so mutating a
  mesh in place (or hitting a same-shaped replacement mesh object) drops
  every cached entry instead of serving stale geometry.
* **memory accounting** — each :class:`GeometryCache` counts its own
  ``hits``, ``misses`` and ``evictions`` and keeps its resident
  ``total_bytes``; an invalidation shows as a new cache object.
* **eviction budget** — per-mesh LRU: when a cache grows past
  :data:`CACHE_BUDGET_BYTES`, least-recently-used entries are evicted
  (the entry just inserted is always kept, so a single oversized element
  set still works — it just won't persist a second set alongside it).

Besides raw geometry blocks the cache stores *derived extras* under the
same invalidation (see :func:`cached_extra`):

* the per-type unit stiffness and unit mass element matrices of an
  element set (:func:`unit_stiffness`, :func:`unit_mass`), contracted
  once and scaled by every constant operator built from them;
* the operator-split constant blocks of :mod:`repro.fem.assembly`;
* the pressure-velocity coupling matrix of :mod:`repro.fem.vector`;
* the centroid KD-tree shared by :mod:`repro.particles.interpolation`;
* the node-sharing conflict graph read by a decomposition's coloring,
  built the first time a run reads colors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..mesh.elements import ElementType, NODES_PER_TYPE
from ..mesh.mesh import CSRGraph, Mesh
from .shape import reference_element

__all__ = [
    "ElementGeometry", "GeometryCache", "CACHE_BUDGET_BYTES", "cache_for",
    "geometry_blocks", "cached_extra", "element_sizes", "node_sharing_graph",
    "drop_cache", "unit_stiffness", "unit_mass",
]

#: per-mesh eviction budget in bytes
CACHE_BUDGET_BYTES = 256 * 1024 * 1024

_CACHE_ATTR = "_geometry_cache"


@dataclass
class ElementGeometry:
    """Precomputed geometry of one element-type block of an element set.

    All arrays are ordered like the (stable) selection of the block's type
    from the element-id array, i.e. exactly the order the kernels' inline
    per-type loops produced — treat them as read-only.
    """

    etype: ElementType
    eids: np.ndarray     # (ne,) global element ids of this block
    conn: np.ndarray     # (ne, nn) node connectivity
    grads: np.ndarray    # (ne, nq, nn, 3) physical shape-function gradients
    dvol: np.ndarray     # (ne, nq) |J| * quadrature weight
    vol: np.ndarray      # (ne,) element volume = dvol.sum(axis=1)
    h: np.ndarray        # (ne,) element size = cbrt(vol)
    Ndvol: np.ndarray    # (ne, nq, nn) N[q,a] * dvol[e,q] (assembly helper)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached arrays."""
        return (self.eids.nbytes + self.conn.nbytes + self.grads.nbytes
                + self.dvol.nbytes + self.vol.nbytes + self.h.nbytes
                + self.Ndvol.nbytes)


class GeometryCache:
    """LRU store of geometry blocks and derived extras for one mesh,
    with its own traffic counters."""

    def __init__(self, fingerprint: bytes) -> None:
        self.fingerprint = fingerprint
        self._entries: dict = {}      # key -> (value, nbytes); dict order = LRU
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """Cached value for ``key`` (marked most-recently-used), or None."""
        hit = self._entries.pop(key, None)
        if hit is None:
            self.misses += 1
            return None
        self._entries[key] = hit      # reinsert -> most recently used
        self.hits += 1
        return hit[0]

    def put(self, key, value, nbytes: int) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries over budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.total_bytes += nbytes
        while self.total_bytes > CACHE_BUDGET_BYTES and len(self._entries) > 1:
            victim_key = next(iter(self._entries))
            if victim_key == key:
                break
            _, victim_bytes = self._entries.pop(victim_key)
            self.total_bytes -= victim_bytes
            self.evictions += 1


def _fingerprint(mesh: Mesh) -> bytes:
    """SHA-256 over the arrays that determine element geometry."""
    hsh = hashlib.sha256()
    hsh.update(np.ascontiguousarray(mesh.coords).tobytes())
    hsh.update(np.ascontiguousarray(mesh.elem_nodes).tobytes())
    hsh.update(np.ascontiguousarray(mesh.elem_types).tobytes())
    return hsh.digest()


def cache_for(mesh: Mesh) -> GeometryCache:
    """The mesh's geometry cache, invalidated if the mesh changed.

    The fingerprint check runs on every call (cheap next to any kernel), so
    in-place mutation of coordinates or connectivity is detected here — the
    stale cache is dropped whole and replaced by a new one.
    """
    fp = _fingerprint(mesh)
    cache: Optional[GeometryCache] = mesh.__dict__.get(_CACHE_ATTR)
    if cache is not None and cache.fingerprint == fp:
        return cache
    cache = GeometryCache(fp)
    mesh.__dict__[_CACHE_ATTR] = cache
    return cache


def drop_cache(mesh: Mesh) -> None:
    """Explicitly discard the mesh's geometry cache (tests, memory pressure)."""
    mesh.__dict__.pop(_CACHE_ATTR, None)


def _jacobian_geometry(coords: np.ndarray, conn: np.ndarray, ref):
    """Per-element, per-quadrature-point physical gradients and |J| dV.

    Returns ``(grads, dvol)`` with grads (ne, nq, nn, 3) and dvol (ne, nq).
    """
    xe = coords[conn]                                     # (ne, nn, 3)
    # J[e,q,i,j] = sum_n dN[q,n,i] * xe[e,n,j]  =  dx_j / dxi_i
    J = np.einsum("qni,enj->eqij", ref.dN, xe)
    detJ = np.linalg.det(J)
    invJ = np.linalg.inv(J)
    # chain rule: dN/dx_j = dN/dxi_i * dxi_i/dx_j, and since J is the
    # transposed conventional Jacobian, dxi_i/dx_j = invJ[j, i].
    grads = np.einsum("qni,eqji->eqnj", ref.dN, invJ)
    dvol = np.abs(detJ) * ref.weights[None, :]
    return grads, dvol


def _build_blocks(mesh: Mesh, element_ids: np.ndarray) -> list:
    """Compute the per-type geometry blocks of an element set."""
    blocks = []
    etype_arr = mesh.elem_types[element_ids]
    for etype in ElementType:
        sel = etype_arr == etype
        eids = element_ids[sel]
        if len(eids) == 0:
            continue
        nn = NODES_PER_TYPE[etype]
        ref = reference_element(etype)
        conn = mesh.elem_nodes[eids][:, :nn]
        grads, dvol = _jacobian_geometry(mesh.coords, conn, ref)
        vol = dvol.sum(axis=1)
        h = np.cbrt(vol)
        Ndvol = ref.N[None, :, :] * dvol[:, :, None]
        blocks.append(ElementGeometry(etype=etype, eids=eids, conn=conn,
                                      grads=grads, dvol=dvol, vol=vol, h=h,
                                      Ndvol=Ndvol))
    return blocks


def geometry_blocks(mesh: Mesh,
                    element_ids: Optional[np.ndarray] = None,
                    cache: Optional[GeometryCache] = None) -> list:
    """Cached per-type :class:`ElementGeometry` blocks of an element set.

    ``cache`` skips the fingerprint re-check when the caller already holds
    the validated cache for this mesh (one check per kernel call, not per
    lookup).
    """
    if element_ids is None:
        element_ids = np.arange(mesh.nelem)
    element_ids = np.asarray(element_ids)
    if cache is None:
        cache = cache_for(mesh)
    key = ("geom", element_ids.tobytes())
    blocks = cache.get(key)
    if blocks is None:
        blocks = _build_blocks(mesh, element_ids)
        cache.put(key, blocks, sum(b.nbytes for b in blocks))
    return blocks


def _unit_blocks(mesh: Mesh, name: str, contract: Callable,
                 element_ids: np.ndarray,
                 cache: Optional[GeometryCache]) -> list:
    """Per-type ``contract(block)`` of an element set, cached as one extra
    per (element set, ``name``)."""
    def build():
        mats = [contract(blk) for blk in geometry_blocks(mesh, element_ids,
                                                         cache=cache)]
        return mats, sum(m.nbytes for m in mats)
    return cached_extra(mesh, (name, element_ids.tobytes()), build,
                        cache=cache)


def unit_stiffness(mesh: Mesh, element_ids: np.ndarray,
                   cache: Optional[GeometryCache] = None) -> list:
    """Cached unit stiffness matrices ``K1[e,a,b] = sum_q grad N_a .
    grad N_b |J| dV``, one (ne, nn, nn) array per block of
    :func:`geometry_blocks` and in its order.

    Every constant operator ``kappa*K + m*M`` of one element set scales
    these, so the contraction runs once per (mesh, element set).
    """
    return _unit_blocks(
        mesh, "unit_stiffness",
        lambda blk: np.einsum("eqaj,eqbj,eq->eab", blk.grads, blk.grads,
                              blk.dvol),
        element_ids, cache)


def unit_mass(mesh: Mesh, element_ids: np.ndarray,
              cache: Optional[GeometryCache] = None) -> list:
    """Cached unit (consistent) mass matrices ``M1[e,a,b] = sum_q N_a N_b
    |J| dV``, one (ne, nn, nn) array per block of :func:`geometry_blocks`
    and in its order (the mass counterpart of :func:`unit_stiffness`)."""
    def contract(blk):
        N = reference_element(blk.etype).N
        return np.einsum("qa,qb,eq->eab", N, N, blk.dvol)
    return _unit_blocks(mesh, "unit_mass", contract, element_ids, cache)


def element_sizes(mesh: Mesh,
                  cache: Optional[GeometryCache] = None) -> np.ndarray:
    """Cached (nelem,) element sizes ``h`` indexed by global element id.

    The flat companion of the per-type ``h`` arrays in
    :func:`geometry_blocks` — the CFL controllers
    (:mod:`repro.fem.timestep`) and the app-level Δt scheduler divide
    element speeds by this vector, and ``h.min()`` bounds the admissible
    step of the whole mesh.  Cached under the same fingerprint
    invalidation as the blocks it is scattered from.
    """
    def build():
        h = np.zeros(mesh.nelem)
        for block in geometry_blocks(mesh, cache=cache):
            h[block.eids] = block.h
        return h, h.nbytes
    return cached_extra(mesh, "element_sizes", build, cache=cache)


def node_sharing_graph(mesh: Mesh,
                       cache: Optional[GeometryCache] = None) -> CSRGraph:
    """Cached whole-mesh node-sharing conflict graph
    (:meth:`Mesh.node_sharing_adjacency`).

    One sparse product per mesh, read by the per-rank coloring of every
    decomposition of it (:meth:`CSRGraph.within_parts` of this graph).
    The coloring runs only when a run reads colors (COLORING-strategy
    graphs), so a run that reads none never builds this graph.
    """
    def build():
        graph = mesh.node_sharing_adjacency()
        return graph, graph.xadj.nbytes + graph.adjncy.nbytes
    return cached_extra(mesh, "node_sharing_graph", build, cache=cache)


def cached_extra(mesh: Mesh, name, build: Callable[[], tuple],
                 cache: Optional[GeometryCache] = None):
    """A derived object cached under the mesh's geometry invalidation.

    ``build`` is called on a miss and must return ``(value, nbytes)``.
    Used for the unit element matrices, the operator-split constant
    blocks, the pressure-velocity coupling matrix, the shared centroid
    KD-tree and the node-sharing conflict graph.
    """
    if cache is None:
        cache = cache_for(mesh)
    key = ("extra", name)
    value = cache.get(key)
    if value is None:
        value, nbytes = build()
        cache.put(key, value, nbytes)
    return value
