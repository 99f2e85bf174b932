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
* **memory accounting** — hits, misses, invalidations, evictions and
  resident bytes are tallied in :data:`COUNTERS`
  (a :class:`repro.perf.instrument.Counters`).
* **eviction budget** — per-mesh LRU: when a cache grows past
  :func:`set_cache_budget` bytes, least-recently-used entries are evicted
  (the entry just inserted is always kept, so a single oversized element
  set still works — it just won't persist a second set alongside it).

Besides raw geometry blocks the cache stores *derived extras* under the
same invalidation: the operator-split constant blocks of
:mod:`repro.fem.assembly`, the pressure-velocity coupling matrix of
:mod:`repro.fem.vector`, and the centroid KD-tree shared by
:mod:`repro.particles.interpolation` (see :func:`cached_extra`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..mesh.elements import ElementType, NODES_PER_TYPE
from ..mesh.mesh import Mesh
from ..perf.instrument import Counters
from .shape import reference_element

__all__ = [
    "ElementGeometry", "ElementAdjacency", "GeometryCache", "COUNTERS",
    "cache_for", "geometry_blocks", "cached_extra", "element_adjacency",
    "element_sizes",
    "set_cache_budget", "cache_budget_bytes", "drop_cache",
]

#: module-wide tallies: ``hits``, ``misses``, ``invalidations``,
#: ``evictions`` and ``bytes_cached`` (current resident bytes, summed over
#: all live mesh caches).
COUNTERS = Counters()

_DEFAULT_BUDGET = 256 * 1024 * 1024
_budget_bytes = _DEFAULT_BUDGET

_CACHE_ATTR = "_geometry_cache"


def set_cache_budget(nbytes: int) -> int:
    """Set the per-mesh eviction budget in bytes; returns the previous one.

    Takes effect on the next insertion — already-resident entries are only
    evicted once a ``put`` pushes a cache past the new budget.
    """
    global _budget_bytes
    if nbytes <= 0:
        raise ValueError(f"cache budget must be positive, got {nbytes}")
    previous = _budget_bytes
    _budget_bytes = int(nbytes)
    return previous


def cache_budget_bytes() -> int:
    """Current per-mesh eviction budget in bytes."""
    return _budget_bytes


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
    """LRU store of geometry blocks and derived extras for one mesh."""

    def __init__(self, fingerprint: bytes) -> None:
        self.fingerprint = fingerprint
        self._entries: dict = {}      # key -> (value, nbytes); dict order = LRU
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """Cached value for ``key`` (marked most-recently-used), or None."""
        hit = self._entries.pop(key, None)
        if hit is None:
            COUNTERS.add("misses")
            return None
        self._entries[key] = hit      # reinsert -> most recently used
        COUNTERS.add("hits")
        return hit[0]

    def put(self, key, value, nbytes: int) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries over budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
            COUNTERS.add("bytes_cached", -old[1])
        self._entries[key] = (value, nbytes)
        self.total_bytes += nbytes
        COUNTERS.add("bytes_cached", nbytes)
        while self.total_bytes > _budget_bytes and len(self._entries) > 1:
            victim_key = next(iter(self._entries))
            if victim_key == key:
                break
            _, victim_bytes = self._entries.pop(victim_key)
            self.total_bytes -= victim_bytes
            COUNTERS.add("bytes_cached", -victim_bytes)
            COUNTERS.add("evictions")


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
    stale cache is dropped whole and an ``invalidations`` counter tick
    recorded.
    """
    fp = _fingerprint(mesh)
    cache: Optional[GeometryCache] = mesh.__dict__.get(_CACHE_ATTR)
    if cache is not None and cache.fingerprint == fp:
        return cache
    if cache is not None:
        COUNTERS.add("invalidations")
        COUNTERS.add("bytes_cached", -cache.total_bytes)
    cache = GeometryCache(fp)
    mesh.__dict__[_CACHE_ATTR] = cache
    return cache


def drop_cache(mesh: Mesh) -> None:
    """Explicitly discard the mesh's geometry cache (tests, memory pressure)."""
    cache = mesh.__dict__.pop(_CACHE_ATTR, None)
    if cache is not None:
        COUNTERS.add("bytes_cached", -cache.total_bytes)


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


@dataclass
class ElementAdjacency:
    """Element neighbourhood structure for warm-start exact location.

    Built once per mesh (under the geometry-cache fingerprint) from the
    node-sharing element adjacency.  For each element ``e`` with centroid
    ``c_e``:

    * ``candidates[e]`` — a padded row ``[e, ring(e)..., e, e, ...]`` of
      element ids: the element itself followed by its nearest-by-centroid
      adjacency-ring neighbours, truncated to ``max_ring`` entries (unused
      slots repeat ``e``).  Truncation trades a slightly smaller
      ``r_safe`` for a much narrower candidate scan — the full
      node-sharing ring of a hybrid mesh runs to ~100 elements, far past
      the point where scanning it beats re-querying the KD-tree;
    * ``r_self[e]`` — half the distance from ``c_e`` to the nearest *other*
      centroid.  A point strictly inside this ball is provably closer to
      ``c_e`` than to any other centroid (triangle inequality), so the
      cached host can be accepted without scanning anything;
    * ``r_safe[e]`` — half the distance from ``c_e`` to the nearest
      centroid *outside* ``candidates[e]``.  A point strictly inside this
      ball has its global nearest centroid provably within the candidate
      row, so an argmin over the row equals the global KD-tree answer.

    Proof sketch (both radii): for a point ``x`` with ``d(x, c_e) = d`` and
    any excluded centroid ``c_f``, ``d(x, c_f) >= d(c_e, c_f) - d >= 2r - d
    > d`` whenever ``d < r`` — so no excluded centroid can beat the best
    candidate.
    """

    candidates: np.ndarray   # (nelem, width) intp, row-padded with self
    r_self: np.ndarray       # (nelem,) float64
    r_safe: np.ndarray       # (nelem,) float64

    @property
    def nbytes(self) -> int:
        """Resident bytes of the adjacency arrays."""
        return (self.candidates.nbytes + self.r_self.nbytes
                + self.r_safe.nbytes)


def _build_element_adjacency(mesh: Mesh,
                             max_ring: int = 12) -> ElementAdjacency:
    from scipy.spatial import cKDTree

    centroids = mesh.centroids()
    nelem = mesh.nelem
    graph = mesh.node_sharing_adjacency()
    xadj, adjncy = graph.xadj, graph.adjncy
    degrees = np.diff(xadj)
    maxdeg = int(degrees.max(initial=0))
    # padded ring matrix, then keep the max_ring nearest-by-centroid
    # neighbours of each row
    ring = np.full((nelem, max(maxdeg, 1)), -1, dtype=np.int64)
    rows = np.repeat(np.arange(nelem), degrees)
    cols = np.concatenate([np.arange(d) for d in degrees]) \
        if nelem else np.zeros(0, dtype=np.int64)
    ring[rows, cols] = adjncy
    ring_d = np.where(ring >= 0,
                      np.linalg.norm(centroids[ring]
                                     - centroids[:, None, :], axis=2),
                      np.inf)
    keep = min(max_ring, ring.shape[1])
    order = np.argsort(ring_d, axis=1, kind="stable")[:, :keep]
    near = np.take_along_axis(ring, order, axis=1)
    width = keep + 1
    candidates = np.repeat(np.arange(nelem, dtype=np.intp),
                           width).reshape(nelem, width)
    candidates[:, 1:] = np.where(near >= 0, near, candidates[:, 1:])
    if nelem < 2:
        return ElementAdjacency(candidates=candidates,
                                r_self=np.full(nelem, np.inf),
                                r_safe=np.full(nelem, np.inf))
    # r_self: half distance to the nearest other centroid
    tree = cKDTree(centroids)
    d2, _ = tree.query(centroids, k=2)
    r_self = 0.5 * d2[:, 1]
    # r_safe: half distance to the nearest non-candidate centroid.  The
    # candidate row holds at most ``width`` distinct ids, so among the
    # ``width + 1`` nearest centroids (self included) at least one is
    # excluded — unless the mesh is so small that every element is a
    # candidate, in which case the row argmin *is* the global answer and
    # the radius is unbounded.
    k = min(nelem, width + 1)
    dists, nbr = tree.query(centroids, k=k)
    # row-wise membership of nbr in the sorted candidate rows, via a
    # globally-sorted flattening (candidate ids are < nelem, so offsetting
    # row i by i * nelem keeps rows disjoint and sorted)
    sorted_cand = np.sort(candidates, axis=1)
    offsets = np.arange(nelem, dtype=np.int64)[:, None] * nelem
    flat = (sorted_cand + offsets).ravel()
    queries = nbr + offsets
    pos = np.searchsorted(flat, queries.ravel())
    pos = np.clip(pos, 0, flat.size - 1)
    in_ring = (flat[pos] == queries.ravel()).reshape(nelem, k)
    out = ~in_ring
    has_out = out.any(axis=1)
    first_out = np.argmax(out, axis=1)
    rows = np.arange(nelem)
    r_safe = np.where(has_out, 0.5 * dists[rows, first_out], np.inf)
    return ElementAdjacency(candidates=candidates, r_self=r_self,
                            r_safe=r_safe)


def element_adjacency(mesh: Mesh,
                      cache: Optional[GeometryCache] = None
                      ) -> ElementAdjacency:
    """Cached :class:`ElementAdjacency` for ``mesh`` (see
    :mod:`repro.particles.locator_fast`)."""
    def build():
        adj = _build_element_adjacency(mesh)
        return adj, adj.nbytes
    return cached_extra(mesh, "element_adjacency", build, cache=cache)


def cached_extra(mesh: Mesh, name, build: Callable[[], tuple],
                 cache: Optional[GeometryCache] = None):
    """A derived object cached under the mesh's geometry invalidation.

    ``build`` is called on a miss and must return ``(value, nbytes)``.
    Used for the operator-split constant blocks, the pressure-velocity
    coupling matrix and the shared centroid KD-tree.
    """
    if cache is None:
        cache = cache_for(mesh)
    key = ("extra", name)
    value = cache.get(key)
    if value is None:
        value, nbytes = build()
        cache.put(key, value, nbytes)
    return value
