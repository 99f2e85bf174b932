"""Warm-start exact element location.

A particle moves a fraction of an element size per step, so its host
element from the previous step is an excellent guess for the current one.
This module turns that guess into an *exact* answer: the cached host (or
one of its adjacency-ring neighbours) is accepted only when the
precomputed per-element safety radii of
:class:`repro.fem.geometry.ElementAdjacency` prove it is still the global
nearest centroid; everything else falls back to one batched KD-tree query.
The result is bit-identical to querying the tree for every point (the
public :meth:`repro.particles.ElementLocator.elements_of` full query).

Acceptance tiers, for a point ``x`` with cached host ``h``:

1. **self ball** — ``d(x, c_h) < r_self(h)``: ``h`` is strictly closer
   than any other centroid; accept without scanning anything.
2. **ring ball** — ``d(x, c_h) < r_safe(h)``: the global nearest centroid
   is provably within ``candidates[h]``; an argmin over the padded
   candidate row gives the exact answer.
3. **lost** — neither ball holds (or an exact floating-point tie between
   two distinct candidates, which the KD-tree must break): batched
   ``tree.query``.

Both radius tests use strict inequality against a radius shrunk by
``1 - 1e-9``, so floating-point rounding in the distance computation can
never flip a real-arithmetic rejection into an acceptance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["warm_locate", "squared_radii", "WarmStats"]

#: relative margin protecting the strict-inequality acceptance tests
_SHRINK = 1.0 - 1e-9


class WarmStats:
    """Acceptance tallies of one :func:`warm_locate` call."""

    __slots__ = ("n", "self_ball", "ring_ball", "fallback")

    def __init__(self, n: int, self_ball: int, ring_ball: int,
                 fallback: int):
        self.n = n
        self.self_ball = self_ball
        self.ring_ball = ring_ball
        self.fallback = fallback

    def __repr__(self) -> str:
        return (f"WarmStats(n={self.n}, self_ball={self.self_ball}, "
                f"ring_ball={self.ring_ball}, fallback={self.fallback})")


def squared_radii(adj) -> tuple:
    """Precomputed shrunk-squared acceptance radii for :func:`warm_locate`.

    Callers that locate repeatedly should compute these once and pass them
    in — the per-call saving is a handful of vector ops.
    """
    r2_self = (adj.r_self * _SHRINK) ** 2
    r2_safe = (adj.r_safe * _SHRINK) ** 2
    return r2_self, r2_safe


def warm_locate(tree, centroids: np.ndarray, adj, points: np.ndarray,
                hosts: np.ndarray, r2: Optional[tuple] = None) -> tuple:
    """Exact nearest-centroid element ids for ``points``.

    Parameters
    ----------
    tree:
        The global centroid ``cKDTree`` (the fallback and tie-breaker).
    centroids:
        (nelem, 3) element centroids the tree was built from.
    adj:
        :class:`repro.fem.geometry.ElementAdjacency` for the same mesh.
    points:
        (n, 3) query positions.
    hosts:
        (n,) cached host element per point — any previous location result;
        staleness only reduces the acceptance rate, never correctness.

    Returns
    -------
    (eids, stats):
        ``eids`` is an (n,) ``np.intp`` array bit-identical to
        ``tree.query(points)[1]``; ``stats`` a :class:`WarmStats`.
    """
    n = len(points)
    eids = np.empty(n, dtype=np.intp)
    if n == 0:
        return eids, WarmStats(0, 0, 0, 0)
    hosts = np.asarray(hosts)
    if r2 is None:
        r2 = squared_radii(adj)
    r2_self, r2_safe = r2
    diff = points - centroids[hosts]
    d2 = np.einsum("ij,ij->i", diff, diff)
    in_ring = d2 < r2_safe[hosts]       # nearest provably a candidate
    in_self = d2 < r2_self[hosts]       # host provably still nearest
    lost_mask = ~in_ring
    eids[in_self] = hosts[in_self]      # (r_self <= r_safe: self ball is
    n_self = int(in_self.sum())         # a subset of the ring ball)
    np.logical_and(in_ring, ~in_self, out=in_ring)
    t2 = np.nonzero(in_ring)[0]
    n_ring = 0
    if len(t2):
        cand = adj.candidates[hosts[t2]]          # (m, width)
        cc = centroids[cand]                      # (m, width, 3)
        dd = cc - points[t2][:, None, :]
        cd2 = np.einsum("mwj,mwj->mw", dd, dd)
        best = np.argmin(cd2, axis=1)
        rowm = np.arange(len(t2))
        best_ids = cand[rowm, best]
        # exact-tie guard: two *distinct* candidates at exactly the same
        # squared distance — the KD-tree's tie-break is its own, so defer
        # to it (rounding-induced near-ties cannot differ: the scan
        # computes the same subtract/square/sum sequence the tree does)
        tie = ((cd2 == cd2[rowm, best][:, None])
               & (cand != best_ids[:, None])).any(axis=1)
        eids[t2] = best_ids
        n_ring = int(len(t2) - tie.sum())
        if tie.any():
            lost_mask[t2[tie]] = True
    lost = np.nonzero(lost_mask)[0]
    if len(lost):
        _, found = tree.query(points[lost])
        eids[lost] = found
    return eids, WarmStats(n, n_self, n_ring, len(lost))
