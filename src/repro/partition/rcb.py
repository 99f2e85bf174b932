"""Recursive coordinate bisection (RCB) partitioning.

A geometric partitioner: recursively split the point set along its widest
axis at the weighted median, assigning sub-part counts proportionally.
Fast, deterministic, and produces compact parts — used as the default for
large meshes and as the spatial sub-decomposition inside ranks.

The bisection runs *level-synchronously*: every open index set of one
recursion level is split at once, over many independent point sets at a
time (:func:`rcb_partition_sets`), so partitioning all ranks' subdomains
costs a few numpy calls per level rather than per set.  The result equals
the depth-first recursion exactly: each set is ordered by a stable sort of
its current order, cut at the same position, and weighted cuts sum each
set's own weights in the same order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["rcb_partition", "rcb_partition_sets"]


def rcb_partition(points: np.ndarray, nparts: int,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Partition ``points`` (n, d) into ``nparts`` by recursive bisection.

    Returns (n,) int32 part labels in [0, nparts).  Weighted: each part
    receives approximately ``sum(weights)/nparts`` total weight.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    return rcb_partition_sets(points, [0, points.shape[0]], [nparts],
                              weights)


def rcb_partition_sets(points: np.ndarray, offsets, nparts,
                       weights: Optional[np.ndarray] = None) -> np.ndarray:
    """RCB of many independent point sets at once.

    Set ``s`` is the rows ``offsets[s]:offsets[s + 1]`` of ``points`` and
    is split into ``nparts[s]`` parts; returns (n,) int32 labels local to
    each set, equal to ``rcb_partition`` of each set on its own.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    offsets = np.asarray(offsets, dtype=np.int64)
    nparts = np.asarray(nparts, dtype=np.int64)
    if offsets.shape != (len(nparts) + 1,) or offsets[0] != 0 \
            or offsets[-1] != n or (np.diff(offsets) < 0).any():
        raise ValueError("offsets must run from 0 to n, non-decreasing, "
                         "with one entry more than nparts")
    if (nparts < 1).any():
        raise ValueError(f"nparts must be >= 1, got {nparts.min()}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must be (n,)")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
    labels = np.zeros(n, dtype=np.int32)
    perm = np.arange(n)              # point index at each position
    start, stop, k = offsets[:-1], offsets[1:], nparts
    base = np.zeros(len(nparts), dtype=np.int64)   # label offset per set
    while len(start):
        length = stop - start
        split = (k > 1) & (length > k)
        # closed sets: one part (or empty), or at most one point per part
        seg, local = _positions(length[~split])
        pos = start[~split][seg] + local
        labels[perm[pos]] = base[~split][seg] + np.where(
            k[~split][seg] > 1, local, 0)
        start, stop, k, base = start[split], stop[split], k[split], \
            base[split]
        if not len(start):
            break
        length = stop - start
        seg, local = _positions(length)
        pos = start[seg] + local
        sub = points[perm[pos]]
        heads = np.cumsum(length) - length
        spans = (np.maximum.reduceat(sub, heads, axis=0)
                 - np.minimum.reduceat(sub, heads, axis=0))
        axis = np.argmax(spans, axis=1)
        key = sub[np.arange(len(pos)), axis[seg]]
        perm[pos] = perm[pos][np.lexsort((key, seg))]
        k_left = k // 2
        k_right = k - k_left
        if weights is None:
            # unit weights: the cumulative weights are 1..len, so the
            # searchsorted cut is ceil(len * k_left / k) - 1
            cut = -(-length * k_left // k) - 1
        else:
            cut = np.array([_weighted_cut(weights[perm[a:b]], kl, kk)
                            for a, b, kl, kk in zip(start.tolist(),
                                                    stop.tolist(),
                                                    k_left.tolist(),
                                                    k.tolist())],
                           dtype=np.int64)
        mid = start + np.clip(cut, k_left, length - k_right)
        start, stop = (np.concatenate([start, mid]),
                       np.concatenate([mid, stop]))
        k = np.concatenate([k_left, k_right])
        base = np.concatenate([base, base + k_left])
    return labels


def _positions(length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment index, position within the segment) of every position of
    consecutive segments of the given lengths."""
    seg = np.repeat(np.arange(len(length)), length)
    heads = np.cumsum(length) - length
    return seg, np.arange(len(seg)) - heads[seg]


def _weighted_cut(w: np.ndarray, k_left: int, nparts: int) -> int:
    """Cut position of one sorted set with weights ``w``: the weighted
    median for ``k_left`` of ``nparts`` parts, by count when all weights
    are zero (the caller clamps it)."""
    total = w.sum()
    if total <= 0:
        return len(w) * k_left // nparts
    return int(np.searchsorted(np.cumsum(w), total * k_left / nparts))
