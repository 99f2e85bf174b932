"""Graph coloring for the COLORING assembly strategy (Farhat & Crivelli).

Elements sharing a node may not share a color; each color class is then an
atomic-free parallel loop.  Two classic heuristics are provided:

* :func:`greedy_coloring` — first-fit in natural (memory) order;
* :func:`dsatur_coloring` — DSATUR (highest saturation first), usually
  fewer colors on irregular meshes.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..mesh.mesh import CSRGraph

__all__ = ["greedy_coloring", "dsatur_coloring", "verify_coloring",
           "color_counts"]


def greedy_coloring(graph: CSRGraph) -> np.ndarray:
    """First-fit coloring in vertex order; returns (n,) int color ids.

    Vertex ``v`` takes the smallest color none of its lower-numbered
    neighbours holds (the ones already colored when the sweep reaches
    it).  On a graph whose edges never cross between parts, one sweep in
    global order therefore equals a separate sweep per part in its own
    order, provided each part's vertices keep that order globally.
    """
    n = graph.n
    src = np.repeat(np.arange(n, dtype=graph.adjncy.dtype),
                    np.diff(graph.xadj))
    lower = graph.adjncy < src
    heads = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[lower], minlength=n), out=heads[1:])
    heads = heads.tolist()
    # a memoryview hands out each neighbour id as the sweep reads it,
    # rather than materializing every edge as a Python int up front
    adjncy = memoryview(np.ascontiguousarray(graph.adjncy[lower]))
    colors: list = []
    for a, b in zip(heads, heads[1:]):
        used = set(map(colors.__getitem__, adjncy[a:b]))
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    return np.array(colors, dtype=np.int32)


def dsatur_coloring(graph: CSRGraph) -> np.ndarray:
    """DSATUR coloring: color the most saturated vertex first."""
    n = graph.n
    colors = np.full(n, -1, dtype=np.int32)
    if n == 0:
        return colors
    neighbor_colors: list[set] = [set() for _ in range(n)]
    degrees = np.diff(graph.xadj)
    # heap of (-saturation, -degree, vertex); lazy entries, version check
    heap = [(0, -int(degrees[v]), v) for v in range(n)]
    heapq.heapify(heap)
    colored = 0
    while colored < n:
        while True:
            neg_sat, neg_deg, v = heapq.heappop(heap)
            if colors[v] >= 0:
                continue
            if -neg_sat != len(neighbor_colors[v]):
                heapq.heappush(
                    heap, (-len(neighbor_colors[v]), neg_deg, v))
                continue
            break
        used = neighbor_colors[v]
        c = 0
        while c in used:
            c += 1
        colors[v] = c
        colored += 1
        for w in graph.neighbors(v):
            if colors[w] < 0 and c not in neighbor_colors[w]:
                neighbor_colors[w].add(c)
                heapq.heappush(
                    heap,
                    (-len(neighbor_colors[w]), -int(degrees[w]), int(w)))
    return colors


def verify_coloring(graph: CSRGraph, colors: np.ndarray) -> bool:
    """True iff no edge connects two vertices of the same color."""
    colors = np.asarray(colors)
    if (colors < 0).any():
        return False
    src = np.repeat(np.arange(graph.n),
                    np.diff(graph.xadj).astype(np.int64))
    return bool((colors[src] != colors[graph.adjncy]).all())


def color_counts(colors: np.ndarray) -> np.ndarray:
    """Histogram of class sizes, indexed by color id."""
    colors = np.asarray(colors)
    if len(colors) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(colors)
