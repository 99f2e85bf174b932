"""Domain decomposition: mesh -> MPI rank domains -> multidep subdomains.

Mirrors Alya's two-level decomposition:

* the mesh is partitioned into one domain per MPI rank (Metis in the paper;
  here the multilevel partitioner or RCB);
* inside each rank, the local elements are decomposed into *subdomains*,
  one multidependence task each, with the subdomain adjacency (share at
  least one node) providing the runtime-computed dependence lists.

The rank partition balances **element counts** — per-element costs differ by
type (prisms ~3x tets), which is precisely what produces the assembly load
imbalance of L96 ~ 0.66 the paper measures in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mesh.generator import AirwayMesh
from ..mesh.mesh import Mesh
from .metis import partition_graph
from .rcb import rcb_partition, rcb_partition_sets

__all__ = ["RankDomain", "Decomposition", "decompose_mesh",
           "rank_partition", "subdomain_decomposition", "halo_counts"]


@dataclass
class RankDomain:
    """Everything one MPI rank knows about its piece of the mesh."""

    rank: int
    element_ids: np.ndarray          # global element ids (memory order)
    sub_labels: np.ndarray           # per local element: subdomain id
    sub_adjacency: list[frozenset]   # per subdomain: neighbouring sub ids
    halo_nodes: int                  # interface nodes shared with other ranks

    @property
    def nelem(self) -> int:
        """Local element count."""
        return len(self.element_ids)

    @property
    def nsub(self) -> int:
        """Number of multidep subdomains."""
        return len(self.sub_adjacency)


@dataclass
class Decomposition:
    """A full two-level decomposition of a mesh."""

    mesh: Mesh
    nranks: int
    labels: np.ndarray               # per global element: owning rank
    domains: list[RankDomain]

    def domain(self, rank: int) -> RankDomain:
        """The :class:`RankDomain` of ``rank``."""
        return self.domains[rank]

    def elements_per_rank(self) -> np.ndarray:
        """Element count per rank."""
        return np.bincount(self.labels, minlength=self.nranks)


def subdomain_decomposition(mesh: Mesh, element_ids: np.ndarray,
                            nsub: int, method: str = "rcb",
                            min_shared_nodes: int = 1,
                            min_elements_per_subdomain: int = 6
                            ) -> tuple[np.ndarray, list[frozenset]]:
    """Split a rank's elements into ``nsub`` subdomains and compute their
    node-sharing adjacency (the multidependence lists).

    ``method="rcb"`` (default) produces *spatially compact* subdomains —
    what Metis gives the paper — so each subdomain touches only a handful
    of neighbours and non-adjacent tasks really run concurrently.
    ``method="contiguous"`` chunks the memory order instead (maximal
    per-task locality, denser adjacency on thin rank domains).

    ``min_shared_nodes`` sets how many nodes two subdomains must share to
    count as adjacent.  The paper's rule is >= 1; on strongly scaled-down
    meshes the subdomains are so small that single-node contacts inflate
    the adjacency degree far beyond the production regime (~6-8
    neighbours), so experiments may raise the threshold — a documented
    scale compensation (see EXPERIMENTS.md).

    This is the one-rank case of the batched routine
    :func:`decompose_mesh` runs over all ranks at once.
    """
    element_ids = np.asarray(element_ids, dtype=np.int64)
    sub_labels, adjacency = _subdomains(
        mesh, element_ids, [0, len(element_ids)], nsub, method,
        min_shared_nodes, min_elements_per_subdomain)
    return sub_labels, adjacency[0]


def _subdomains(mesh: Mesh, element_ids: np.ndarray, offsets, nsub: int,
                method: str, min_shared_nodes: int,
                min_elements_per_subdomain: int
                ) -> tuple[np.ndarray, list[list[frozenset]]]:
    """:func:`subdomain_decomposition` of many ranks at once.

    Rank ``r`` owns ``element_ids[offsets[r]:offsets[r + 1]]``.  Returns
    the (n,) int32 subdomain labels, local to each rank, and per rank its
    list of adjacency sets.  The adjacency of every rank comes from one
    subdomain-node incidence product over globally numbered subdomains
    (rank offset + local id), keeping only pairs inside one rank.
    """
    from scipy import sparse

    if method not in ("rcb", "contiguous"):
        raise ValueError(f"unknown subdomain method {method!r}")
    offsets = np.asarray(offsets, dtype=np.int64)
    nlocal = np.diff(offsets)
    # never create subdomains so small that task overhead dominates
    floor = np.maximum(nlocal // max(1, min_elements_per_subdomain), 1)
    nparts = np.maximum(1, np.minimum(np.minimum(nsub, nlocal), floor))
    nparts[nlocal == 0] = 0
    if method == "rcb":
        sub_labels = rcb_partition_sets(mesh.centroids()[element_ids],
                                        offsets, np.maximum(nparts, 1))
    else:
        sub_labels = _contiguous_labels(offsets, nparts)
    # adjacency: count nodes shared between subdomain pairs
    sub_offsets = np.cumsum(nparts) - nparts
    owner = np.repeat(np.arange(len(nparts)), nparts)   # rank of each sub
    global_sub = np.repeat(sub_offsets, nlocal) + sub_labels
    conn = mesh.elem_nodes[element_ids]
    valid = conn.ravel() >= 0
    nodes = conn.ravel()[valid]
    subs = np.repeat(global_sub, conn.shape[1])[valid]
    nsub_total = int(nparts.sum())
    inc = sparse.csr_matrix(
        (np.ones(len(nodes), dtype=np.int32), (subs, nodes)),
        shape=(nsub_total, mesh.nnodes))
    inc.data[:] = 1  # count each (subdomain, node) incidence once
    counts = (inc @ inc.T).tocoo()
    mask = ((counts.data >= min_shared_nodes) & (counts.row != counts.col)
            & (owner[counts.row] == owner[counts.col]))
    rows = counts.row[mask]
    local = (counts.col[mask] - sub_offsets[owner[rows]]).tolist()
    heads = np.zeros(nsub_total + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nsub_total), out=heads[1:])
    heads = heads.tolist()
    # each row keeps the product's column order, which among one rank's
    # subdomains is the order of that rank's product alone: sets built in
    # it iterate exactly like the one-rank result's
    sets = [frozenset(set(local[heads[g]:heads[g + 1]]))
            for g in range(nsub_total)]
    bounds = np.append(sub_offsets, nsub_total).tolist()
    return sub_labels, [sets[a:b] for a, b in zip(bounds, bounds[1:])]


def _contiguous_labels(offsets: np.ndarray, nparts: np.ndarray
                       ) -> np.ndarray:
    """Chunk each rank's memory order into ``nparts`` nearly equal runs,
    at the bounds ``np.linspace(0, nlocal, nparts + 1).astype(int)``."""
    nlocal = np.diff(offsets)
    # the inner bounds s = 1 .. nparts - 1 of every rank, as global
    # positions, ascending; linspace computes bound s as s * (nlocal/nparts)
    ninner = np.maximum(nparts - 1, 0)
    rank = np.repeat(np.arange(len(nparts)), ninner)
    s = 1 + np.arange(len(rank)) - np.repeat(np.cumsum(ninner) - ninner,
                                             ninner)
    step = nlocal / np.maximum(nparts, 1)
    inner = offsets[:-1][rank] + (s * step[rank]).astype(np.int64)
    position = np.arange(offsets[-1])
    below = np.repeat(np.cumsum(ninner) - ninner, nlocal)
    return (np.searchsorted(inner, position, side="right")
            - below).astype(np.int32)


def halo_counts(mesh: Mesh, labels: np.ndarray, nranks: int) -> np.ndarray:
    """Interface (halo) node count per rank: nodes touched by elements of
    at least two different ranks."""
    from scipy import sparse

    valid = mesh.elem_nodes.ravel() != -1
    nodes = mesh.elem_nodes.ravel()[valid]
    owners = np.repeat(labels, 6)[valid]
    inc = sparse.csr_matrix(
        (np.ones(len(nodes), dtype=np.int8), (nodes, owners)),
        shape=(mesh.nnodes, nranks))
    inc.data[:] = 1
    ranks_per_node = np.asarray(inc.sum(axis=1)).ravel()
    shared = (ranks_per_node >= 2).astype(np.int64)
    return np.asarray(inc.T @ shared, dtype=np.int64)


def rank_partition(airway: AirwayMesh | Mesh, nranks: int,
                   method: str = "multilevel", seed: int = 0) -> np.ndarray:
    """The rank level of :func:`decompose_mesh`: (nelem,) owning rank of
    every element.

    ``method`` selects the partitioner: ``"multilevel"`` (graph,
    Metis-like — uses junction-aware dual graph for airway meshes) or
    ``"rcb"`` (geometric, faster for large meshes).
    """
    if isinstance(airway, AirwayMesh):
        mesh = airway.mesh
        dual = airway.dual_with_junctions
    else:
        mesh = airway
        dual = mesh.face_adjacency
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if method == "multilevel":
        return partition_graph(dual(), nranks, seed=seed)
    if method == "rcb":
        return rcb_partition(mesh.centroids(), nranks)
    raise ValueError(f"unknown method {method!r}")


def decompose_mesh(airway: AirwayMesh | Mesh, nranks: int,
                   subdomains_per_rank: int = 16,
                   method: str = "multilevel",
                   min_shared_nodes: int = 1,
                   min_elements_per_subdomain: int = 6,
                   seed: int = 0,
                   labels: Optional[np.ndarray] = None) -> Decomposition:
    """Two-level decomposition of a mesh (or airway mesh) for ``nranks``.

    The rank level is :func:`rank_partition` with ``method`` and ``seed``,
    unless the caller passes its result as ``labels``.  The subdomain
    level runs for all ranks at once.
    """
    mesh = airway.mesh if isinstance(airway, AirwayMesh) else airway
    if labels is None:
        labels = rank_partition(airway, nranks, method=method, seed=seed)
    elif len(labels) != mesh.nelem:
        raise ValueError("labels must hold one rank per element")
    halos = halo_counts(mesh, labels, nranks)
    # each rank's elements, ascending: np.nonzero(labels == r)
    order = np.argsort(labels, kind="stable")
    offsets = np.zeros(nranks + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=nranks), out=offsets[1:])
    sub_labels, adjacency = _subdomains(
        mesh, order, offsets, subdomains_per_rank, "rcb", min_shared_nodes,
        min_elements_per_subdomain)
    cuts = offsets[1:-1]
    domains = [RankDomain(rank=r, element_ids=ids, sub_labels=subs,
                          sub_adjacency=adj, halo_nodes=int(halo))
               for r, (ids, subs, adj, halo) in enumerate(zip(
                   np.split(order, cuts), np.split(sub_labels, cuts),
                   adjacency, halos))]
    return Decomposition(mesh=mesh, nranks=nranks, labels=labels,
                         domains=domains)
