"""The hybrid unstructured mesh container and its derived graphs.

Connectivity is stored padded: ``elem_nodes`` is ``(nelem, 6)`` int32 with
``-1`` padding (6 = prism node count).  Elements appear in *generation
order*, which is spatially coherent — the property the ATOMICS and MULTIDEP
strategies exploit for locality, and the order chunking preserves.

Two derived graphs drive the runtime layers:

* the **face-sharing dual graph** (elements sharing a whole face) — input to
  the partitioners;
* the **node-sharing conflict graph** (elements sharing at least one node) —
  the race structure of the FE assembly, input to coloring and to subdomain
  adjacency for multidependences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elements import ElementType, NODES_PER_TYPE

__all__ = ["Mesh", "CSRGraph"]

_PAD = -1
_MAX_NODES = 6


@dataclass(frozen=True)
class CSRGraph:
    """A compressed-sparse-row adjacency structure over ``n`` vertices."""

    xadj: np.ndarray     # (n+1,) int64 offsets
    adjncy: np.ndarray   # (nnz,) int32 neighbour ids

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.xadj) - 1

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v``."""
        return self.adjncy[self.xadj[v]:self.xadj[v + 1]]

    def within_parts(self, labels: np.ndarray) -> "CSRGraph":
        """The same vertices, keeping only edges between two vertices of
        one part (``labels[v] == labels[w]``), neighbour order preserved."""
        src = np.repeat(np.arange(self.n, dtype=self.adjncy.dtype),
                        np.diff(self.xadj))
        labels = np.asarray(labels)
        keep = labels[src] == labels[self.adjncy]
        xadj = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=self.n), out=xadj[1:])
        return CSRGraph(xadj=xadj, adjncy=self.adjncy[keep])

    @staticmethod
    def from_edges(n: int, edges_a: np.ndarray, edges_b: np.ndarray
                   ) -> "CSRGraph":
        """Build a symmetric CSR graph from undirected edge endpoints."""
        src = np.concatenate([edges_a, edges_b])
        dst = np.concatenate([edges_b, edges_a])
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=n)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=xadj[1:])
        return CSRGraph(xadj=xadj, adjncy=dst.astype(np.int32))


class Mesh:
    """A hybrid (tet/pyramid/prism) unstructured mesh.

    Parameters
    ----------
    coords:
        (nnodes, 3) float node coordinates.
    elem_types:
        (nelem,) int8 of :class:`ElementType` values, in generation order.
    elem_nodes:
        (nelem, 6) int32 connectivity padded with ``-1``.
    regions:
        Optional (nelem,) int32 region/segment labels (airway generation id).
    """

    def __init__(self, coords: np.ndarray, elem_types: np.ndarray,
                 elem_nodes: np.ndarray,
                 regions: Optional[np.ndarray] = None):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.elem_types = np.asarray(elem_types, dtype=np.int8)
        self.elem_nodes = np.asarray(elem_nodes, dtype=np.int32)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {self.coords.shape}")
        if self.elem_nodes.shape != (len(self.elem_types), _MAX_NODES):
            raise ValueError(
                f"elem_nodes must be (nelem, {_MAX_NODES}), got "
                f"{self.elem_nodes.shape}")
        self.regions = (np.zeros(len(self.elem_types), dtype=np.int32)
                        if regions is None
                        else np.asarray(regions, dtype=np.int32))
        if len(self.regions) != self.nelem:
            raise ValueError("regions length mismatch")
        self._validate_connectivity()
        self._centroids: Optional[np.ndarray] = None

    def _validate_connectivity(self) -> None:
        for etype in ElementType:
            mask = self.elem_types == etype
            if not mask.any():
                continue
            k = NODES_PER_TYPE[etype]
            conn = self.elem_nodes[mask]
            used, padding = conn[:, :k], conn[:, k:]
            if (used < 0).any() or (used >= self.nnodes).any():
                raise ValueError(f"{etype.name}: node index out of range")
            if (padding != _PAD).any():
                raise ValueError(f"{etype.name}: padding must be -1")

    # -- basic queries ------------------------------------------------------
    @property
    def nnodes(self) -> int:
        """Number of nodes."""
        return self.coords.shape[0]

    @property
    def nelem(self) -> int:
        """Number of elements."""
        return self.elem_types.shape[0]

    def type_counts(self) -> dict:
        """Histogram of element types ({ElementType: count})."""
        return {etype: int((self.elem_types == etype).sum())
                for etype in ElementType}

    def elements_of_type(self, etype: ElementType) -> np.ndarray:
        """Element ids of one type (generation order preserved)."""
        return np.nonzero(self.elem_types == etype)[0]

    def connectivity(self, etype: ElementType) -> np.ndarray:
        """(n_type, nodes_per_type) connectivity of one element type."""
        k = NODES_PER_TYPE[etype]
        return self.elem_nodes[self.elem_types == etype][:, :k]

    def centroids(self) -> np.ndarray:
        """(nelem, 3) element centroids (cached)."""
        if self._centroids is None:
            cents = np.zeros((self.nelem, 3))
            for etype in ElementType:
                ids = self.elements_of_type(etype)
                if len(ids) == 0:
                    continue
                conn = self.connectivity(etype)
                cents[ids] = self.coords[conn].mean(axis=1)
            self._centroids = cents
        return self._centroids

    # -- derived graphs -----------------------------------------------------
    def _incidence(self, element_ids: Optional[np.ndarray] = None):
        """Sparse (nelem_subset x nnodes) element-node incidence matrix."""
        from scipy import sparse

        if element_ids is None:
            conn = self.elem_nodes
            n = self.nelem
        else:
            conn = self.elem_nodes[element_ids]
            n = len(element_ids)
        valid = conn.ravel() != _PAD
        cols = conn.ravel()[valid]
        rows = np.repeat(np.arange(n, dtype=np.int64), _MAX_NODES)[valid]
        data = np.ones(len(cols), dtype=np.int8)
        return sparse.csr_matrix((data, (rows, cols)),
                                 shape=(n, self.nnodes))

    def _shared_node_adjacency(self, ncommon: int,
                               element_ids: Optional[np.ndarray] = None
                               ) -> CSRGraph:
        """Elements adjacent iff they share >= ``ncommon`` nodes.

        This is METIS's mesh-to-dual rule (``ncommon=3`` approximates
        face-sharing for tets/pyramids/prisms; ``ncommon=1`` is the
        node-sharing race/conflict graph of the assembly).
        """
        inc = self._incidence(element_ids)
        # CSR with rows ascending; each row keeps the product's order
        counts = inc @ inc.T
        n = inc.shape[0]
        rows = np.repeat(np.arange(n, dtype=counts.indices.dtype),
                         np.diff(counts.indptr))
        keep = (counts.data >= ncommon) & (counts.indices != rows)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=n), out=xadj[1:])
        return CSRGraph(xadj=xadj, adjncy=counts.indices[keep].astype(
            np.int32, copy=False))

    def face_adjacency(self, ncommon: int = 2) -> CSRGraph:
        """Dual graph for partitioning: elements sharing >= ``ncommon`` nodes.

        The default (2 = edge-sharing) is robust to the tube mesher's
        non-conforming quad diagonals between element-type zones while
        staying sparse (~15 neighbours/element); pass ``ncommon=3`` for
        strict face-sharing on conforming meshes.
        """
        return self._shared_node_adjacency(ncommon)

    def node_sharing_adjacency(self,
                               element_ids: Optional[np.ndarray] = None
                               ) -> CSRGraph:
        """Conflict graph: elements sharing >= 1 node.

        With ``element_ids`` the graph is restricted to that subset (vertex
        ``i`` of the result is ``element_ids[i]``) — this is what each rank
        colors locally.
        """
        if element_ids is not None:
            element_ids = np.asarray(element_ids, dtype=np.int64)
        return self._shared_node_adjacency(1, element_ids)

    def __repr__(self) -> str:
        counts = self.type_counts()
        mix = ", ".join(f"{v} {k.name.lower()}s" for k, v in counts.items()
                        if v)
        return f"Mesh({self.nnodes} nodes, {self.nelem} elements: {mix})"
