"""Partitioning substrate: multilevel (Metis-like) and RCB partitioners,
graph coloring, and the two-level rank/subdomain decomposition."""

from .coloring import color_counts, dsatur_coloring, greedy_coloring, verify_coloring
from .domain import (
    Decomposition,
    RankDomain,
    decompose_mesh,
    halo_counts,
    rank_partition,
    subdomain_decomposition,
)
from .metis import edge_cut, partition_graph, partition_weights
from .rcb import rcb_partition, rcb_partition_sets

__all__ = [
    "Decomposition",
    "RankDomain",
    "color_counts",
    "decompose_mesh",
    "dsatur_coloring",
    "edge_cut",
    "greedy_coloring",
    "halo_counts",
    "partition_graph",
    "partition_weights",
    "rank_partition",
    "rcb_partition",
    "rcb_partition_sets",
    "subdomain_decomposition",
    "verify_coloring",
]
