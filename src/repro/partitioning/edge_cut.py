"""Random edge-cut partitioning (hash placement of vertices).

This is the scheme of Hadoop, HaLoop, Giraph, and Blogel-V (Table 1):
each vertex — with its full out-adjacency — is assigned to one machine
by hashing its id. Quality is measured by the *edge-cut fraction*
(edges whose endpoints live on different machines; each one costs a
network message per superstep) and by load balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.structures import Graph
from .memo import memoised

__all__ = ["VertexPartition", "random_vertex_partition"]


@dataclass(frozen=True)
class VertexPartition:
    """An assignment of every vertex to one of ``num_parts`` machines."""

    graph: Graph
    num_parts: int
    part_of: np.ndarray      # int64[num_vertices]

    def __post_init__(self) -> None:
        if self.part_of.shape != (self.graph.num_vertices,):
            raise ValueError("part_of must have one entry per vertex")
        if self.num_parts < 1:
            raise ValueError("num_parts must be positive")

    def vertices_of(self, part: int) -> np.ndarray:
        """Vertex ids assigned to one machine."""
        return np.flatnonzero(self.part_of == part)

    def vertex_counts(self) -> np.ndarray:
        """Vertices per machine."""
        return np.bincount(self.part_of, minlength=self.num_parts)

    @memoised
    def edge_counts(self) -> np.ndarray:
        """Out-edges stored per machine (edges live with their source)."""
        src_part = self.part_of[self.graph.edge_sources()]
        return np.bincount(src_part, minlength=self.num_parts)

    @memoised
    def cut_edges(self) -> int:
        """Edges whose endpoints are on different machines."""
        src_part = self.part_of[self.graph.edge_sources()]
        dst_part = self.part_of[self.graph.edge_targets()]
        return int(np.count_nonzero(src_part != dst_part))

    def cut_fraction(self) -> float:
        """Cut edges as a fraction of all edges — remote-message rate."""
        if self.graph.num_edges == 0:
            return 0.0
        return self.cut_edges() / self.graph.num_edges

    def balance_skew(self) -> float:
        """Extra load of the heaviest machine over a perfectly even split.

        0.0 means perfectly balanced; 0.5 means the heaviest machine
        holds 1.5x the average edge load.
        """
        counts = self.edge_counts()
        if counts.sum() == 0:
            return 0.0
        mean = counts.sum() / self.num_parts
        return float(counts.max() / mean - 1.0) if mean else 0.0


def random_vertex_partition(
    graph: Graph, num_parts: int, seed: int = 0
) -> VertexPartition:
    """Hash each vertex to a machine (the systems' Random scheme).

    A salted multiplicative hash stands in for the systems' id hashing;
    a plain ``v % num_parts`` would be suspiciously perfect on our dense
    ids.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    ids = np.arange(graph.num_vertices, dtype=np.uint64)
    salt = np.uint64(0x9E3779B97F4A7C15 + seed)
    mixed = (ids + salt) * np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(31)
    part = (mixed % np.uint64(num_parts)).astype(np.int64)
    return VertexPartition(graph=graph, num_parts=num_parts, part_of=part)
