"""Core graph data structures.

The whole library works on a single immutable directed-graph
representation: :class:`Graph`, a CSR (compressed sparse row) adjacency
built over numpy arrays. Every engine partitions or replicates views of
this structure; the workloads run real algorithms over it.

Vertices are dense integer ids ``0 .. num_vertices - 1``. Datasets whose
natural ids are sparse are remapped at build time (see
:class:`GraphBuilder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph", "GraphBuilder", "EdgeListError"]


class EdgeListError(ValueError):
    """Raised when an edge list is malformed (negative ids, bad shape)."""


def _as_edge_array(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Normalize any iterable of (src, dst) pairs to an (m, 2) int64 array."""
    if isinstance(edges, np.ndarray):
        arr = np.asarray(edges, dtype=np.int64)
        if arr.ndim != 2 or (arr.size and arr.shape[1] != 2):
            raise EdgeListError(f"edge array must have shape (m, 2), got {arr.shape}")
        return arr.reshape(-1, 2)
    pairs = list(edges)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise EdgeListError("edges must be (src, dst) pairs")
    return arr


class Graph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices; ids are ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(src, dst)`` pairs or an ``(m, 2)`` integer array.
        Duplicate edges are kept (multigraphs are allowed); self-edges are
        kept and can be inspected or stripped (GraphLab's quirk from the
        paper, section 3.1.1).
    name:
        Optional human-readable dataset name.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "graph",
    ) -> None:
        if num_vertices < 0:
            raise EdgeListError("num_vertices must be non-negative")
        arr = _as_edge_array(edges)
        if arr.size:
            if arr.min() < 0:
                raise EdgeListError("vertex ids must be non-negative")
            if arr.max() >= num_vertices:
                raise EdgeListError(
                    f"edge endpoint {int(arr.max())} out of range for "
                    f"{num_vertices} vertices"
                )
        self._n = int(num_vertices)
        self.name = name
        order = np.lexsort((arr[:, 1], arr[:, 0])) if arr.size else np.empty(0, int)
        sorted_edges = arr[order]
        self._dst = np.ascontiguousarray(sorted_edges[:, 1])
        self._offsets = np.zeros(self._n + 1, dtype=np.int64)
        if arr.size:
            counts = np.bincount(sorted_edges[:, 0], minlength=self._n)
            np.cumsum(counts, out=self._offsets[1:])
        self._in_offsets: Optional[np.ndarray] = None
        self._in_src: Optional[np.ndarray] = None
        self._src: Optional[np.ndarray] = None

    # -- basic shape ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices (dense ids)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges, counting duplicates."""
        return int(self._dst.shape[0])

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

    # -- adjacency ------------------------------------------------------

    def out_neighbors(self, v: int) -> np.ndarray:
        """Destinations of all out-edges of ``v`` (read-only view)."""
        return self._dst[self._offsets[v]:self._offsets[v + 1]]

    def out_degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self._offsets[v + 1] - self._offsets[v])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an int64 array."""
        return np.diff(self._offsets)

    def _ensure_in_csr(self) -> None:
        if self._in_offsets is not None:
            return
        src = self.edge_sources()
        order = np.argsort(self._dst, kind="stable")
        self._in_src = np.ascontiguousarray(src[order])
        self._in_offsets = np.zeros(self._n + 1, dtype=np.int64)
        if self._dst.size:
            counts = np.bincount(self._dst, minlength=self._n)
            np.cumsum(counts, out=self._in_offsets[1:])

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of all in-edges of ``v`` (builds the in-CSR lazily)."""
        self._ensure_in_csr()
        assert self._in_offsets is not None and self._in_src is not None
        return self._in_src[self._in_offsets[v]:self._in_offsets[v + 1]]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an int64 array."""
        if self._dst.size:
            return np.bincount(self._dst, minlength=self._n).astype(np.int64)
        return np.zeros(self._n, dtype=np.int64)

    def in_degree(self, v: int) -> int:
        """In-degree of vertex ``v``."""
        return int(self.in_degrees()[v]) if self._in_offsets is None else int(
            self._in_offsets[v + 1] - self._in_offsets[v]
        )

    # -- edge views -----------------------------------------------------

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with :meth:`edge_targets`.

        Built once, lazily, and returned read-only: every superstep of
        the edge-parallel kernels asks for it.
        """
        if self._src is None:
            src = np.repeat(np.arange(self._n, dtype=np.int64),
                            self.out_degrees())
            src.flags.writeable = False
            self._src = src
        return self._src

    def edge_targets(self) -> np.ndarray:
        """Target vertex of every edge (CSR order)."""
        return self._dst

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(src, dst)`` pairs in CSR order."""
        src = self.edge_sources()
        for s, d in zip(src.tolist(), self._dst.tolist()):
            yield s, d

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array (a fresh copy)."""
        return np.column_stack([self.edge_sources(), self._dst])

    # -- transformations ------------------------------------------------

    def reversed(self) -> "Graph":
        """The graph with every edge direction flipped."""
        rev = np.column_stack([self._dst, self.edge_sources()])
        return Graph(self._n, rev, name=f"{self.name}-reversed")

    def undirected(self) -> "Graph":
        """Symmetric closure: both directions for every edge, deduplicated."""
        src = self.edge_sources()
        both = np.concatenate(
            [
                np.column_stack([src, self._dst]),
                np.column_stack([self._dst, src]),
            ]
        )
        both = np.unique(both, axis=0) if both.size else both
        return Graph(self._n, both, name=f"{self.name}-undirected")

    def count_self_edges(self) -> int:
        """Number of edges ``(v, v)`` — GraphLab cannot represent these."""
        src = self.edge_sources()
        return int(np.count_nonzero(src == self._dst))

    def without_self_edges(self) -> "Graph":
        """Copy with self-edges removed (what GraphLab effectively loads)."""
        src = self.edge_sources()
        keep = src != self._dst
        return Graph(
            self._n,
            np.column_stack([src[keep], self._dst[keep]]),
            name=f"{self.name}-noself",
        )

    def subgraph_edges(self, edge_mask: np.ndarray) -> "Graph":
        """Copy keeping only edges selected by a boolean mask (CSR order)."""
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.num_edges,):
            raise EdgeListError(
                f"edge mask must have shape ({self.num_edges},), got {mask.shape}"
            )
        src = self.edge_sources()
        return Graph(
            self._n,
            np.column_stack([src[mask], self._dst[mask]]),
            name=f"{self.name}-sub",
        )

    # -- size accounting (used by the cluster memory model) --------------

    def edge_bytes(self, bytes_per_edge: int = 8) -> int:
        """Raw size of the edge set under a given per-edge encoding."""
        return self.num_edges * bytes_per_edge

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._dst, other._dst)
        )

    def __hash__(self) -> int:  # Graphs are used as dict keys in caches.
        return hash((self._n, self.num_edges, self._dst[:16].tobytes()))


@dataclass
class GraphBuilder:
    """Incremental builder that remaps sparse vertex ids to dense ids.

    Real datasets (and the paper's text formats) use arbitrary integer
    ids. The builder assigns dense ids in first-seen order and remembers
    the mapping, so results can be reported in original ids.
    """

    name: str = "graph"

    def __post_init__(self) -> None:
        self._id_map: dict[int, int] = {}
        self._src: list[int] = []
        self._dst: list[int] = []

    def _intern(self, raw: int) -> int:
        dense = self._id_map.get(raw)
        if dense is None:
            dense = len(self._id_map)
            self._id_map[raw] = dense
        return dense

    def add_vertex(self, raw_id: int) -> int:
        """Ensure a vertex exists (it may have no edges); return dense id."""
        return self._intern(raw_id)

    def add_edge(self, src: int, dst: int) -> None:
        """Add one directed edge given raw (possibly sparse) ids."""
        self._src.append(self._intern(src))
        self._dst.append(self._intern(dst))

    def add_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Add many directed edges."""
        for s, d in pairs:
            self.add_edge(s, d)

    @property
    def num_vertices(self) -> int:
        """Vertices interned so far."""
        return len(self._id_map)

    def id_map(self) -> dict:
        """Mapping raw id -> dense id (a copy)."""
        return dict(self._id_map)

    def build(self) -> Graph:
        """Freeze into an immutable :class:`Graph`."""
        edges = np.column_stack(
            [
                np.asarray(self._src, dtype=np.int64),
                np.asarray(self._dst, dtype=np.int64),
            ]
        ) if self._src else np.empty((0, 2), dtype=np.int64)
        return Graph(len(self._id_map), edges, name=self.name)


def from_edges(
    edges: Sequence[Tuple[int, int]], num_vertices: Optional[int] = None, name: str = "graph"
) -> Graph:
    """Convenience constructor: build a Graph straight from dense pairs."""
    arr = _as_edge_array(edges)
    if num_vertices is None:
        num_vertices = int(arr.max()) + 1 if arr.size else 0
    return Graph(num_vertices, arr, name=name)
