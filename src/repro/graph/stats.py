"""Graph statistics: the characteristics reported in the paper's Table 3.

Table 3 describes each dataset by |E|, average and maximum degree, and
(effective) diameter. Those characteristics are what make the datasets
behave differently under each system — the road network's huge diameter
drives iteration counts, the social graph's power-law max degree drives
vertex-cut replication.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .structures import Graph

__all__ = [
    "DatasetStats",
    "compute_stats",
    "bfs_levels",
    "effective_diameter",
    "estimate_diameter",
    "degree_histogram",
    "powerlaw_exponent_estimate",
    "largest_wcc_fraction",
]


@dataclass(frozen=True)
class DatasetStats:
    """The Table-3 row for one dataset."""

    name: str
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    diameter: float


def bfs_levels(graph: Graph, source: int, undirected: bool = True) -> np.ndarray:
    """BFS level (hop distance) of every vertex from ``source``.

    Unreachable vertices get -1. ``undirected=True`` traverses edges in
    both directions, which is what diameter estimation wants.
    """
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = deque([source])
    use_in = undirected
    while frontier:
        v = frontier.popleft()
        next_level = levels[v] + 1
        for u in graph.out_neighbors(v):
            if levels[u] < 0:
                levels[u] = next_level
                frontier.append(int(u))
        if use_in:
            for u in graph.in_neighbors(v):
                if levels[u] < 0:
                    levels[u] = next_level
                    frontier.append(int(u))
    return levels


def effective_diameter(
    graph: Graph,
    quantile: float = 0.9,
    num_sources: int = 16,
    seed: int = 7,
) -> float:
    """Approximate effective diameter (the ``quantile`` hop distance).

    Web-graph papers report the 90th-percentile pairwise distance;
    Table 3's fractional diameters (e.g. Twitter 5.29) are of this kind.
    Sampled-source BFS is the standard estimator.
    """
    if not 0 < quantile <= 1:
        raise ValueError("quantile must be in (0, 1]")
    if graph.num_vertices == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    sources = rng.choice(
        graph.num_vertices, size=min(num_sources, graph.num_vertices), replace=False
    )
    distances: List[int] = []
    for s in sources:
        levels = bfs_levels(graph, int(s))
        distances.extend(levels[levels >= 0].tolist())
    if not distances:
        return 0.0
    arr = np.sort(np.asarray(distances))
    # Interpolate between integer hop counts for a fractional estimate.
    idx = quantile * (len(arr) - 1)
    lo, hi = int(math.floor(idx)), int(math.ceil(idx))
    frac = idx - lo
    return float(arr[lo] * (1 - frac) + arr[hi] * frac)


def estimate_diameter(graph: Graph, num_sources: int = 8, seed: int = 7) -> int:
    """Lower bound on the (hop) diameter via repeated farthest-point BFS."""
    if graph.num_vertices == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    v = int(rng.integers(graph.num_vertices))
    for _ in range(num_sources):
        levels = bfs_levels(graph, v)
        reachable = levels >= 0
        if not reachable.any():
            break
        far = int(levels[reachable].max())
        best = max(best, far)
        v = int(np.flatnonzero(levels == far)[0])  # double-sweep heuristic
    return best


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map out-degree -> number of vertices with that degree."""
    degrees = graph.out_degrees()
    values, counts = np.unique(degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def powerlaw_exponent_estimate(graph: Graph, d_min: int = 1) -> Optional[float]:
    """MLE estimate of the power-law exponent of the out-degree tail.

    Returns None when there are no vertices with degree >= d_min. Social
    and web graphs in the paper follow a power law; the road network
    does not (its degrees are bounded by 9).
    """
    degrees = graph.out_degrees()
    tail = degrees[degrees >= d_min].astype(float)
    if tail.size == 0:
        return None
    return float(1.0 + tail.size / np.log(tail / (d_min - 0.5)).sum())


def largest_wcc_fraction(graph: Graph) -> float:
    """Fraction of vertices in the largest weakly connected component."""
    if graph.num_vertices == 0:
        return 0.0
    seen = np.zeros(graph.num_vertices, dtype=bool)
    best = 0
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            size += 1
            for u in graph.out_neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
            for u in graph.in_neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
        best = max(best, size)
    return best / graph.num_vertices


def compute_stats(graph: Graph, effective: bool = True) -> DatasetStats:
    """Compute the Table-3 characteristics for ``graph``."""
    degrees = graph.out_degrees()
    avg = float(degrees.mean()) if graph.num_vertices else 0.0
    max_deg = int(degrees.max()) if graph.num_vertices else 0
    diameter = (
        effective_diameter(graph) if effective else float(estimate_diameter(graph))
    )
    return DatasetStats(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=avg,
        max_degree=max_deg,
        diameter=diameter,
    )
