"""Graph substrate: structures and dataset statistics."""

from .structures import EdgeListError, Graph, GraphBuilder, from_edges
from .stats import (
    DatasetStats,
    bfs_levels,
    compute_stats,
    degree_histogram,
    effective_diameter,
    estimate_diameter,
    largest_wcc_fraction,
    powerlaw_exponent_estimate,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "from_edges",
    "EdgeListError",
    "DatasetStats",
    "compute_stats",
    "bfs_levels",
    "effective_diameter",
    "estimate_diameter",
    "degree_histogram",
    "powerlaw_exponent_estimate",
    "largest_wcc_fraction",
]
