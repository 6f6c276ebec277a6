"""Weak scalability: the experiment the paper leaves on the table.

§5.12 adopts LDBC's taxonomy — strong vs weak, horizontal vs vertical —
and runs only strong/horizontal scaling ("We only consider real
datasets whose sizes are fixed"). With synthetic generators that
restriction disappears: this module grows the dataset *with* the
cluster, keeping the per-machine load constant, so each system's weak
scaling efficiency (ideal: flat response time) becomes measurable.

The scaled datasets reuse the real datasets' shape; at 128 machines the
paper-scale profile matches the real dataset, and smaller clusters get
proportionally smaller stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Sequence, Tuple

from ..cluster import CLUSTER_SIZES
from ..datasets.generators import (
    powerlaw_social_graph,
    road_network_graph,
    web_host_graph,
)
from ..datasets.registry import PAPER_PROFILES, Dataset, register_dataset
from ..engines.base import RunResult
from .runner import run_cell

__all__ = ["WeakScalingPoint", "weak_scaling_dataset", "weak_scaling_experiment"]

#: the cluster size at which the scaled profile equals the real dataset
FULL_SCALE_MACHINES = 128


@dataclass(frozen=True)
class WeakScalingPoint:
    """One (cluster size, proportionally sized dataset) measurement."""

    machines: int
    paper_edges: int
    result: RunResult

    @property
    def time(self) -> float:
        """Total response time (or inf on failure)."""
        return self.result.total_time if self.result.ok else float("inf")


@lru_cache(maxsize=None)
def weak_scaling_dataset(kind: str, machines: int) -> Dataset:
    """A dataset sized for ``machines`` with constant per-machine load.

    ``kind`` is one of the registry names; at ``machines == 128`` the
    paper-scale profile equals the real dataset's.
    """
    if kind not in PAPER_PROFILES:
        raise KeyError(f"unknown dataset kind {kind!r}")
    if machines < 2:
        raise ValueError("machines must be >= 2")
    fraction = machines / FULL_SCALE_MACHINES
    base = PAPER_PROFILES[kind]
    profile = replace(
        base,
        name=f"{kind}-weak{machines}",
        num_vertices=max(2, int(base.num_vertices * fraction)),
        num_edges=max(2, int(base.num_edges * fraction)),
        raw_size_bytes=max(1, int(base.raw_size_bytes * fraction)),
    )

    # synthetic size grows with the cluster too (shape-preserving)
    if base.kind == "road":
        width = max(2, int(round(220 * fraction ** 0.5 * 2)))
        height = max(2, int(round(18 * fraction ** 0.5 * 2)))
        graph = road_network_graph(width, height, seed=70 + machines,
                                   name=profile.name)
        # the scaled road network's diameter shrinks with its area
        profile = replace(profile, diameter=max(64.0, base.diameter * fraction))
        metadata = (("grid_shape", (height, width)),)
    elif base.kind == "social":
        n = max(64, int(3000 * fraction))
        graph = powerlaw_social_graph(n, avg_degree=33.0, seed=70 + machines,
                                      name=profile.name)
        metadata = ()
    else:
        hosts = max(4, int(80 * fraction))
        graph = web_host_graph(hosts, 60, seed=70 + machines, name=profile.name)
        metadata = (("pages_per_host", 60),)
    return register_dataset(Dataset(
        name=profile.name,
        size="weak",
        graph=graph,
        profile=profile,
        sssp_source=1,
        metadata=metadata,
    ))


def weak_scaling_experiment(
    system: str,
    workload_name: str,
    kind: str = "twitter",
    cluster_sizes: Sequence[int] = CLUSTER_SIZES,
) -> List[WeakScalingPoint]:
    """Run one system at constant per-machine load across cluster sizes."""
    points: List[WeakScalingPoint] = []
    for machines in cluster_sizes:
        dataset = weak_scaling_dataset(kind, machines)
        points.append(
            WeakScalingPoint(
                machines=machines,
                paper_edges=dataset.profile.num_edges,
                result=run_cell(system, workload_name, dataset, machines),
            )
        )
    return points


def weak_efficiency(points: Sequence[WeakScalingPoint]) -> List[Tuple[int, float]]:
    """Efficiency per point: base time / time (1.0 = perfect weak scaling)."""
    completed = [p for p in points if p.result.ok]
    if not completed:
        return []
    base = completed[0].time
    return [(p.machines, base / p.time) for p in completed]
