"""The COST experiment (§5.13, Table 9).

COST — "Configuration that Outperforms a Single Thread" (McSherry et
al.) — divides the single-thread response time by a parallel system's
response time. COST < 1 means the cluster is *slower* than one good
thread. The paper's headline: PageRank's best parallel systems reach
COST 2-3, but reachability workloads on the road network fall to
0.03-0.04 — two orders of magnitude *slower* than one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..datasets.registry import load_dataset
from ..engines.base import RunResult
from .runner import run_cell

__all__ = ["CostRow", "cost_factor", "cost_experiment"]


@dataclass(frozen=True)
class CostRow:
    """One Table 9 row-cell: single thread vs best parallel system."""

    dataset: str
    workload: str
    single_thread_seconds: float
    best_parallel_seconds: Optional[float]
    best_parallel_system: Optional[str]

    @property
    def cost(self) -> Optional[float]:
        """single-thread time / parallel time (> 1: cluster wins)."""
        if not self.best_parallel_seconds:
            return None
        return self.single_thread_seconds / self.best_parallel_seconds


def cost_factor(single_seconds: float, parallel_seconds: float) -> float:
    """The COST ratio for one pairing."""
    if parallel_seconds <= 0:
        raise ValueError("parallel time must be positive")
    return single_seconds / parallel_seconds


def cost_experiment(
    datasets: Sequence[str] = ("twitter", "uk0705", "wrn"),
    workloads: Sequence[str] = ("pagerank", "sssp", "wcc"),
    systems: Sequence[str] = ("BV", "BB", "G", "GL-S-R-I", "GL-S-A-I", "FG"),
    cluster_size: int = 16,
    dataset_size: str = "small",
) -> List[CostRow]:
    """Table 9: best 16-machine parallel system vs the single thread.

    The single-thread engine runs the GAP-style optimized algorithms on
    the 512 GB machine regardless of ``cluster_size``.
    """
    rows: List[CostRow] = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, dataset_size)
        for workload_name in workloads:
            st_result = run_cell("ST", workload_name, dataset, cluster_size)
            best: Optional[RunResult] = None
            for system in systems:
                result = run_cell(system, workload_name, dataset, cluster_size)
                if result.ok and (best is None or result.total_time < best.total_time):
                    best = result
            rows.append(
                CostRow(
                    dataset=dataset_name,
                    workload=workload_name,
                    single_thread_seconds=st_result.total_time,
                    best_parallel_seconds=best.total_time if best else None,
                    best_parallel_system=best.system if best else None,
                )
            )
    return rows
