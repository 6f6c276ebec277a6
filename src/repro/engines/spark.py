"""Spark / GraphX (§2.5.2, §4.4.3, §5.6).

GraphX expresses each Pregel superstep as several Spark jobs over
immutable RDDs. The model captures the four behaviours the paper
documents:

* **Partition count** rules everything (Figure 2 / Table 5). The
  default equals the number of 64 MB HDFS blocks of the input; the
  paper tunes it to ``min(#blocks, 2 x total cores)``. Tasks run in
  waves of (cores) per machine, so the *most loaded* machine's wave
  count sets the pace.
* **Placement imbalance** (Figure 11): Spark's locality-driven
  scheduling lands very uneven partition counts per machine — one
  machine got 54 of 1200 partitions where 9.4 was the fair share.
  Modelled as a seeded heavy-tailed multinomial.
* **Lineage growth** (§5.6): every iteration extends RDD lineage;
  memory grows with the iteration count, which is what kills WCC on
  the road network at every cluster size (OOM or, when per-iteration
  time is large, TO first).
* **Framework overhead** (§5.7): per-job scheduling plus job
  start/stop that grows with cluster size.
"""

from __future__ import annotations

from types import MappingProxyType

from functools import lru_cache
from typing import Optional

import numpy as np

from ..cluster import GB, Cluster
from ..datasets.registry import Dataset
from .base import Engine, RunResult
from .bsp import BspExecutionMixin
from .common import COSTS, cached_edge_partition

__all__ = ["GraphXEngine", "partition_placement", "default_partitions",
           "tuned_partitions"]

EDGE_LIST_SIZE_FACTOR = 1.7   # edge format vs adj (ClueWeb: 1.2 TB vs 700 GB)


def default_partitions(dataset: Dataset, block_size: int = 64 * 1024 * 1024) -> int:
    """Spark's default: one partition per HDFS block of the input."""
    edge_bytes = dataset.profile.raw_size_bytes * EDGE_LIST_SIZE_FACTOR
    return max(1, -(-int(edge_bytes) // block_size))


def tuned_partitions(dataset: Dataset, total_cores: int) -> int:
    """The paper's heuristic: #blocks capped at twice the core count."""
    return max(total_cores // 2, min(default_partitions(dataset), 2 * total_cores))


@lru_cache(maxsize=None)
def partition_placement(
    dataset_name: str, num_partitions: int, num_workers: int, seed: int = 5
) -> np.ndarray:
    """Partitions per machine under Spark's skewed placement (Fig 11).

    Locality-driven scheduling concentrates partitions: machine weights
    are drawn from a heavy-tailed distribution, so the maximum is
    several times the fair share — matching the paper's 54-of-1200
    observation on 128 machines.
    """
    import zlib

    key = f"{dataset_name}|{num_workers}|{seed}".encode("ascii")
    rng = np.random.default_rng(zlib.crc32(key))
    weights = rng.pareto(2.2, size=num_workers) + 1.0
    weights /= weights.sum()
    counts = rng.multinomial(num_partitions, weights)
    return counts


class GraphXEngine(BspExecutionMixin, Engine):
    """GraphX on Spark standalone (``S``)."""

    key = "S"
    trace_model = "dataflow"      # Pregel-on-RDDs: join/aggregate stages
    #: model contract: GraphX's skewed executors charge per-partition
    #: parallel_compute on top of the shared BSP surface
    model_primitives = frozenset({
        "advance", "parallel_compute", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "sample_memory",
    })
    display_name = "GraphX"
    language = "Scala"
    input_format = "edge"
    uses_all_machines = False   # one machine runs the driver
    features = MappingProxyType({
        "memory_disk": "Memory/Disk",
        "paradigm": "BSP-extension",
        "declarative": "no",
        "partitioning": "Random / Vertex-cut",
        "synchronization": "Synchronous",
        "fault_tolerance": "global checkpoint (lineage)",
    })

    # memory model
    rdd_edge_bytes = 40.0
    rdd_vertex_bytes = 56.0
    executor_base_bytes = 3.0 * GB
    #: lineage + shipped closures retained per vertex per (paper) iteration
    lineage_bytes_per_vertex_iter = 2.0

    # time model
    jobs_per_superstep = 3
    job_scheduling_overhead = 1.2
    task_launch_overhead = 0.2
    memory_skew = 0.10

    def __init__(self, num_partitions: Optional[int] = None,
                 partition_policy: str = "tuned",
                 wcc_variant: str = "hashmin") -> None:
        if partition_policy not in ("tuned", "default", "fixed"):
            raise ValueError(f"unknown partition_policy {partition_policy!r}")
        if partition_policy == "fixed" and num_partitions is None:
            raise ValueError("fixed policy needs num_partitions")
        if wcc_variant not in ("hashmin", "hash-to-min"):
            raise ValueError(f"unknown wcc_variant {wcc_variant!r}")
        self.partition_policy = partition_policy
        self.num_partitions = num_partitions
        self.wcc_variant = wcc_variant
        if wcc_variant == "hash-to-min":
            # GraphFrames' variant (§5.6): fewer, heavier iterations
            self.key = "S-h2m"

    def partitions_for(self, dataset: Dataset, cluster: Cluster) -> int:
        """Resolve the partition count for this run."""
        if self.partition_policy == "fixed":
            assert self.num_partitions is not None
            return self.num_partitions
        if self.partition_policy == "default":
            return default_partitions(dataset)
        cores = cluster.num_workers * cluster.spec.machine.cores
        return tuned_partitions(dataset, cores)

    def _vertex_cut(self, dataset: Dataset, num_workers: int):
        return cached_edge_partition(dataset.name, dataset.size, "random",
                                     num_workers)

    def _load(self, dataset, workload, cluster, result):
        """Read the edge list, build the edge/vertex RDDs."""
        raw = dataset.profile.raw_size_bytes * EDGE_LIST_SIZE_FACTOR
        cluster.hdfs_read(raw)
        cluster.uniform_compute(raw * COSTS.jvm_parse_cost, system_fraction=0.3)
        cluster.shuffle(raw)   # vertex-cut repartitioning

        parts = self.partitions_for(dataset, cluster)
        result.metrics.gauge("num_partitions").set(parts)
        placement = partition_placement(dataset.name, parts, cluster.num_workers)
        skew = float(placement.max() / max(placement.mean(), 1e-9) - 1.0)
        result.metrics.gauge("placement_skew").set(skew)

        cluster.memory.allocate_even(
            cluster.num_workers * self.executor_base_bytes, "executors", skew=0.0
        )
        # HDFS block placement spreads storage more evenly than task
        # scheduling spreads work; cap the storage skew.
        storage_skew = min(skew, 0.35)
        cluster.memory.allocate_even(
            dataset.profile.num_edges * self.rdd_edge_bytes, "edge-rdd",
            skew=storage_skew,
        )
        rf = self._vertex_cut(dataset, cluster.num_workers).replication_factor()
        cluster.memory.allocate_even(
            rf * dataset.profile.num_vertices * self.rdd_vertex_bytes,
            "vertex-rdd", skew=storage_skew,
        )
        cluster.sample_memory()

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """Several Spark jobs: full RDD scans in skewed task waves."""
        parts = self.partitions_for(dataset, cluster)
        placement = partition_placement(dataset.name, parts, cluster.num_workers)
        cores = cluster.spec.machine.cores
        # Work stealing rebalances placement skew while the partition
        # count stays near the core count; far beyond 2x cores,
        # locality scheduling pins tasks and the skew bites in full —
        # the paper's partition-count tuning rule (§4.4.3, Figure 2).
        total_cores = cluster.num_workers * cores
        skew_weight = min(1.0, parts / (2.0 * total_cores))
        mean = placement.mean()
        effective_max = mean + (placement.max() - mean) * skew_weight
        waves = max(1, int(-(-effective_max // cores)))
        per_partition_edges = dataset.profile.num_edges / parts
        task_time = (
            per_partition_edges * COSTS.spark_edge_cost
            + self.task_launch_overhead
        )
        messages = dataset.scaled_edges(stats.messages)

        cluster.advance(self.jobs_per_superstep * self.job_scheduling_overhead
                        * self.scale_fixed)
        # The busiest machine's waves set the superstep's pace; full RDD
        # scans are invariant work, one per paper superstep.
        cluster.parallel_compute(
            [waves * task_time * self.scale_fixed] * cluster.num_workers,
            system_fraction=0.3,
        )
        cluster.shuffle(messages * COSTS.msg_bytes * self.scale_messages,
                        skew=float(placement.max() / max(placement.mean(), 1e-9) - 1),
                        local_fraction=None)

        # Lineage grows every paper iteration until something gives (§5.6).
        cluster.memory.allocate_even(
            dataset.profile.num_vertices * self.lineage_bytes_per_vertex_iter
            * self.scale_fixed,
            "lineage", skew=self.memory_skew,
        )
        cluster.sample_memory()

    def _overhead(self, dataset, cluster, result):
        """Spark application start/stop (§5.7)."""
        cluster.advance(20.0 + 0.3 * cluster.spec.num_machines)
