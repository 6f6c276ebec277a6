"""Shared cost constants and cached partitioning for the engines.

All calibration constants live here and in the engine classes, in one
visible place (DESIGN.md, "Calibration notes"). They encode the
qualitative cost hierarchy the paper measures — C++/MPI engines beat
JVM engines, Hadoop-family engines pay per-iteration I/O and job
overheads, Spark pays scheduling and lineage — with anchors taken from
the paper's own numbers (Table 6 per-iteration times, Table 8 memory,
Table 9 single-thread times).

Partitioning a dataset is deterministic and reused across many runs, so
partitions are memoized per (dataset, scheme, machine count).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator

from ..cluster import Cluster
from ..datasets.registry import load_dataset
from ..obs import Span
from ..workloads.base import SuperstepStats
from ..partitioning.edge_cut import VertexPartition, random_vertex_partition
from ..partitioning.vertex_cut import (
    EdgePartition,
    auto_partition,
    random_edge_partition,
)
from ..partitioning.voronoi import BlockPartition, voronoi_partition

__all__ = [
    "CostConstants",
    "COSTS",
    "observed_superstep",
    "cached_vertex_partition",
    "cached_edge_partition",
    "cached_block_partition",
]


@contextmanager
def observed_superstep(
    cluster: Cluster,
    stats: SuperstepStats,
    model: str = "bsp",
) -> Iterator[Span]:
    """Span + metrics for one observed superstep, shared by every engine.

    Wrap the engine's charging code in this: the span (category =
    the engine's ``trace_model``, so BSP/GAS/MapReduce/block-centric/
    dataflow traces each show their shape) carries the superstep's
    workload stats, its shuffle-byte delta, and the cluster-wide memory
    peak; the registry accumulates ``messages_sent``, ``supersteps``,
    and the per-superstep histograms. A simulated failure mid-superstep
    closes the span with an ``error`` attr and skips the metrics —
    half-charged supersteps never pollute the series.
    """
    metrics = cluster.metrics
    shuffled_before = metrics.counter("bytes_shuffled").value
    start = cluster.now
    # plain-int casts: workload stats may carry numpy scalars, which
    # would break the journal's JSON serialization
    with cluster.tracer.span(
        "superstep", cat=model,
        iteration=int(stats.iteration),
        active_vertices=int(stats.active_vertices),
        messages=int(stats.messages),
        updates=int(stats.updates),
    ) as span:
        yield span
        peak = cluster.memory.max_peak_bytes()
        span.attrs["bytes_shuffled"] = (
            metrics.counter("bytes_shuffled").value - shuffled_before
        )
        span.attrs["peak_memory_bytes"] = peak
        metrics.counter("supersteps").inc()
        metrics.counter("messages_sent").inc(int(stats.messages))
        metrics.histogram("active_vertices").observe(float(stats.active_vertices))
        metrics.histogram("superstep_seconds").observe(cluster.now - start)
        metrics.histogram("superstep_memory_bytes").observe(peak)


class CostConstants:
    """Per-item simulated costs, in seconds and paper-scale bytes."""

    # -- compute rates (seconds per item, per core) -------------------------
    #: C++ engines (Blogel, GraphLab): ~12M edge ops per second per core
    cpp_edge_cost = 8.0e-8
    #: C++ per-vertex update
    cpp_vertex_cost = 1.5e-7
    #: JVM engines (Giraph, Gelly): ~5M edge/message ops per second per core
    #: (calibrated so Giraph tracks GraphLab under random partitioning, §5.5)
    jvm_edge_cost = 1.0e-7
    #: JVM per-vertex update (object overhead)
    jvm_vertex_cost = 5.0e-7
    #: Giraph per-superstep partition sweep, per vertex (Table 6 anchor:
    #: ~6 s per iteration on WRN at 16 machines, ~3 s at 32)
    giraph_sweep_cost = 4.5e-7
    #: Spark RDD scan, per edge (interpreter + serialization overhead)
    spark_edge_cost = 5.0e-6
    #: Hadoop record processing, per record (parse + serialize + sort share)
    hadoop_record_cost = 2.0e-6

    # -- message sizes (bytes, paper scale) ---------------------------------
    msg_bytes = 16
    #: WCC's uncombinable first-superstep discovery message (id + payload
    #: + JVM object overhead)
    wcc_first_msg_bytes = 36

    #: fraction of combinable message bytes that actually cross the wire
    #: after sender-side combining (sum/min collapse most duplicates)
    combine_efficiency = 0.15

    # -- parsing (load phase) ------------------------------------------------
    #: text parse + in-memory build, per input byte per core. Anchored to
    #: Table 7: Blogel-V reads+builds ClueWeb (784 GB adj-long) on 128
    #: machines in ~130 s, i.e. ~50 MB/s per machine through 4 cores.
    cpp_parse_cost = 8.0e-8
    jvm_parse_cost = 1.4e-7


COSTS = CostConstants()


@lru_cache(maxsize=None)
def cached_vertex_partition(
    dataset_name: str, size: str, num_parts: int, seed: int = 0
) -> VertexPartition:
    """Random edge-cut partition, memoized per dataset and machine count."""
    graph = load_dataset(dataset_name, size).graph
    return random_vertex_partition(graph, num_parts, seed=seed)


@lru_cache(maxsize=None)
def cached_edge_partition(
    dataset_name: str, size: str, scheme: str, num_parts: int, seed: int = 0
) -> EdgePartition:
    """Vertex-cut partition ('random' or 'auto'), memoized."""
    graph = load_dataset(dataset_name, size).graph
    if scheme == "random":
        return random_edge_partition(graph, num_parts, seed=seed)
    if scheme == "auto":
        return auto_partition(graph, num_parts, seed=seed)
    raise KeyError(f"unknown vertex-cut scheme {scheme!r}")


@lru_cache(maxsize=None)
def cached_block_partition(
    dataset_name: str, size: str, num_parts: int, seed: int = 0
) -> BlockPartition:
    """Blogel Voronoi block partition, memoized."""
    graph = load_dataset(dataset_name, size).graph
    return voronoi_partition(graph, num_parts, seed=seed)
