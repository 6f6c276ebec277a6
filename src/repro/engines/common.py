"""Shared cost constants and cached partitioning for the engines.

All calibration constants live here and in the engine classes, in one
visible place (DESIGN.md, "Calibration notes"). They encode the
qualitative cost hierarchy the paper measures — C++/MPI engines beat
JVM engines, Hadoop-family engines pay per-iteration I/O and job
overheads, Spark pays scheduling and lineage — with anchors taken from
the paper's own numbers (Table 6 per-iteration times, Table 8 memory,
Table 9 single-thread times).

Partitioning a dataset is deterministic and reused across many runs, so
partitions are memoized per (dataset, scheme, machine count). The same
holds one layer up: every engine replays the *same* workload supersteps
and differs only in what it charges for them, so each (workload
configuration, graph) trajectory is computed once per process and
replayed from :func:`superstep_trajectory` by every later run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..cluster import Cluster
from ..datasets.registry import load_dataset
from ..graph.structures import Graph
from ..obs import Counter, Histogram, Span
from ..obs.spans import record_failure
from ..workloads.base import SuperstepStats, Workload, WorkloadState
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
    "SuperstepScope",
    "SuperstepTrajectory",
    "superstep_trajectory",
    "cached_vertex_partition",
    "cached_edge_partition",
    "cached_block_partition",
]


class SuperstepScope:
    """Span + metrics for each observed superstep of one run.

    Shared by every engine: build one per superstep loop, then wrap
    each superstep's charging code in ``with scope(stats):``. The span
    (category = the engine's ``trace_model``, so BSP/GAS/MapReduce/
    block-centric/dataflow traces each show their shape) carries the
    superstep's workload stats, its shuffle-byte delta, and the
    cluster-wide memory peak; the registry accumulates
    ``messages_sent``, ``supersteps``, and the per-superstep
    histograms. A simulated failure mid-superstep closes the span with
    an ``error`` attr and skips the metrics — half-charged supersteps
    never pollute the series.

    The metric handles are fetched once per loop, each at the moment a
    superstep first touches it: ``bytes_shuffled`` when the first
    superstep opens, the rest when one first succeeds. So a run that
    fails in its first superstep journals no zero-valued series.
    """

    __slots__ = ("cluster", "model", "stats", "span", "_start",
                 "_shuffled_before", "_shuffled", "_series")

    def __init__(self, cluster: Cluster, model: str = "bsp") -> None:
        self.cluster = cluster
        self.model = model
        # stats is set by __call__, span by __enter__: one superstep's
        self.stats: SuperstepStats = None  # type: ignore[assignment]
        self.span: Span = None  # type: ignore[assignment]
        self._start = 0.0
        self._shuffled_before = 0.0
        self._shuffled: Optional[Counter] = None
        self._series: Optional[Tuple[Counter, Counter, Histogram, Histogram,
                                     Histogram]] = None

    def __call__(self, stats: SuperstepStats) -> "SuperstepScope":
        """Arm the scope for the superstep ``stats`` describes."""
        self.stats = stats
        return self

    def __enter__(self) -> Span:
        cluster = self.cluster
        shuffled = self._shuffled
        if shuffled is None:
            shuffled = self._shuffled = cluster.metrics.counter("bytes_shuffled")
        self._shuffled_before = shuffled.value
        self._start = cluster.now
        stats = self.stats
        # plain-int casts: workload stats may carry numpy scalars, which
        # would break the journal's JSON serialization
        self.span = cluster.tracer.start(
            "superstep", self.model,
            iteration=int(stats.iteration),
            active_vertices=int(stats.active_vertices),
            messages=int(stats.messages),
            updates=int(stats.updates),
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        cluster = self.cluster
        span = self.span
        if exc is not None:
            record_failure(span, exc)
        else:
            stats = self.stats
            peak = cluster.memory.max_peak_bytes()
            span.attrs["bytes_shuffled"] = (
                self._shuffled.value - self._shuffled_before  # type: ignore[union-attr]
            )
            span.attrs["peak_memory_bytes"] = peak
            series = self._series
            if series is None:
                metrics = cluster.metrics
                series = self._series = (
                    metrics.counter("supersteps"),
                    metrics.counter("messages_sent"),
                    metrics.histogram("active_vertices"),
                    metrics.histogram("superstep_seconds"),
                    metrics.histogram("superstep_memory_bytes"),
                )
            supersteps, messages, active, seconds, memory = series
            supersteps.inc()
            messages.inc(int(stats.messages))
            active.observe(float(stats.active_vertices))
            seconds.observe(cluster.now - self._start)
            memory.observe(peak)
        cluster.tracer.end(span)
        return False


class SuperstepTrajectory:
    """One workload's supersteps on one graph, computed at most once.

    Holds every superstep computed so far — its stats, the iteration
    count and the ``done`` flag after it — plus the live
    :class:`WorkloadState` the next one extends. :meth:`step` replays a
    recorded superstep or, one past the recorded prefix, computes it, so
    a run that stops early (a TO cell) costs no more than the supersteps
    it charged.
    """

    def __init__(
        self, workload: Workload, graph: Graph, state: WorkloadState
    ) -> None:
        self.workload = workload
        self.graph = graph
        self.state = state
        #: (iteration, done) before the first superstep
        self.start: Tuple[int, bool] = (state.iteration, state.done)
        self.steps: List[Tuple[SuperstepStats, int, bool]] = []
        #: set when a superstep raised: the live state may be half-updated
        self.broken = False

    def step(self, index: int) -> Tuple[SuperstepStats, int, bool]:
        """Superstep ``index``'s stats, and the iteration and ``done`` after it."""
        if index == len(self.steps):
            try:
                stats = self.workload.superstep(self.graph, self.state)
            except BaseException:
                self.broken = True
                raise
            self.steps.append((stats, self.state.iteration, self.state.done))
        return self.steps[index]

    def final_state(self) -> WorkloadState:
        """A private copy of the finished state, safe for the caller to mutate."""
        state = self.state
        return replace(
            state,
            values=state.values.copy(),
            active=state.active.copy(),
            history=list(state.history),
            aux={name: array.copy() for name, array in state.aux.items()},
        )


#: (workload class, constructor parameters, graph) -> its trajectory
_TRAJECTORIES: Dict[Hashable, SuperstepTrajectory] = {}


@contextmanager
def superstep_trajectory(
    workload: Workload, graph: Graph, state: Optional[WorkloadState] = None
) -> Iterator[SuperstepTrajectory]:
    """The per-process trajectory of ``workload`` on ``graph``.

    Keyed by the workload's class and constructor parameters and by the
    graph's content, so every engine that runs the same configuration
    on the same graph replays one trajectory. A caller-seeded ``state``
    gets a private trajectory that is never shared. The trajectory is
    checked out of the memo for the ``with`` block and put back after
    it, so a run on another thread never extends it concurrently (it
    builds its own); one whose superstep raised is dropped.
    """
    if state is not None:
        yield SuperstepTrajectory(workload, graph, state)
        return
    key = (type(workload), tuple(sorted(vars(workload).items())), graph)
    trajectory = _TRAJECTORIES.pop(key, None)
    if trajectory is None:
        trajectory = SuperstepTrajectory(
            workload, graph, workload.init_state(graph)
        )
    try:
        yield trajectory
    finally:
        if not trajectory.broken:
            _TRAJECTORIES[key] = trajectory


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
