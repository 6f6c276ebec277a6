"""Blogel: the paper's overall winner (§2.1.3, §2.3, §5.1).

**Blogel-V** is plain vertex-centric BSP in C++/MPI: tiny memory
footprint (it is the only system that finishes WRN at 16 machines and
ClueWeb at all, §5.9), no framework job overhead, but an MPI all-to-all
per superstep whose cost grows with the rank count.

**Blogel-B** partitions with the Graph Voronoi Diagram and runs a
serial algorithm inside each block, synchronizing blocks with BSP:

* Execution time is the shortest for reachability workloads (few global
  supersteps), but the *end-to-end* time pays for the GVD partitioning
  phase plus an HDFS write/read round-trip between partitioning and
  execution — removing that round-trip cuts ~50 % of response time
  (Figure 3), exposed via ``skip_hdfs_roundtrip``.
* PageRank uses the awkward two-step algorithm of §3.1.2 (block-level
  PageRank for initialization, then vertex-level PageRank), implemented
  for real here — and, as in the paper, the initialization does not pay
  off.
* The Voronoi master-side aggregation overflows MPI's 32-bit offsets
  when the vertex count is large enough (WRN, ClueWeb), killing the run
  with the ``MPI`` failure cell (§5.1).
"""

from __future__ import annotations

from types import MappingProxyType

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..cluster import GB, MPIOverflowError
from ..datasets.registry import Dataset
from ..graph.structures import Graph
from ..partitioning.voronoi import INT32_MAX, BlockPartition
from ..workloads.base import WorkloadState
from ..workloads.pagerank import DAMPING, PageRank
from ..workloads.khop import KHop
from .base import Engine
from .bsp import BspExecutionMixin
from .common import COSTS, cached_block_partition, cached_vertex_partition

__all__ = ["BlogelVEngine", "BlogelBEngine"]


class BlogelVEngine(BspExecutionMixin, Engine):
    """Blogel vertex-centric (``BV``) — best end-to-end performance."""

    key = "BV"
    display_name = "Blogel-V"
    language = "C++"
    trace_model = "bsp"           # vertex-centric supersteps over MPI
    #: RPL011 contract: every primitive reachable from run() (see
    #: MODEL_PRIMITIVES in engines/base.py)
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "sample_memory",
    })
    input_format = "adj-long"
    uses_all_machines = True
    features = MappingProxyType({
        "memory_disk": "Memory",
        "paradigm": "Vertex-Centric",
        "declarative": "no",
        "partitioning": "Random",
        "synchronization": "Synchronous",
        "fault_tolerance": "global checkpoint",
    })

    # memory model: compact C++ structs
    vertex_bytes = 100.0
    edge_bytes = 16.0
    framework_bytes = 0.3 * GB

    # time model
    mpi_superstep_base = 0.05     # all-to-all flush; grows ~sqrt(ranks)
    adj_long_size_factor = 1.12   # adj-long carries degree fields (§4.3)

    def _partition(self, dataset: Dataset, num_workers: int):
        return cached_vertex_partition(dataset.name, dataset.size, num_workers)

    def _load(self, dataset, workload, cluster, result):
        """Chunk-parallel HDFS read, hash distribute, build structs."""
        raw = dataset.profile.raw_size_bytes * self.adj_long_size_factor
        cluster.hdfs_read(raw)
        cluster.uniform_compute(raw * COSTS.cpp_parse_cost)
        cluster.shuffle(raw)

        partition = self._partition(dataset, cluster.num_workers)
        skew = max(partition.balance_skew(), 0.03)
        edge_factor = 2.0 if workload.needs_reverse_edges else 1.0
        cluster.memory.allocate_even(
            cluster.num_workers * self.framework_bytes, "framework", skew=0.0
        )
        cluster.memory.allocate_even(
            dataset.profile.num_vertices * self.vertex_bytes, "vertices", skew=skew
        )
        cluster.memory.allocate_even(
            dataset.profile.num_edges * self.edge_bytes * edge_factor,
            "edges", skew=skew,
        )
        cluster.uniform_compute(dataset.profile.num_edges * 1.0e-8)
        cluster.sample_memory()

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """Compute + message exchange + MPI barrier."""
        partition = self._partition(dataset, cluster.num_workers)
        skew = max(partition.balance_skew(), 0.02)
        active = dataset.scaled_vertices(stats.active_vertices)
        messages = dataset.scaled_edges(stats.messages)

        combinable = workload.combinable and not (first and workload.needs_reverse_edges)
        buffer_bytes = (
            dataset.profile.num_vertices * COSTS.msg_bytes
            if combinable else messages * COSTS.msg_bytes
        )
        cluster.memory.allocate_even(buffer_bytes, "messages", skew=0.05)
        cluster.sample_memory()

        work = (messages * COSTS.cpp_edge_cost + active * COSTS.cpp_vertex_cost)
        cluster.uniform_compute(work * self.scale_messages, skew=skew)
        combine = COSTS.combine_efficiency if combinable else 1.0
        cluster.shuffle(messages * COSTS.msg_bytes * partition.cut_fraction()
                        * combine * self.scale_messages,
                        skew=skew, local_fraction=0.0)
        cluster.advance(
            (self.mpi_superstep_base * cluster.num_workers ** 0.5
             + cluster.network.barrier_time()) * self.scale_fixed
        )
        cluster.memory.free_label("messages")

    def _execute(self, dataset, workload, cluster, result, scale):
        return self.run_superstep_loop(
            self.graph_for(dataset, workload), dataset, workload, cluster,
            result, scale,
        )


@lru_cache(maxsize=None)
def _cached_property_partition(
    name: str, size: str, partitioner: str, num_parts: int
) -> BlockPartition:
    """Dataset-specific block partitions (§2.3), memoized."""
    from ..datasets.registry import load_dataset
    from ..partitioning.dataset_specific import (
        coordinate_partition,
        url_prefix_partition,
    )

    dataset = load_dataset(name, size)
    meta = dataset.meta()
    if partitioner == "coordinate":
        if "grid_shape" not in meta:
            raise ValueError(f"{name} has no 2-D coordinates")
        return coordinate_partition(
            dataset.graph, num_parts, grid_shape=meta["grid_shape"]
        )
    if "pages_per_host" not in meta:
        raise ValueError(f"{name} has no URL structure")
    return url_prefix_partition(
        dataset.graph, num_parts, pages_per_host=meta["pages_per_host"]
    )


@lru_cache(maxsize=None)
def _split_by_block(
    name: str, size: str, num_parts: int, partitioner: str = "voronoi"
) -> Tuple[Graph, Graph]:
    """(intra-block subgraph, cross-block subgraph) for a dataset."""
    from ..datasets.registry import load_dataset

    graph = load_dataset(name, size).graph
    if partitioner == "voronoi":
        bp = cached_block_partition(name, size, num_parts)
    else:
        bp = _cached_property_partition(name, size, partitioner, num_parts)
    src_b = bp.block_of[graph.edge_sources()]
    dst_b = bp.block_of[graph.edge_targets()]
    intra = graph.subgraph_edges(src_b == dst_b)
    cross = graph.subgraph_edges(src_b != dst_b)
    return intra, cross


def _block_pagerank(bp: BlockPartition, max_iters: int = 50) -> np.ndarray:
    """Step 1 of §3.1.2: PageRank on the weighted graph of blocks."""
    pairs, weights = bp.block_graph_edges()
    n_blocks = bp.num_blocks
    ranks = np.ones(n_blocks)
    if len(pairs) == 0 or n_blocks == 0:
        return ranks
    out_weight = np.zeros(n_blocks)
    np.add.at(out_weight, pairs[:, 0], weights.astype(float))
    for _ in range(max_iters):
        contrib = np.zeros(n_blocks)
        nz = out_weight > 0
        contrib[nz] = ranks[nz] / out_weight[nz]
        sums = np.zeros(n_blocks)
        np.add.at(sums, pairs[:, 1], contrib[pairs[:, 0]] * weights)
        new_ranks = DAMPING + (1.0 - DAMPING) * sums
        if np.abs(new_ranks - ranks).max() < 1e-6:
            ranks = new_ranks
            break
        ranks = new_ranks
    return ranks


class BlogelBEngine(BspExecutionMixin, Engine):
    """Blogel block-centric (``BB``) — shortest execution time (§5.1)."""

    key = "BB"
    display_name = "Blogel-B"
    language = "C++"
    trace_model = "block-centric"  # serial-in-block + cross-block rounds
    #: RPL011 contract: Blogel-B additionally gathers Voronoi block
    #: state to the master during partitioned loading
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle", "gather_to_master",
        "hdfs_read", "hdfs_write", "sample_memory",
    })
    input_format = "adj-long"
    uses_all_machines = True
    features = MappingProxyType({
        "memory_disk": "Memory",
        "paradigm": "Block-Centric",
        "declarative": "no",
        "partitioning": "Voronoi",
        "synchronization": "Synchronous",
        "fault_tolerance": "global checkpoint",
    })

    vertex_bytes = 110.0     # vertex + block id
    edge_bytes = 16.0
    framework_bytes = 0.3 * GB
    mpi_superstep_base = 0.05     # all-to-all flush; grows ~sqrt(ranks)
    adj_long_size_factor = 1.12
    #: serial in-block algorithms skip message materialization: cheaper
    #: per edge than message-passing execution (the block-centric win)
    block_local_discount = 0.4
    #: partitioned data re-serialized with block ids (HDFS round-trip)
    partitioned_size_factor = 1.3
    #: bytes per item in the master-side Voronoi aggregation (§5.1)
    voronoi_aggregate_item_bytes = 8

    def __init__(
        self,
        skip_hdfs_roundtrip: bool = False,
        partitioner: str = "voronoi",
    ) -> None:
        # The Figure 3 modification: keep partitions in memory instead of
        # writing them to HDFS and reading them back.
        if partitioner not in ("voronoi", "coordinate", "url-prefix"):
            raise ValueError(f"unknown partitioner {partitioner!r}")
        self.skip_hdfs_roundtrip = skip_hdfs_roundtrip
        self.partitioner = partitioner
        if partitioner == "coordinate":
            self.key = "BB-coord"
        elif partitioner == "url-prefix":
            self.key = "BB-url"
        if skip_hdfs_roundtrip:
            self.key = self.key.rstrip("*") + "*"

    def _partition(self, dataset: Dataset, num_workers: int) -> BlockPartition:
        if self.partitioner == "voronoi":
            return cached_block_partition(dataset.name, dataset.size, num_workers)
        return _cached_property_partition(
            dataset.name, dataset.size, self.partitioner, num_workers
        )

    def _load(self, dataset, workload, cluster, result):
        """Read, run GVD partitioning, optionally round-trip through HDFS."""
        raw = dataset.profile.raw_size_bytes * self.adj_long_size_factor
        cluster.hdfs_read(raw)
        cluster.uniform_compute(raw * COSTS.cpp_parse_cost)
        cluster.shuffle(raw)

        if self.partitioner == "voronoi":
            # The MPI int-overflow: each round the master aggregates block
            # assignment data for every vertex; byte offsets are 32-bit.
            aggregate_bytes = (
                dataset.profile.num_vertices * self.voronoi_aggregate_item_bytes
            )
            if aggregate_bytes > INT32_MAX:
                raise MPIOverflowError(
                    f"Voronoi aggregation of {aggregate_bytes / 1e9:.1f} GB "
                    "overflows MPI's 32-bit offsets",
                    # the gather lands on the master rank
                    machine=0,
                )

        bp = self._partition(dataset, cluster.num_workers)
        result.extras["num_blocks"] = float(bp.num_blocks)
        if self.partitioner == "voronoi":
            # GVD: each sampling round is a multi-source BFS over the
            # graph plus a master-side aggregation.
            per_round = dataset.profile.num_edges * COSTS.cpp_edge_cost
            for _ in range(bp.rounds):
                cluster.uniform_compute(per_round)
                cluster.gather_to_master(
                    dataset.profile.num_vertices
                    * self.voronoi_aggregate_item_bytes
                    / max(1, cluster.num_workers)
                )
        else:
            # Property-based block assignment is a local pass per vertex:
            # no sampling rounds, no master aggregation (§2.3's techniques).
            cluster.uniform_compute(
                dataset.profile.num_vertices * COSTS.cpp_vertex_cost
            )
        cluster.shuffle(raw)   # move vertices to their block's machine

        if not self.skip_hdfs_roundtrip:
            # Stock Blogel-B persists the partitioned dataset to HDFS and
            # reads it back before execution (§5.1): one writer/reader
            # thread per worker, plus a full re-parse on the way in.
            partitioned = raw * self.partitioned_size_factor
            cluster.hdfs_write(partitioned, writer_threads=cluster.num_workers)
            cluster.hdfs_read(partitioned, reader_threads=cluster.num_workers)
            cluster.uniform_compute(partitioned * COSTS.cpp_parse_cost)

        skew = min(max(bp.balance_skew(), 0.05), 0.15)
        edge_factor = 2.0 if workload.needs_reverse_edges else 1.0
        cluster.memory.allocate_even(
            cluster.num_workers * self.framework_bytes, "framework", skew=0.0
        )
        cluster.memory.allocate_even(
            dataset.profile.num_vertices * self.vertex_bytes, "vertices", skew=skew
        )
        cluster.memory.allocate_even(
            dataset.profile.num_edges * self.edge_bytes * edge_factor,
            "edges", skew=skew,
        )
        cluster.sample_memory()

    # -- cost charging -------------------------------------------------------

    def _charge_local(self, dataset, cluster, bp, messages, active):
        """In-block work: serial (discounted) or plain vertex-centric.

        §3.1.2's PageRank step 2 runs *vertex-centric* computation over
        the whole graph — message passing at full price — while the
        reachability workloads run serial algorithms inside each block.
        """
        skew = min(max(bp.balance_skew(), 0.05), 0.15)
        discount = (
            1.0 if getattr(self, "_vertex_centric_mode", False)
            else self.block_local_discount
        )
        work = (
            dataset.scaled_edges(messages) * COSTS.cpp_edge_cost
            + dataset.scaled_vertices(active) * COSTS.cpp_vertex_cost
        ) * discount
        cluster.uniform_compute(work * self.scale_messages, skew=skew)

    def _charge_global(self, dataset, cluster, bp, messages, combinable=True):
        """Cross-block exchange + BSP barrier."""
        combine = COSTS.combine_efficiency if combinable else 1.0
        wire = (
            dataset.scaled_edges(messages) * COSTS.msg_bytes
            * (bp.cut_fraction() / max(bp.block_cut_fraction(), 1e-9))
        )
        cluster.shuffle(min(wire, dataset.scaled_edges(messages) * COSTS.msg_bytes)
                        * combine * self.scale_messages,
                        skew=min(max(bp.balance_skew(), 0.02), 0.15),
                        local_fraction=0.0)
        cluster.advance(
            (self.mpi_superstep_base * cluster.num_workers ** 0.5
             + cluster.network.barrier_time()) * self.scale_fixed
        )

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """Per-superstep charging for K-hop and PageRank step 2.

        Compute covers *every* message (the receiving block processes
        cross-block messages too); only the cross-block share hits the
        network.
        """
        bp = self._partition(dataset, cluster.num_workers)
        self._charge_local(
            dataset, cluster, bp, stats.messages, stats.active_vertices
        )
        combinable = workload.combinable and not (first and workload.needs_reverse_edges)
        self._charge_global(dataset, cluster, bp,
                            stats.messages * bp.block_cut_fraction(),
                            combinable=combinable)

    # -- execution ------------------------------------------------------------

    def _execute(self, dataset, workload, cluster, result, scale):
        graph = self.graph_for(dataset, workload)
        bp = self._partition(dataset, cluster.num_workers)
        if isinstance(workload, PageRank):
            return self._execute_pagerank(graph, dataset, workload, cluster,
                                          result, bp)
        from ..workloads.base import WorkloadKind

        if isinstance(workload, KHop) or workload.kind is WorkloadKind.ANALYTIC:
            # Hop-bounded queries and iteration-capped analytics run the
            # plain loop with block-aware costs: the serial in-block
            # fixpoint would not terminate for oscillating propagations.
            return self.run_superstep_loop(graph, dataset, workload, cluster,
                                           result, scale)
        return self._execute_block_bsp(graph, dataset, workload, cluster,
                                       result, scale, bp)

    def _execute_block_bsp(
        self, graph, dataset, workload, cluster, result, scale, bp
    ) -> WorkloadState:
        """Serial-within-block, BSP-across-blocks (WCC, SSSP)."""
        intra, cross = _split_by_block(dataset.name, dataset.size,
                                       cluster.num_workers, self.partitioner)
        state = workload.init_state(graph)
        self.scale_fixed = scale
        self.scale_messages = scale ** 0.5
        pending = state.active.copy()
        outer_rounds = 0
        metrics = cluster.metrics
        while True:
            # One outer round is this model's superstep: an in-block
            # fixpoint then one cross-block exchange — traced as a
            # superstep span with block-local/block-global children so
            # the block-centric shape is visible next to plain BSP.
            round_start = cluster.now
            shuffled_before = metrics.counter("bytes_shuffled").value
            with cluster.tracer.span(
                "superstep", cat=self.trace_model, iteration=outer_rounds + 1,
            ) as round_span:
                # Local phase: run to an in-block fixpoint.
                state.active = pending.copy()
                touched = pending.copy()
                state.done = False
                local_steps = 0
                round_messages = 0
                with cluster.tracer.span("block-local", cat=self.trace_model):
                    while True:
                        stats = workload.superstep(intra, state)
                        touched |= state.active
                        local_steps += 1
                        round_messages += int(stats.messages)
                        self._charge_local(dataset, cluster, bp, stats.messages,
                                           stats.active_vertices)
                        if stats.updates == 0:
                            break
                # Global phase: one cross-block exchange from everything
                # that changed, charged `scale` times (block-graph hops
                # scale with the dataset's diameter like vertex hops do).
                state.active = touched
                state.done = False
                with cluster.tracer.span("block-global", cat=self.trace_model):
                    stats = workload.superstep(cross, state)
                    self._charge_global(dataset, cluster, bp, stats.messages)
                outer_rounds += 1
                round_messages += int(stats.messages)
                round_span.attrs.update({
                    "active_vertices": int(touched.sum()),
                    "messages": round_messages,
                    "updates": int(stats.updates),
                    "local_steps": local_steps,
                    "bytes_shuffled": (
                        metrics.counter("bytes_shuffled").value - shuffled_before
                    ),
                    "peak_memory_bytes": cluster.memory.max_peak_bytes(),
                })
                metrics.counter("supersteps").inc()
                metrics.counter("messages_sent").inc(round_messages)
                metrics.histogram("superstep_seconds").observe(
                    cluster.now - round_start
                )
            pending = state.active.copy()
            if stats.updates == 0:
                break
        state.done = True
        state.iteration = outer_rounds
        self.scale_fixed = 1.0
        self.scale_messages = 1.0
        result.extras["outer_rounds"] = float(outer_rounds)
        return state

    def _execute_pagerank(
        self, graph, dataset, workload, cluster, result, bp
    ) -> WorkloadState:
        """§3.1.2's two-step PageRank, executed for real.

        Step 1 computes block-level PageRank (cheap, local); step 2
        seeds every vertex with ``pr(v) * pr(block)`` and runs ordinary
        vertex-centric PageRank to the workload's stopping criterion.
        """
        block_ranks = _block_pagerank(bp)
        # Step-1 cost: a few dozen iterations over the tiny block graph
        # plus one local PageRank pass inside each block.
        cluster.uniform_compute(
            dataset.profile.num_edges * COSTS.cpp_edge_cost * 3.0
        )
        cluster.advance(self.mpi_superstep_base * cluster.num_workers ** 0.5)

        state = workload.init_state(graph)
        norm = block_ranks.mean() if block_ranks.size else 1.0
        state.values = state.values * block_ranks[bp.block_of] / max(norm, 1e-12)
        self._vertex_centric_mode = True
        try:
            state = self.run_superstep_loop(
                graph, dataset, workload, cluster, result, scale=1.0,
                state=state,
            )
        finally:
            self._vertex_centric_mode = False
        return state
