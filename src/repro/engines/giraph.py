"""Giraph: vertex-centric BSP as a map-only Hadoop application (§2.1.1).

Model highlights, each traceable to the paper:

* Random edge-cut partitioning; the whole graph must fit in memory
  before execution starts.
* JVM object overhead: Table 8 shows Giraph using 15x the raw dataset
  size in memory, growing with cluster size (per-worker JVM baseline).
* Per-superstep cost has a partition-sweep component proportional to
  |V| / cores — the Table 6 anchor (WRN SSSP: ~6 s/iteration on 16
  machines, ~3 s on 32).
* Hadoop job start/stop overhead grows with cluster size (§5.5, §5.7).
* WCC doubles edge memory (reverse edges) and its first superstep
  cannot use the message combiner (§5.8) — big, uncombined discovery
  messages are what push UK0705 loads over the memory cliff on small
  clusters.
"""

from __future__ import annotations

from types import MappingProxyType

from ..cluster import GB, Cluster
from ..datasets.registry import Dataset
from ..workloads.base import Workload, WorkloadState
from .base import Engine, RunResult
from .bsp import BspExecutionMixin
from .common import COSTS, cached_vertex_partition

__all__ = ["GiraphEngine"]


class GiraphEngine(BspExecutionMixin, Engine):
    """Giraph (the paper's ``G``)."""

    key = "G"
    display_name = "Giraph"
    pagerank_stop = "iterations"   # Giraph runs a fixed iteration count (§5.5)
    language = "Java"
    trace_model = "bsp"            # vertex-centric supersteps + global barrier
    #: model contract: every Cluster primitive a run may call
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "sample_memory",
    })
    input_format = "adj"
    uses_all_machines = False   # runs as Hadoop mappers; master excluded
    features = MappingProxyType({
        "memory_disk": "Memory",
        "paradigm": "Vertex-Centric",
        "declarative": "no",
        "partitioning": "Random",
        "synchronization": "Synchronous",
        "fault_tolerance": "global checkpoint",
    })

    # memory model (paper-scale bytes)
    jvm_base_bytes = 6.0 * GB     # per-worker JVM + framework baseline
    vertex_bytes = 360.0          # vertex object + partition overhead
    edge_bytes = 60.0             # adjacency entry as JVM object
    combiner_buffer_bytes = 24.0  # per-vertex combined-message slot

    # time model
    job_overhead_base = 8.0       # Hadoop job start/stop (seconds)
    job_overhead_per_machine = 0.45
    superstep_coordination = 0.3  # ZooKeeper barrier + worker sync
    memory_skew = 0.10            # JVM variance on top of partition balance

    def _partition(self, dataset: Dataset, num_workers: int):
        return cached_vertex_partition(dataset.name, dataset.size, num_workers)

    def _load(self, dataset, workload, cluster, result):
        """Read the adj dataset, shuffle vertices to partitions, build objects."""
        raw = dataset.profile.raw_size_bytes
        cluster.hdfs_read(raw)
        cluster.uniform_compute(raw * COSTS.jvm_parse_cost, system_fraction=0.3)
        # Random partitioning moves nearly all data across the wire.
        cluster.shuffle(raw)

        scaled_v = dataset.profile.num_vertices
        scaled_e = dataset.profile.num_edges
        edge_factor = 2.0 if workload.needs_reverse_edges else 1.0
        partition = self._partition(dataset, cluster.num_workers)
        skew = max(partition.balance_skew(), self.memory_skew)
        cluster.memory.allocate_even(
            cluster.num_workers * self.jvm_base_bytes, "jvm", skew=0.0
        )
        cluster.memory.allocate_even(
            scaled_v * self.vertex_bytes, "vertices", skew=skew
        )
        cluster.memory.allocate_even(
            scaled_e * self.edge_bytes * edge_factor, "edges", skew=skew
        )
        # building the in-memory representation costs JVM-object time
        cluster.uniform_compute(
            (scaled_v + scaled_e * edge_factor) * COSTS.jvm_vertex_cost * 0.2,
            system_fraction=0.2,
        )
        cluster.sample_memory()

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """Compute + message shuffle + barrier for one superstep."""
        partition = self._partition(dataset, cluster.num_workers)
        # Small-graph partitions overstate imbalance; at paper scale a
        # random hash over hundreds of millions of vertices is tight.
        skew = min(max(partition.balance_skew(), 0.02), 0.15)
        active = dataset.scaled_vertices(stats.active_vertices)
        messages = dataset.scaled_edges(stats.messages)

        # Message buffers: combinable workloads reduce to one slot per
        # vertex; WCC's first superstep ships raw discovery messages.
        if first and workload.needs_reverse_edges:
            buffer_bytes = messages * COSTS.wcc_first_msg_bytes
        elif workload.combinable:
            buffer_bytes = dataset.profile.num_vertices * self.combiner_buffer_bytes
        else:
            buffer_bytes = messages * COSTS.msg_bytes
        cluster.memory.allocate_even(buffer_bytes, "messages", skew=self.memory_skew)
        cluster.sample_memory()

        sweep = dataset.profile.num_vertices * COSTS.giraph_sweep_cost
        work = (
            active * COSTS.jvm_vertex_cost + messages * COSTS.jvm_edge_cost
        ) * self.scale_messages + sweep * self.scale_fixed
        cluster.uniform_compute(work, skew=skew, system_fraction=0.15)
        combinable = workload.combinable and not (first and workload.needs_reverse_edges)
        combine = COSTS.combine_efficiency if combinable else 1.0
        wire_bytes = (messages * COSTS.msg_bytes * partition.cut_fraction()
                      * combine * self.scale_messages)
        cluster.shuffle(wire_bytes, skew=skew, local_fraction=0.0)
        cluster.advance(
            (self.superstep_coordination + cluster.network.barrier_time())
            * self.scale_fixed
        )
        cluster.memory.free_label("messages")

    def _overhead(self, dataset, cluster, result):
        """MapReduce resource allocation/release grows with cluster size."""
        machines = cluster.spec.num_machines
        cluster.advance(
            self.job_overhead_base + self.job_overhead_per_machine * machines
        )
