"""GraphLab / PowerGraph: the GAS vertex-cut engine (§2.1.2, §2.2).

Six configurations appear in the paper's figures, identified as
``GL-{A|S}-{A|R}-{T|I}``: (a)synchronous execution, (a)uto or (r)andom
partitioning, and (t)olerance or (i)teration stopping. Model
highlights:

* **Vertex-cut** partitioning with measured replication factors
  (Table 4); memory scales with the replica count, which is what kills
  the road network on 16 machines and ClueWeb everywhere (§5.2, §5.9).
* **C++/MPI**: no framework job overhead, cheap per-edge costs.
* **Cores**: by default 2 of the 4 cores compute and 2 handle
  communication; Figure 1's tuning experiment (all 4 cores → ~40 %
  faster synchronous, slightly *slower* asynchronous) is exposed via
  ``compute_cores``.
* **Asynchronous mode**: no barriers, but distributed locking adds
  contention that grows with cluster size (§5.3), and lock queues hold
  memory that is not released promptly — the Figure 10 blow-up that
  OOMs PageRank on WRN at 128 machines.
* **Self-edges** are dropped (GraphLab cannot represent them), so its
  PageRank is wrong on real graphs (§3.1.1) — reproduced by running on
  :meth:`Graph.without_self_edges`.
* **Approximate PageRank** (§5.2): tolerance mode lets converged
  vertices deactivate; gathers still read inactive neighbours.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from ..cluster import GB, Cluster
from ..datasets.registry import Dataset
from ..graph.structures import Graph
from ..workloads.base import Workload
from .base import Engine, RunResult
from .bsp import BspExecutionMixin
from .common import COSTS, cached_edge_partition

__all__ = ["GraphLabEngine"]


class GraphLabEngine(BspExecutionMixin, Engine):
    """GraphLab with a fixed (mode, partitioning, stop) configuration."""

    display_name = "GraphLab"
    language = "C++"
    trace_model = "gas"           # gather-apply-scatter over a vertex cut
    #: model contract: every Cluster primitive a run may call
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "sample_memory",
    })
    input_format = "adj"
    uses_all_machines = True    # MPI rank on every machine
    features = MappingProxyType({
        "memory_disk": "Memory",
        "paradigm": "Vertex-Centric (GAS)",
        "declarative": "no",
        "partitioning": "Random / Vertex-cut",
        "synchronization": "(A)synchronous",
        "fault_tolerance": "global checkpoint",
    })

    # memory model (paper-scale bytes)
    edge_bytes = 95.0            # edge with endpoint refs, data, index
    replica_bytes = 140.0        # vertex replica (data + mirror bookkeeping)
    framework_bytes = 0.5 * GB   # MPI + runtime baseline per machine

    # time model
    mpi_superstep_base = 0.05   # all-to-all flush; grows ~sqrt(ranks)
    oblivious_edge_cost = 4.0e-7        # greedy placement, coordinated
    async_lock_cost = 2.0e-7            # per-update distributed-lock overhead
    async_contention_per_machine = 0.01
    #: bytes of unreleased lock-queue memory per vertex per superstep-
    #: equivalent at 128 machines (super-quadratic in cluster size; Fig 10)
    async_leak_bytes = 110.0
    async_leak_exponent = 2.5

    def __init__(
        self,
        mode: str = "sync",
        partitioning: str = "random",
        stop: str = "iterations",
        compute_cores: int = 2,
    ) -> None:
        if mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {mode!r}")
        if partitioning not in ("random", "auto"):
            raise ValueError(f"unknown partitioning {partitioning!r}")
        if stop not in ("tolerance", "iterations"):
            raise ValueError(f"unknown stop {stop!r}")
        if not 1 <= compute_cores <= 4:
            raise ValueError("compute_cores must be 1..4")
        self.mode = mode
        self.partitioning = partitioning
        self.stop = stop
        self.compute_cores = compute_cores
        self.pagerank_stop = stop
        self.pagerank_approximate = stop == "tolerance"
        self.key = (
            f"GL-{'S' if mode == 'sync' else 'A'}-"
            f"{'R' if partitioning == 'random' else 'A'}-"
            f"{'T' if stop == 'tolerance' else 'I'}"
        )

    # -- quirks -----------------------------------------------------------

    def graph_for(self, dataset: Dataset, workload: Workload) -> Graph:
        """GraphLab silently drops self-edges (§3.1.1)."""
        return _noself(dataset.name, dataset.size)

    def _partition(self, dataset: Dataset, num_workers: int):
        return cached_edge_partition(
            dataset.name, dataset.size, self.partitioning, num_workers
        )

    # -- phases -----------------------------------------------------------

    def _load(self, dataset, workload, cluster, result):
        """Read, place edges (scheme-dependent cost), build replicas."""
        raw = dataset.profile.raw_size_bytes
        cluster.hdfs_read(raw)
        cluster.uniform_compute(raw * COSTS.cpp_parse_cost)

        partition = self._partition(dataset, cluster.num_workers)
        scaled_e = dataset.profile.num_edges
        if partition.method == "oblivious":
            # Greedy placement needs replica-set coordination: one
            # effective core per machine, far slower than hashing (§5.4).
            cluster.uniform_compute(
                scaled_e * self.oblivious_edge_cost * cluster.spec.machine.cores,
                cores_per_machine=1,
            )
        else:
            cluster.uniform_compute(scaled_e * 2.0e-8)
        cluster.shuffle(raw)   # edges move to their assigned machines

        rf = partition.replication_factor()
        result.metrics.gauge("replication_factor").set(rf)
        # Small-graph partitions overstate imbalance; see GiraphEngine.
        skew = min(max(partition.balance_skew(), 0.05), 0.15)
        cluster.memory.allocate_even(
            cluster.num_workers * self.framework_bytes, "framework", skew=0.0
        )
        cluster.memory.allocate_even(
            scaled_e * self.edge_bytes, "edges", skew=skew
        )
        cluster.memory.allocate_even(
            rf * dataset.profile.num_vertices * self.replica_bytes,
            "replicas", skew=skew,
        )
        # replica construction touches every edge twice (in+out views)
        cluster.uniform_compute(
            (scaled_e + rf * dataset.profile.num_vertices) * 1.2e-7
        )
        cluster.sample_memory()

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """One GAS round: gather + apply + scatter + replica sync."""
        partition = self._partition(dataset, cluster.num_workers)
        rf = partition.replication_factor()
        skew = min(max(partition.balance_skew(), 0.02), 0.15)
        active = dataset.scaled_vertices(stats.active_vertices)
        gathered = dataset.scaled_edges(stats.messages)

        work = gathered * COSTS.cpp_edge_cost + active * COSTS.cpp_vertex_cost
        if self.mode == "sync":
            cluster.uniform_compute(
                work * self.scale_messages,
                cores_per_machine=self.compute_cores, skew=skew,
            )
            # replica synchronization: each active vertex updates its mirrors
            cluster.shuffle(active * max(0.0, rf - 1.0) * COSTS.msg_bytes
                            * self.scale_messages,
                            skew=skew, local_fraction=0.0)
            cluster.advance(
                (self.mpi_superstep_base * cluster.num_workers ** 0.5
                 + cluster.network.barrier_time()) * self.scale_fixed
            )
        else:
            contention = 1.0 + self.async_contention_per_machine * cluster.num_workers
            # Asynchronous progress is communication- and lock-bound:
            # extra compute cores only add context switching (Fig 1).
            core_penalty = 1.1 if self.compute_cores > 2 else 1.0
            lock_work = dataset.scaled_vertices(stats.updates) * self.async_lock_cost
            cluster.uniform_compute(
                (work + lock_work) * contention * core_penalty
                * self.scale_messages,
                cores_per_machine=2,
            )
            cluster.shuffle(active * max(0.0, rf - 1.0) * COSTS.msg_bytes
                            * self.scale_messages,
                            skew=skew, local_fraction=0.0)
            # Lock queues hold memory that is not promptly released; the
            # effect grows quadratically with cluster size (Fig 10).
            m = cluster.spec.num_machines
            leak = (
                dataset.profile.num_vertices * self.async_leak_bytes
                * (m / 128.0) ** self.async_leak_exponent * self.scale_fixed
            )
            cluster.memory.allocate_even(leak, "async-locks", skew=0.3)
        cluster.sample_memory()


@lru_cache(maxsize=None)
def _noself(name: str, size: str) -> Graph:
    from ..datasets.registry import load_dataset

    return load_dataset(name, size).graph.without_self_edges()
