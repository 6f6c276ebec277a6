"""Single-thread GAP-style implementations for the COST experiment (§5.13).

COST — "Configuration that Outperforms a Single Thread" — compares each
parallel system against an *optimized* single-thread implementation on
one big machine (512 GB). The paper uses the GAP Benchmark Suite:

* PageRank: ordinary power iteration (GAP's default 20 iterations);
* SSSP: direction-optimizing BFS (Beamer et al.) — switches from
  top-down frontier expansion to bottom-up parent search when the
  frontier gets large, the optimization that makes single-thread
  traversals embarrass parallel systems on power-law graphs;
* WCC: the Shiloach–Vishkin hook-and-compress algorithm.

These are real implementations (answers are checked against the
reference oracles); the simulated cost is their *measured operation
count* at paper scale on the COST machine.
"""

from __future__ import annotations

from types import MappingProxyType

from typing import Tuple

import numpy as np

from ..cluster import ClusterSpec, COST_MACHINE
from ..datasets.registry import Dataset
from ..graph.structures import Graph
from ..workloads.base import Workload
from ..workloads.pagerank import DAMPING, PageRank
from ..workloads.khop import KHop
from ..workloads.sssp import SSSP
from ..workloads.wcc import WCC
from .base import Engine, RunResult

__all__ = [
    "SingleThreadEngine",
    "direction_optimizing_bfs",
    "shiloach_vishkin_wcc",
    "gap_pagerank",
]


def gap_pagerank(graph: Graph, iterations: int = 20) -> Tuple[np.ndarray, int]:
    """(ranks, operations): plain power iteration, GAP's fixed 20 rounds."""
    n = graph.num_vertices
    ranks = np.full(n, 1.0)
    out_deg = graph.out_degrees().astype(float)
    src, dst = graph.edge_sources(), graph.edge_targets()
    ops = 0
    for _ in range(iterations):
        contrib = np.zeros(n)
        nz = out_deg > 0
        contrib[nz] = ranks[nz] / out_deg[nz]
        sums = np.zeros(n)
        np.add.at(sums, dst, contrib[src])
        ranks = DAMPING + (1.0 - DAMPING) * sums
        ops += graph.num_edges + n
    return ranks, ops


def direction_optimizing_bfs(
    graph: Graph, source: int, alpha: float = 15.0, beta: float = 18.0
) -> Tuple[np.ndarray, int]:
    """(hop distances, edges examined): Beamer's hybrid BFS.

    Top-down expands the frontier's out-edges; bottom-up scans
    *unvisited* vertices' in-edges looking for a visited parent and
    stops each scan at the first hit — far cheaper when the frontier
    covers most of the graph. Switch thresholds follow GAP (alpha/beta).
    """
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    if n == 0:
        return dist, 0
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    out_deg = graph.out_degrees()
    total_edges = graph.num_edges
    ops = 0
    level = 0
    bottom_up = False
    while frontier.size:
        level += 1
        frontier_edges = int(out_deg[frontier].sum())
        unvisited = np.isinf(dist)
        if not bottom_up and frontier_edges > total_edges / alpha:
            bottom_up = True
        elif bottom_up and frontier.size < n / beta:
            bottom_up = False

        if bottom_up:
            next_mask = np.zeros(n, dtype=bool)
            in_frontier = np.zeros(n, dtype=bool)
            in_frontier[frontier] = True
            for v in np.flatnonzero(unvisited):
                for u in graph.in_neighbors(v):
                    ops += 1
                    if in_frontier[u]:
                        dist[v] = level
                        next_mask[v] = True
                        break
            frontier = np.flatnonzero(next_mask)
        else:
            next_mask = np.zeros(n, dtype=bool)
            for v in frontier:
                nbrs = graph.out_neighbors(v)
                ops += nbrs.size
                for u in nbrs:
                    if np.isinf(dist[u]):
                        dist[u] = level
                        next_mask[u] = True
            frontier = np.flatnonzero(next_mask)
    return dist, ops


def shiloach_vishkin_wcc(graph: Graph) -> Tuple[np.ndarray, int]:
    """(component labels, operations): hook + pointer-jump to a fixpoint.

    Labels equal the minimum vertex id in each weakly connected
    component, matching the HashMin convention.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    src, dst = graph.edge_sources(), graph.edge_targets()
    ops = 0
    changed = True
    while changed:
        changed = False
        # Hook: point the larger root at the smaller across every edge.
        ps, pd = parent[src], parent[dst]
        ops += 2 * graph.num_edges
        lo = np.minimum(ps, pd)
        hi = np.maximum(ps, pd)
        mask = ps != pd
        if mask.any():
            # np.minimum.at resolves races deterministically
            np.minimum.at(parent, hi[mask], lo[mask])
            changed = True
        # Compress: full pointer jumping.
        while True:
            grand = parent[parent]
            ops += n
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent, ops


class SingleThreadEngine(Engine):
    """The COST baseline: one thread on a 512 GB machine."""

    key = "ST"
    display_name = "Single Thread (GAP)"
    language = "C++"
    input_format = "edge"
    trace_model = "single-thread"  # one kernel span, no supersteps
    #: model contract: the baseline touches no distributed
    #: communication primitive — local disk and compute only
    model_primitives = frozenset({
        "advance", "uniform_compute", "local_disk_io", "sample_memory",
    })
    uses_all_machines = False
    features = MappingProxyType({
        "memory_disk": "Memory",
        "paradigm": "Single-thread",
        "declarative": "no",
        "partitioning": "None",
        "synchronization": "N/A",
        "fault_tolerance": "N/A",
    })

    parse_rate_bps = 45e6        # text parsing, single thread
    op_cost = 5.0e-9             # per edge-examination (optimized C++)
    vertex_op_cost = 4.0e-9
    #: CSR + reverse CSR + work arrays, paper-scale bytes
    vertex_bytes = 56.0
    edge_bytes = 24.0

    def workers_for(self, spec: ClusterSpec) -> int:
        return 1

    def run(self, dataset: Dataset, workload: Workload,
            cluster_spec: ClusterSpec = None,
            obs=None) -> RunResult:   # type: ignore[override]
        """COST runs ignore the cluster: always the one big machine.

        There is no cluster to inject faults into, so a fault plan is
        refused rather than dropped.
        """
        if cluster_spec is not None and cluster_spec.fault_plan is not None:
            raise ValueError(
                "the single-thread baseline has no cluster to inject faults "
                "into; run it without a fault plan"
            )
        spec = ClusterSpec(num_machines=2, machine=COST_MACHINE)
        return super().run(dataset, workload, spec, obs=obs)

    def _load(self, dataset, workload, cluster, result):
        """Read and parse the text dataset on one thread."""
        raw = dataset.profile.raw_size_bytes
        cluster.local_disk_io(raw, threads=1)
        cluster.advance(raw / self.parse_rate_bps)
        needed = (
            dataset.profile.num_vertices * self.vertex_bytes
            + dataset.profile.num_edges * self.edge_bytes
        )
        cluster.memory.allocate(0, needed, "graph")
        cluster.sample_memory()

    def _execute(self, dataset, workload, cluster, result, scale):
        """Run the real optimized algorithm; charge its op count."""
        graph = self.graph_for(dataset, workload)
        state = workload.init_state(graph)
        if isinstance(workload, PageRank):
            values, ops = gap_pagerank(graph)
            iterations = 20
        elif isinstance(workload, WCC):
            labels, ops = shiloach_vishkin_wcc(graph)
            values = labels.astype(np.float64)
            iterations = 0
        elif isinstance(workload, (SSSP, KHop)):
            values, ops = direction_optimizing_bfs(graph, workload.source)
            if isinstance(workload, KHop):
                values = values.copy()
                values[values > workload.k] = np.inf
            iterations = 0
        else:
            raise KeyError(f"no single-thread implementation for {workload.name}")
        state.values = values
        state.done = True
        state.iteration = iterations

        scaled_ops = dataset.scaled_edges(ops)
        # traversal op counts also scale with the diameter ratio only in
        # per-level overhead, which is negligible single-threaded.
        with cluster.tracer.span(
            "kernel", cat=self.trace_model,
            algorithm=workload.name, ops=int(ops),
        ):
            cluster.uniform_compute(
                scaled_ops * self.op_cost
                + dataset.profile.num_vertices * self.vertex_op_cost,
                cores_per_machine=1,
            )
        result.metrics.gauge("ops").set(ops)
        return state

    def _save(self, dataset, workload, cluster, result, state):
        nbytes = workload.result_bytes_from_state(dataset.graph, state)
        cluster.local_disk_io(nbytes * dataset.vertex_scale, write=True,
                              threads=1)
