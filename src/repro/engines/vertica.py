"""Vertica: graph analytics on a relational column store (§2.6, §5.11).

The graph is an edge table plus a vertex table; one superstep is a
distributed self-join (edge ⋈ vertex) followed by an aggregate, and —
per the optimizations of Jindal et al. — the new vertex states land in
a *fresh table* that replaces the old one (sequential instead of random
I/O), with traversal workloads keeping a small "active vertices"
temporary table instead.

Why it loses on big clusters (§5.11): every iteration creates and
deletes distributed temporary tables, and the self-join shuffles rows
across all machines; both costs grow with the cluster. Its memory
footprint stays small (the engine streams from disk), but I/O wait and
network volume dominate — Figure 13's profile.
"""

from __future__ import annotations

from types import MappingProxyType

from ..cluster import GB, Cluster
from ..workloads.base import WorkloadKind
from .base import Engine, RunResult
from .bsp import BspExecutionMixin

__all__ = ["VerticaEngine"]


class VerticaEngine(BspExecutionMixin, Engine):
    """Vertica (``V``)."""

    key = "V"
    display_name = "Vertica"
    language = "SQL"
    input_format = "edge"
    trace_model = "relational"    # join + aggregate + temp-table swap
    #: model contract: table scans hit local storage and joins shuffle
    #: segment traffic — a relational engine never touches HDFS
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle",
        "local_disk_io", "sample_memory",
    })
    uses_all_machines = True    # shared-nothing database on every node
    fault_tolerance = "none"
    features = MappingProxyType({
        "memory_disk": "Disk",
        "paradigm": "Relational",
        "declarative": "yes (SQL)",
        "partitioning": "Random",
        "synchronization": "Synchronous",
        "fault_tolerance": "N/A",
    })

    edge_row_bytes = 16.0        # (src, dst) columns, compressed on disk
    vertex_row_bytes = 16.0
    working_memory_bytes = 1.0 * GB   # execution memory per node
    table_create_overhead = 1.5       # distributed DDL, seconds
    table_drop_overhead = 0.5
    join_row_cost = 4.0e-7            # per joined row, per core
    per_machine_connection_cost = 0.05

    def _load(self, dataset, workload, cluster, result):
        """COPY the edge list into the distributed edge table."""
        raw_rows = dataset.profile.num_edges * self.edge_row_bytes
        cluster.local_disk_io(raw_rows, write=True)
        cluster.shuffle(raw_rows)    # segmentation across nodes
        cluster.memory.allocate_even(
            cluster.num_workers * self.working_memory_bytes, "exec-memory",
            skew=0.0,
        )
        cluster.sample_memory()

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """One iteration = join + aggregate + temp-table swap."""
        messages = dataset.scaled_edges(stats.messages)
        machines = cluster.num_workers

        if workload.kind is WorkloadKind.TRAVERSAL:
            # Active-vertex temp table: the join probes only the frontier,
            # but the edge table is still scanned from disk.
            joined_rows = messages
            new_table_rows = dataset.scaled_vertices(stats.updates)
        else:
            joined_rows = messages
            new_table_rows = dataset.profile.num_vertices

        sf, sm = self.scale_fixed, self.scale_messages
        # Edge-table scan is disk-bound: the I/O-wait signature of Fig 13a.
        scan_bytes = dataset.profile.num_edges * self.edge_row_bytes * sf
        scan_time = scan_bytes / (
            machines * cluster.spec.machine.cores
            * cluster.spec.machine.disk_read_bps
        )
        cluster.uniform_compute(
            joined_rows * self.join_row_cost * sm,
            system_fraction=0.1,
            iowait_seconds=scan_time,
        )
        # the scan's seconds are charged above as iowait; its bytes get
        # their own span so trace exports see the disk-bound signature
        with cluster.tracer.span("table-scan", cat="cluster", bytes=scan_bytes):
            cluster.tracker.record_disk(read=scan_bytes)

        # The distributed self-join reshuffles the joined rows; larger
        # clusters shuffle a larger share and pay more connections.
        cluster.shuffle(joined_rows * self.edge_row_bytes * sm, skew=0.05,
                        local_fraction=1.0 / machines)
        cluster.advance(self.per_machine_connection_cost * machines * sf)

        # New-table swap: create, fill (sequential write), drop the old.
        cluster.advance(self.table_create_overhead * sf)
        cluster.local_disk_io(new_table_rows * self.vertex_row_bytes * sm,
                              write=True)
        cluster.advance(self.table_drop_overhead * sf)

    def _save(self, dataset, workload, cluster, result, state):
        """Results stay in a table; export is a parallel scan + write."""
        nbytes = workload.result_bytes_from_state(dataset.graph, state)
        cluster.local_disk_io(nbytes * dataset.vertex_scale, write=True)
