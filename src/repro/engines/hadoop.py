"""Hadoop MapReduce and HaLoop (§2.4, §2.5.1, §5.10).

Hadoop executes every superstep as a full MapReduce job: read the graph
*and* the current state from HDFS, shuffle both the messages and the
invariant graph structure, reduce, and write everything back — the
canonical reason MapReduce is wrong for iterative graph workloads. It
never runs out of memory (processing is streaming) but times out on
anything with many iterations. CPU spends much of its time in I/O wait
(§5.10, Figure 13a).

HaLoop keeps the loop structure but caches loop-invariant data on local
disk after the first iteration (no HDFS graph re-read, no graph
re-shuffle), caches the previous reducer output for fixpoint checks,
and co-schedules mappers with their cached shards. The paper measured
*less* than the advertised 2x speedup, and hit a bug where mapper
output is deleted before reducers consume it on 64- and 128-machine
clusters, after a few iterations — the ``SHFL`` cells (the bug spares
K-hop, whose 3 iterations stay under the trigger).
"""

from __future__ import annotations

from types import MappingProxyType

from ..cluster import GB, Cluster, ShuffleError
from ..datasets.registry import Dataset
from .base import Engine, RunResult
from .bsp import BspExecutionMixin
from .common import COSTS

__all__ = ["HadoopEngine", "HaLoopEngine"]


class HadoopEngine(BspExecutionMixin, Engine):
    """Hadoop MapReduce (``HD``): 4 mappers + 2 reducers per machine."""

    key = "HD"
    display_name = "Hadoop"
    language = "Java"
    input_format = "adj"
    uses_all_machines = False
    fault_tolerance = "reexecution"
    trace_model = "mapreduce"     # each superstep is a full MR job
    #: model contract: all communication through shuffle + HDFS
    #: round-trips; no direct message passing
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "sample_memory",
    })
    features = MappingProxyType({
        "memory_disk": "Disk",
        "paradigm": "BSP (MapReduce)",
        "declarative": "no",
        "partitioning": "Random",
        "synchronization": "Synchronous",
        "fault_tolerance": "re-execution",
    })

    streaming_buffer_bytes = 2.0 * GB   # sort buffers etc., per worker
    job_start_overhead = 12.0           # JVM spin-up + scheduling per job
    task_wave_overhead = 1.5            # per wave of map tasks
    mappers_per_machine = 4

    def _state_bytes(self, dataset: Dataset) -> float:
        return dataset.profile.num_vertices * 16.0

    def _graph_bytes(self, dataset: Dataset) -> float:
        return float(dataset.profile.raw_size_bytes)

    def _load(self, dataset, workload, cluster, result):
        """No load phase to speak of: data stays in HDFS."""
        cluster.memory.allocate_even(
            cluster.num_workers * self.streaming_buffer_bytes, "buffers", skew=0.0
        )
        cluster.sample_memory()

    # -- per-iteration job structure ------------------------------------------

    def _iteration_io(self, dataset, cluster, first, scale_fixed=1.0):
        """(input bytes, shuffle bytes, output bytes) for one iteration."""
        graph = self._graph_bytes(dataset) * scale_fixed
        state = self._state_bytes(dataset) * scale_fixed
        return graph + state, graph + state, graph + state

    def charge_superstep(self, dataset, workload, cluster, stats, first):
        """One full MapReduce job: map, shuffle+sort, reduce, write.

        Everything here is per-job fixed cost (the invariant graph is
        re-read, re-shuffled, and re-written every iteration), so it all
        multiplies by ``scale_fixed``; only the message payload scales
        with volume.
        """
        sf = self.scale_fixed
        in_bytes, shuffle_bytes, out_bytes = self._iteration_io(
            dataset, cluster, first, scale_fixed=sf
        )
        messages = dataset.scaled_edges(stats.messages) * self.scale_messages
        shuffle_bytes += messages * COSTS.msg_bytes

        cluster.advance(self.job_start_overhead * sf)
        map_tasks = cluster.hdfs.num_blocks(in_bytes / sf)
        slots = cluster.num_workers * self.mappers_per_machine
        waves = -(-map_tasks // slots)   # ceil
        cluster.advance(waves * self.task_wave_overhead * sf)

        cluster.hdfs_read(in_bytes)
        records = (
            dataset.profile.num_vertices * sf
            + dataset.profile.num_edges * sf
            + messages
        )
        # map + sort + reduce record handling; mappers stream records
        # from disk, so CPUs spend comparable time in I/O wait (§5.10)
        work = records * COSTS.hadoop_record_cost
        per_machine = work / (cluster.num_workers * cluster.spec.machine.cores)
        cluster.uniform_compute(
            work,
            system_fraction=0.25,
            iowait_seconds=per_machine * 0.7,
        )
        cluster.shuffle(shuffle_bytes, skew=0.05, local_fraction=None)
        cluster.uniform_compute(records * COSTS.hadoop_record_cost * 0.5,
                                system_fraction=0.25)
        cluster.hdfs_write(out_bytes)
        self._post_iteration(dataset, cluster, stats)

    def _post_iteration(self, dataset, cluster, stats) -> None:
        """Hook for HaLoop's failure injection and cache maintenance."""

    def _save(self, dataset, workload, cluster, result, state):
        """The last job's output *is* the result; only a rename remains."""
        cluster.advance(1.0)

    def _overhead(self, dataset, cluster, result):
        cluster.advance(10.0 + 0.2 * cluster.spec.num_machines)


class HaLoopEngine(HadoopEngine):
    """HaLoop (``HL``): loop-aware Hadoop with local-disk caching."""

    key = "HL"
    display_name = "HaLoop"
    #: model contract: Hadoop's set plus the loop-aware local-disk
    #: cache that skips the invariant-data HDFS re-read
    model_primitives = frozenset({
        "advance", "uniform_compute", "shuffle",
        "hdfs_read", "hdfs_write", "local_disk_io", "sample_memory",
    })
    features = MappingProxyType(
        dict(HadoopEngine.features, paradigm="BSP-extension (MapReduce)")
    )

    #: the mapper-output deletion bug triggers here (§5.10 footnote 12)
    shuffle_bug_min_machines = 64
    shuffle_bug_iteration = 4

    def _iteration_io(self, dataset, cluster, first, scale_fixed=1.0):
        """After iteration 1 the graph comes from the local cache."""
        graph = self._graph_bytes(dataset)
        state = self._state_bytes(dataset) * scale_fixed
        if first:
            # builds the invariant-data cache on local disks
            cluster.local_disk_io(graph, write=True)
            return graph + state, graph + state, graph + state
        # cached graph: local read, no graph shuffle, state-only output
        cluster.local_disk_io(graph * scale_fixed)
        return state, state, state

    def _post_iteration(self, dataset, cluster, stats) -> None:
        """Reproduce the shuffle bug on large clusters."""
        if (
            cluster.spec.num_machines >= self.shuffle_bug_min_machines
            and stats.iteration >= self.shuffle_bug_iteration
        ):
            raise ShuffleError(
                f"mapper output deleted before reduce at iteration "
                f"{stats.iteration} on {cluster.spec.num_machines} machines",
                # the mapper whose spill directory was reaped
                machine=stats.iteration % cluster.num_workers,
            )
