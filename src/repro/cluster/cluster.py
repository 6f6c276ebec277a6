"""The simulated cluster: the runtime every engine executes against.

A :class:`Cluster` bundles the clock, memory accountant, network
fabric, HDFS, and resource tracker for one experiment run, and exposes
the operations engines express their phases with: parallel compute
steps, shuffles, barriers, HDFS reads/writes, and memory (de)allocation.
Simulated time only moves through these calls, and the 24-hour budget
is enforced on every advance.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..chaos.runtime import ChaosRuntime
from ..obs import MetricsRegistry, RunObservation, Tracer
from .failures import SimulatedTimeout
from .hdfs import HdfsModel
from .memory import MemoryAccountant
from .network import NetworkModel
from .specs import ClusterSpec
from .tracker import ResourceTracker, SimClock

__all__ = ["Cluster"]


class Cluster:
    """One experiment's worth of simulated cluster state.

    ``num_workers`` defaults to ``spec.num_workers`` (all machines but
    the master). MPI-based engines (GraphLab, Blogel) run ranks on every
    machine including the master and pass ``spec.num_machines``.

    ``obs`` threads a :class:`~repro.obs.RunObservation` through the
    fabric: every shuffle, compute step, barrier, and I/O call records a
    simulated-clock span and its byte counters, so run journals show the
    cluster-level story under each engine's supersteps. A fresh bundle
    is created when the caller does not pass one.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        num_workers: Optional[int] = None,
        obs: Optional[RunObservation] = None,
    ) -> None:
        self.spec = spec
        self.num_workers = num_workers if num_workers is not None else spec.num_workers
        if not 1 <= self.num_workers <= spec.num_machines:
            raise ValueError(
                f"num_workers must be in [1, {spec.num_machines}], got {self.num_workers}"
            )
        self.clock = SimClock()
        self.obs = obs if obs is not None else RunObservation()
        self.obs.tracer.bind(self.clock.read)
        self.memory = MemoryAccountant(self.num_workers, spec.machine)
        self.network = NetworkModel(self.num_workers, spec.machine)
        self.hdfs = HdfsModel(self.num_workers, spec.machine)
        self.tracker = ResourceTracker(self.num_workers, self.obs.tracer)
        # A fresh per-run cursor over the (immutable) chaos plan: reusing
        # one spec across grid cells re-arms every scheduled fault.
        self.chaos: Optional[ChaosRuntime] = (
            ChaosRuntime(spec.fault_plan, self.num_workers)
            if spec.fault_plan is not None
            else None
        )

    def rescale(self, num_workers: int) -> None:
        """Grow or shrink the worker pool mid-run (elasticity events).

        The memory accountant redistributes live allocations (a scale-in
        past capacity OOMs — a legitimate outcome); the network and HDFS
        fabrics are rebuilt for the new machine count with their byte
        counters and the chaos degradation factor carried over; the
        tracker keeps accumulating into the same aggregates. A scale-out
        may exceed ``spec.num_machines`` — the spec describes the
        *provisioned* cluster, elasticity is what changes it.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_workers == self.num_workers:
            return
        self.num_workers = num_workers
        self.memory.rescale(num_workers)
        network = NetworkModel(num_workers, self.spec.machine)
        network.total_bytes = self.network.total_bytes
        network.degradation = self.network.degradation
        self.network = network
        hdfs = HdfsModel(num_workers, self.spec.machine, self.hdfs.block_size)
        hdfs.bytes_read = self.hdfs.bytes_read
        hdfs.bytes_written = self.hdfs.bytes_written
        self.hdfs = hdfs
        self.tracker.record_rescale(num_workers)

    @property
    def tracer(self) -> Tracer:
        """The run's span tracer (bound to this cluster's clock)."""
        return self.obs.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry."""
        return self.obs.metrics

    # -- time -------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Advance the clock, enforcing the 24-hour timeout."""
        self.clock.advance(seconds)
        if self.clock.now > self.spec.timeout_seconds:
            raise SimulatedTimeout(
                f"exceeded {self.spec.timeout_seconds / 3600:.0f}h budget at "
                f"simulated t={self.clock.now / 3600:.1f}h"
            )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    # -- compute ------------------------------------------------------------

    def parallel_compute(
        self,
        work_seconds_per_machine: Sequence[float],
        system_fraction: float = 0.0,
        iowait_seconds: float = 0.0,
    ) -> float:
        """Run one parallel step; the slowest machine sets the pace.

        ``work_seconds_per_machine`` is each worker's busy time for the
        step. ``system_fraction`` attributes part of it to framework
        overhead (JVM, scheduling); ``iowait_seconds`` adds disk-wait
        on every machine (Hadoop's profile, §5.10). Returns the step's
        wall-clock duration.
        """
        if len(work_seconds_per_machine) == 0:
            return 0.0
        if self.chaos is not None:
            work_seconds_per_machine = self.chaos.apply_compute(
                work_seconds_per_machine
            )
        step = max(work_seconds_per_machine) + iowait_seconds
        with self.tracer.span("compute", cat="cluster", seconds=step,
                              iowait_seconds=iowait_seconds):
            self.tracker.record_cpu(work_seconds_per_machine, step,
                                    system_fraction, iowait_seconds)
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * step
            )
            self.advance(step)
        return step

    def uniform_compute(
        self,
        total_work_seconds: float,
        cores_per_machine: Optional[int] = None,
        skew: float = 0.0,
        system_fraction: float = 0.0,
        iowait_seconds: float = 0.0,
    ) -> float:
        """Evenly spread ``total_work_seconds`` of single-core work.

        ``cores_per_machine`` limits how many cores participate
        (GraphLab reserves 2 for communication, §4.4.2); ``skew`` is the
        extra load on the heaviest machine.
        """
        cores = cores_per_machine or self.spec.machine.cores
        workers = self.num_workers
        per_machine = total_work_seconds / (workers * cores)
        loads = [per_machine] * workers
        loads[0] = per_machine * (1.0 + skew)
        return self.parallel_compute(
            loads, system_fraction=system_fraction, iowait_seconds=iowait_seconds
        )

    # -- communication --------------------------------------------------------

    def shuffle(self, total_bytes: float, skew: float = 0.0,
                local_fraction: Optional[float] = None) -> float:
        """All-to-all exchange; advances the clock and logs NIC bytes."""
        t = self.network.shuffle_time(total_bytes, skew=skew,
                                      local_fraction=local_fraction)
        wire = total_bytes * (1.0 - (local_fraction if local_fraction is not None
                                     else 1.0 / max(1, self.num_workers)))
        with self.tracer.span("shuffle", cat="cluster", bytes=total_bytes,
                              wire_bytes=wire):
            self.metrics.counter("bytes_shuffled").inc(total_bytes)
            self.tracker.record_network(sent=wire, received=wire)
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    def gather_to_master(self, nbytes_per_machine: float) -> float:
        """Workers send to the master (Voronoi aggregation, counters)."""
        t = self.network.gather_time(nbytes_per_machine)
        total = nbytes_per_machine * (self.num_workers - 1)
        with self.tracer.span("gather", cat="cluster", bytes=total):
            self.tracker.record_network(sent=total, received=total)
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    def broadcast(self, nbytes: float) -> float:
        """Master sends to all workers."""
        t = self.network.broadcast_time(nbytes)
        total = nbytes * (self.num_workers - 1)
        with self.tracer.span("broadcast", cat="cluster", bytes=total):
            self.tracker.record_network(sent=total, received=total)
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    def barrier(self) -> float:
        """BSP synchronization barrier."""
        t = self.network.barrier_time()
        with self.tracer.span("barrier", cat="cluster"):
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    # -- storage ----------------------------------------------------------------

    def hdfs_read(self, nbytes: float, reader_threads: Optional[int] = None) -> float:
        """Read from HDFS; default parallelism is every worker core."""
        threads = reader_threads if reader_threads is not None else (
            self.num_workers * self.spec.machine.cores
        )
        t = self.hdfs.read_time(nbytes, threads)
        with self.tracer.span("hdfs_read", cat="cluster", bytes=nbytes):
            self.tracker.record_disk(read=nbytes)
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    def hdfs_write(self, nbytes: float, writer_threads: Optional[int] = None) -> float:
        """Replicated write to HDFS."""
        threads = writer_threads if writer_threads is not None else (
            self.num_workers * self.spec.machine.cores
        )
        t = self.hdfs.write_time(nbytes, threads)
        with self.tracer.span("hdfs_write", cat="cluster", bytes=nbytes):
            self.tracker.record_disk(written=nbytes * self.hdfs.replication)
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    def local_disk_io(self, nbytes: float, write: bool = False,
                      threads: Optional[int] = None) -> float:
        """Node-local disk I/O (HaLoop caches, Vertica temp tables)."""
        if nbytes <= 0:
            return 0.0
        machine = self.spec.machine
        bw = machine.disk_write_bps if write else machine.disk_read_bps
        parallel = threads or (self.num_workers * machine.cores)
        t = nbytes / (min(parallel, self.num_workers * machine.cores) * bw)
        name = "disk_write" if write else "disk_read"
        with self.tracer.span(name, cat="cluster", bytes=nbytes):
            self.tracker.record_disk(
                read=0.0 if write else nbytes, written=nbytes if write else 0.0
            )
            self.tracker.record_memory_integral(
                self.memory.total_used_bytes() * t
            )
            self.advance(t)
        return t

    # -- memory ------------------------------------------------------------------

    def sample_memory(self) -> None:
        """Snapshot every machine's resident memory into the tracker."""
        self.tracker.record_memory(self.now, self.memory.used_array())
