"""Tests for the cluster simulator: specs, memory, network, HDFS, tracker."""

import math

import pytest

from repro.cluster import (
    CLUSTER_SIZES,
    COST_MACHINE,
    GB,
    MB,
    Cluster,
    ClusterSpec,
    FailureKind,
    HdfsModel,
    MemoryAccountant,
    NetworkModel,
    R3_XLARGE,
    ResourceTracker,
    SimClock,
    SimulatedOOM,
    SimulatedTimeout,
)
from repro.obs import SpanError, Tracer


class TestSpecs:
    def test_r3_xlarge_matches_paper(self):
        assert R3_XLARGE.cores == 4
        assert R3_XLARGE.memory_gb == pytest.approx(30.5)

    def test_cost_machine(self):
        assert COST_MACHINE.memory_bytes == 512 * GB
        assert COST_MACHINE.cores == 1

    def test_cluster_sizes(self):
        assert CLUSTER_SIZES == (16, 32, 64, 128)

    def test_workers_exclude_master(self):
        assert ClusterSpec(16).num_workers == 15

    def test_totals(self):
        spec = ClusterSpec(16)
        assert spec.total_cores == 60
        assert spec.total_memory_bytes == 15 * R3_XLARGE.memory_bytes

    def test_timeout_default_24h(self):
        assert ClusterSpec(16).timeout_seconds == 24 * 3600

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(1)

    def test_repr(self):
        assert "16x" in repr(ClusterSpec(16))


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(2.5)
        clock.advance(1.0)
        assert clock.now == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestMemoryAccountant:
    def make(self, machines=4):
        return MemoryAccountant(machines, R3_XLARGE)

    def test_allocate_and_free(self):
        mem = self.make()
        mem.allocate(0, 10 * GB, "graph")
        assert mem.used_bytes(0) == 10 * GB
        mem.free(0, 10 * GB, "graph")
        assert mem.used_bytes(0) == 0

    def test_oom_over_capacity(self):
        mem = self.make()
        with pytest.raises(SimulatedOOM) as exc:
            mem.allocate(1, 31 * GB, "graph")
        assert exc.value.machine == 1
        assert exc.value.kind is FailureKind.OOM

    def test_peak_tracks_maximum(self):
        mem = self.make()
        mem.allocate(0, 10 * GB, "a")
        mem.free(0, 10 * GB, "a")
        mem.allocate(0, 4 * GB, "b")
        assert mem.peak_bytes(0) == 10 * GB

    def test_total_peak_sums_machines(self):
        mem = self.make(2)
        mem.allocate(0, 1 * GB, "x")
        mem.allocate(1, 2 * GB, "x")
        assert mem.total_peak_bytes() == 3 * GB

    def test_allocate_even_skew(self):
        mem = self.make(4)
        mem.allocate_even(8 * GB, "x", skew=0.5)
        assert mem.used_bytes(0) == pytest.approx(3 * GB)
        assert sum(mem.used_bytes(i) for i in range(4)) == pytest.approx(8 * GB)

    def test_allocate_even_oom_on_heavy_machine(self):
        mem = self.make(4)
        with pytest.raises(SimulatedOOM):
            mem.allocate_even(110 * GB, "x", skew=0.2)

    def test_free_label(self):
        mem = self.make(2)
        mem.allocate_even(4 * GB, "msgs")
        mem.free_label("msgs")
        assert mem.used_bytes(0) == 0
        assert mem.used_bytes(1) == 0

    def test_free_never_negative(self):
        mem = self.make()
        mem.allocate(0, GB, "x")
        mem.free(0, 5 * GB, "x")
        assert mem.used_bytes(0) == 0

    def test_free_rejects_a_negative_size(self):
        mem = self.make()
        mem.allocate(0, GB, "x")
        with pytest.raises(ValueError):
            mem.free(0, -GB, "x")
        # nothing grew past the check: not the label, the machine or its peak
        assert mem.label_bytes(0, "x") == GB
        assert mem.used_bytes(0) == GB and mem.peak_bytes(0) == GB

    def test_label_bytes(self):
        mem = self.make()
        mem.allocate(0, GB, "graph")
        mem.allocate(0, GB, "graph")
        assert mem.label_bytes(0, "graph") == 2 * GB

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            self.make().allocate(0, -5, "x")


class TestNetworkModel:
    def make(self, machines=16):
        return NetworkModel(machines, R3_XLARGE)

    def test_shuffle_bottleneck(self):
        net = self.make(16)
        t = net.shuffle_time(16 * 300 * MB, local_fraction=0.0)
        assert t == pytest.approx(net.base_latency + 1.0)

    def test_shuffle_skew_slows(self):
        net = self.make()
        assert net.shuffle_time(GB, skew=1.0) > net.shuffle_time(GB, skew=0.0)

    def test_shuffle_counts_wire_bytes(self):
        net = self.make(4)
        net.shuffle_time(100.0, local_fraction=0.25)
        assert net.total_bytes == pytest.approx(75.0)

    def test_single_machine_shuffle_free(self):
        net = self.make(1)
        assert net.shuffle_time(GB) == 0.0

    def test_gather_master_bottleneck(self):
        net = self.make(16)
        t = net.gather_time(300 * MB)
        assert t == pytest.approx(net.base_latency + 15.0)

    def test_broadcast_log_rounds(self):
        net = self.make(16)
        t = net.broadcast_time(300 * MB)
        assert t == pytest.approx(4 * (net.base_latency + 1.0))

    def test_barrier_latency_only(self):
        net = self.make(16)
        assert net.barrier_time() == pytest.approx(4 * net.base_latency)

    def test_barrier_grows_with_machines(self):
        assert self.make(128).barrier_time() > self.make(4).barrier_time()


class TestHdfsModel:
    def make(self, machines=15):
        return HdfsModel(machines, R3_XLARGE)

    def test_num_blocks(self):
        hdfs = self.make()
        assert hdfs.num_blocks(64 * MB) == 1
        assert hdfs.num_blocks(65 * MB) == 2
        assert hdfs.num_blocks(0) == 1

    def test_read_counts_bytes(self):
        hdfs = self.make()
        hdfs.read_time(GB, reader_threads=8)
        assert hdfs.bytes_read == GB

    def test_write_pays_replication(self):
        hdfs = self.make()
        hdfs.write_time(GB, writer_threads=8)
        assert hdfs.bytes_written == 3 * GB

    def test_more_threads_faster(self):
        hdfs = self.make()
        slow = hdfs.read_time(GB, reader_threads=1)
        fast = hdfs.read_time(GB, reader_threads=32)
        assert fast < slow

    def test_thread_cap_at_cluster_cores(self):
        hdfs = self.make(2)
        capped = hdfs.read_time(GB, reader_threads=10_000)
        assert capped == pytest.approx(hdfs.read_time(GB, reader_threads=8))

    def test_zero_bytes_free(self):
        hdfs = self.make()
        assert hdfs.read_time(0, 4) == 0.0
        assert hdfs.write_time(0, 4) == 0.0


def tracker(machines):
    """A standalone tracker charged the way the Cluster primitives charge
    it: inside an open cluster span."""
    tracer = Tracer()
    tracer.start("op", cat="cluster")
    return ResourceTracker(machines, tracer)


class TestResourceTracker:
    def test_memory_series_per_machine(self):
        t = tracker(2)
        t.record_memory(0.0, [100, 50])
        t.record_memory(1.0, [200.7, 40])
        assert t.memory_series(0) == [(0.0, 100), (1.0, 200)]
        assert t.memory_series(1) == [(0.0, 50), (1.0, 40)]
        assert t.memory_series(2) == []
        assert t.peak_memory_bytes() == 200

    def test_series_and_peaks_are_python_ints(self):
        t = tracker(2)
        t.record_memory(0.0, (1.5e9, 2.5))
        t.record_memory(1.0, [3.0, 4.9])
        values = [b for m in range(2) for _, b in t.memory_series(m)]
        values += [t.peak_memory_bytes(), t.total_memory_bytes()]
        assert values == [1500000000, 3, 2, 4, 1500000000, 1500000004]
        assert {type(v) for v in values} == {int}
        assert type(tracker(1).peak_memory_bytes()) is int

    def test_total_memory_sums_peaks(self):
        t = tracker(2)
        t.record_memory(0.0, [100, 40])
        t.record_memory(1.0, [80, 0])
        assert t.total_memory_bytes() == 140

    def test_cpu_totals(self):
        t = tracker(1)
        # 3 s busy, a quarter of it system time, 0.5 s iowait, 4 s step
        t.record_cpu([3.0], 4.0, system_fraction=0.25, iowait=0.5)
        assert t.cpu_totals() == {"user": 2.25, "system": 0.75,
                                  "iowait": 0.5, "idle": 0.5}

    def test_cpu_phase_sums_machines_and_clamps_idle(self):
        t = tracker(3)
        t.record_cpu([1.0, 2.0, 3.0], 2.5)
        totals = t.cpu_totals()
        assert totals["user"] == 6.0
        assert totals["idle"] == 1.5 + 0.5 + 0.0   # never negative

    def test_max_cpu_utilization(self):
        t = tracker(1)
        t.record_cpu([3.0], 4.0, iowait=1.0)
        util = t.max_cpu_utilization()
        assert util["user"] == pytest.approx(0.75)
        assert util["iowait"] == pytest.approx(0.25)

    def test_network_totals(self):
        t = tracker(1)
        t.record_network(sent=10, received=5)
        assert t.network_total_bytes() == 15

    def test_work_records_need_a_cluster_span(self):
        tracer = Tracer()
        t = ResourceTracker(1, tracer)
        charges = (
            ("record_disk", lambda: t.record_disk(read=1.0)),
            ("record_network", lambda: t.record_network(sent=1, received=1)),
            ("record_memory_integral", lambda: t.record_memory_integral(1.0)),
        )
        # no span open, then an open span of another category: the
        # journal would show no cluster operation holding the bytes
        for cat in (None, "phase"):
            if cat is not None:
                tracer.start("execute", cat=cat)
            for name, charge in charges:
                with pytest.raises(SpanError, match=name):
                    charge()
        assert (t.disk_bytes_read, t.network_total_bytes(),
                t.memory_byte_seconds()) == (0.0, 0.0, 0.0)
        with tracer.span("table-scan", cat="cluster"):
            for _, charge in charges:
                charge()
        assert (t.disk_bytes_read, t.network_total_bytes(),
                t.memory_byte_seconds()) == (1.0, 2.0, 1.0)
        # CPU phases and memory snapshots are gauges, charged anywhere
        t.record_cpu([1.0], 1.0)
        t.record_memory(0.0, [1.0])

    def test_counters_are_read_only(self):
        # the counters move only through record_*: a direct write from
        # outside, the bypass the accounting would not see, raises
        t = tracker(4)
        t.record_network(sent=10, received=5)
        t.record_disk(read=3, written=2)
        t.record_rescale(6)
        assert (t.network_bytes_sent, t.network_bytes_received,
                t.disk_bytes_read, t.disk_bytes_written,
                t.num_machines) == (10, 5, 3, 2, 6)
        for counter in ("network_bytes_sent", "network_bytes_received",
                        "disk_bytes_read", "disk_bytes_written",
                        "num_machines"):
            with pytest.raises(AttributeError):
                setattr(t, counter, 0)
        cluster = Cluster(ClusterSpec(4))
        with pytest.raises(AttributeError):
            cluster.now = 0.0
        with pytest.raises(AttributeError):
            cluster.clock.now = 0.0

    def test_empty_tracker(self):
        t = tracker(1)
        assert t.peak_memory_bytes() == 0
        assert t.max_cpu_utilization() == {"user": 0.0, "iowait": 0.0}


class TestCluster:
    def test_default_workers(self):
        assert Cluster(ClusterSpec(16)).num_workers == 15

    def test_mpi_workers_override(self):
        assert Cluster(ClusterSpec(16), num_workers=16).num_workers == 16

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            Cluster(ClusterSpec(16), num_workers=17)

    def test_timeout_enforced(self):
        cluster = Cluster(ClusterSpec(16, timeout_seconds=10.0))
        with pytest.raises(SimulatedTimeout):
            cluster.advance(11.0)

    def test_parallel_compute_slowest_machine(self):
        cluster = Cluster(ClusterSpec(4))
        dt = cluster.parallel_compute([1.0, 3.0, 2.0])
        assert dt == 3.0
        assert cluster.now == 3.0

    def test_uniform_compute_divides_by_cores(self):
        cluster = Cluster(ClusterSpec(16))
        cluster.uniform_compute(60.0)   # 60 core-seconds over 60 cores
        assert cluster.now == pytest.approx(1.0)

    def test_uniform_compute_core_limit(self):
        c_all = Cluster(ClusterSpec(16))
        c_half = Cluster(ClusterSpec(16))
        c_all.uniform_compute(60.0)
        c_half.uniform_compute(60.0, cores_per_machine=2)
        assert c_half.now == pytest.approx(2 * c_all.now)

    def test_shuffle_advances_and_records(self):
        cluster = Cluster(ClusterSpec(16))
        cluster.shuffle(GB)
        assert cluster.now > 0
        assert cluster.tracker.network_total_bytes() > 0

    def test_hdfs_read_records_disk(self):
        cluster = Cluster(ClusterSpec(16))
        cluster.hdfs_read(GB)
        assert cluster.tracker.disk_bytes_read == GB

    def test_local_disk_write(self):
        cluster = Cluster(ClusterSpec(16))
        cluster.local_disk_io(GB, write=True)
        assert cluster.tracker.disk_bytes_written == GB

    def test_sample_memory(self):
        cluster = Cluster(ClusterSpec(4))
        cluster.memory.allocate(0, GB, "x")
        cluster.sample_memory()
        assert cluster.tracker.peak_memory_bytes() == GB

    def test_compute_skew_slows_step(self):
        fast = Cluster(ClusterSpec(16))
        slow = Cluster(ClusterSpec(16))
        fast.uniform_compute(60.0, skew=0.0)
        slow.uniform_compute(60.0, skew=0.5)
        assert slow.now == pytest.approx(1.5 * fast.now)
