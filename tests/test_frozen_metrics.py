"""Partition metrics computed once, fleet charges folded once per run.

A frozen partition caches every metric that scans its edges; the
resource tracker and memory accountant charge a whole fleet in one
call, and the tracker folds its CPU phases in one array pass per query.
Both must give exactly what the direct formulations give: the
sort-and-unique replica count and per-machine tracker and accountant
references are kept here as oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    GB,
    Cluster,
    ClusterSpec,
    MemoryAccountant,
    R3_XLARGE,
    ResourceTracker,
    SimulatedOOM,
)
from repro.graph import Graph
from repro.obs import Histogram, fold_rows, fold_sum
from repro.partitioning import (
    random_edge_partition,
    random_vertex_partition,
    voronoi_partition,
)


@st.composite
def graphs(draw, max_vertices=24, max_edges=60):
    """Directed multigraphs, isolated vertices and edgeless ones included."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=max_edges))
    # extra vertices past every endpoint are isolated
    return Graph(n + draw(st.integers(0, 4)), edges)


parts = st.integers(min_value=1, max_value=9)


def sort_unique_replica_counts(partition):
    """The replica count as (vertex, machine) key sort-and-unique."""
    graph = partition.graph
    vertex = np.concatenate([graph.edge_sources(), graph.edge_targets()])
    part = np.concatenate([partition.part_of_edge, partition.part_of_edge])
    unique = np.unique(vertex * partition.num_parts + part)
    return np.bincount(unique // partition.num_parts,
                       minlength=graph.num_vertices).astype(np.int64)


@given(graphs(), parts, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_bitmap_replica_counts_match_sort_and_unique(graph, num_parts, seed):
    partition = random_edge_partition(graph, num_parts, seed=seed)
    counts = partition.replica_counts()
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, sort_unique_replica_counts(partition))


def test_replica_counts_on_an_edgeless_graph():
    partition = random_edge_partition(Graph(5, []), 4)
    np.testing.assert_array_equal(partition.replica_counts(), np.zeros(5))
    assert partition.replication_factor() == 0.0


# -- each O(E) metric runs once per partition --------------------------------

CACHED = {
    "edge": ("edge_counts", "replica_counts"),
    "vertex": ("edge_counts", "cut_edges"),
    "block": ("machine_of_vertex", "cut_fraction", "block_cut_fraction"),
}


def build(kind, graph, num_parts):
    if kind == "edge":
        return random_edge_partition(graph, num_parts, seed=1)
    if kind == "vertex":
        return random_vertex_partition(graph, num_parts, seed=1)
    return voronoi_partition(graph, num_parts, seed=1)


def count_edge_scans(patch):
    """Make every read of a graph's edge arrays append to the result."""
    scans = []
    for name in ("edge_sources", "edge_targets"):
        original = getattr(Graph, name)

        def counted(self, _original=original):
            scans.append(1)
            return _original(self)

        patch.setattr(Graph, name, counted)
    return scans


@pytest.mark.parametrize("kind", sorted(CACHED))
@given(graph=graphs(), num_parts=parts)
@settings(max_examples=25, deadline=None)
def test_cached_metrics_scan_once_and_stay_read_only(kind, graph, num_parts):
    with pytest.MonkeyPatch.context() as patch:
        scans = count_edge_scans(patch)
        partition = build(kind, graph, num_parts)
        for name in CACHED[kind]:
            method = getattr(partition, name)
            first = method()
            scans.clear()
            again = method()
            assert scans == [], name
            assert again is first or again == first, name
            if isinstance(first, np.ndarray):
                assert again is first and not first.flags.writeable, name
                if first.size:
                    with pytest.raises(ValueError):
                        first[0] = first[0]


# -- the tracker folds a whole phase exactly like per-machine records ------


class PerMachineTracker:
    """The reference: one CPU and one memory record per machine.

    This is how the tracker was charged before it took whole phases:
    the cluster looped over machines, deriving each machine's CPU split
    and sampling each machine's memory, and every record was folded
    into the running aggregates on arrival.
    """

    def __init__(self):
        self.totals = {"user": 0.0, "system": 0.0, "iowait": 0.0, "idle": 0.0}
        self.best = {"user": 0.0, "iowait": 0.0}
        self.peaks = {}
        self.series = {}

    def record(self, user, system, iowait, idle):
        self.totals["user"] += user
        self.totals["system"] += system
        self.totals["iowait"] += iowait
        self.totals["idle"] += idle
        denom = user + system + iowait + idle
        if denom > 0:
            self.best["user"] = max(self.best["user"], user / denom)
            self.best["iowait"] = max(self.best["iowait"], iowait / denom)

    def phase(self, loads, step, system_fraction, iowait):
        for busy in loads:
            self.record(user=busy * (1.0 - system_fraction),
                        system=busy * system_fraction,
                        iowait=iowait,
                        idle=max(0.0, step - busy - iowait))

    def sample(self, time, machine, used_bytes):
        if used_bytes > self.peaks.get(machine, 0):
            self.peaks[machine] = used_bytes
        self.series.setdefault(machine, []).append((time, used_bytes))

    def snapshot(self, time, used):
        for machine, used_bytes in enumerate(used):
            self.sample(time, machine, int(used_bytes))


seconds = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)
phase = st.tuples(
    st.one_of(st.just([]), st.lists(st.just(0.0), min_size=1, max_size=4),
              st.lists(seconds, min_size=1, max_size=12)),
    seconds,                    # step: may fall short of busy + iowait
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seconds,
)


@given(st.lists(phase, max_size=30))
@settings(max_examples=300, deadline=None)
def test_tracker_totals_equal_a_sample_scan_bit_for_bit(phases):
    tracker = ResourceTracker(4)
    reference = PerMachineTracker()
    for loads, step, system_fraction, iowait in phases:
        tracker.record_cpu(loads, step, system_fraction, iowait)
        reference.phase(loads, step, system_fraction, iowait)
    assert tracker.cpu_totals() == reference.totals
    assert tracker.max_cpu_utilization() == reference.best


def bits(totals):
    """A dict of floats as text that tells -0.0 from 0.0."""
    return {name: repr(value) for name, value in totals.items()}


@st.composite
def fleet_runs(draw):
    """Phases on fleets of 1-200 machines, with queries and rescales."""
    width = draw(st.integers(1, 200))
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["phase", "phase", "query", "rescale"]))
        if kind == "rescale":
            width = draw(st.integers(1, 200))
            ops.append((kind, width))
        elif kind == "query":
            ops.append((kind,))
        else:
            # a few drawn loads, tiled across the fleet
            base = draw(st.lists(seconds, min_size=1, max_size=8))
            loads = (base * width)[:width]
            ops.append((kind, loads, draw(seconds),
                        draw(st.floats(0.0, 1.0)), draw(seconds)))
    return ops


@given(fleet_runs())
@settings(max_examples=150, deadline=None)
def test_deferred_cpu_fold_matches_per_machine_records(ops):
    tracker = ResourceTracker(4)
    reference = PerMachineTracker()
    for kind, *args in ops:
        if kind == "phase":
            loads, step, system_fraction, iowait = args
            tracker.record_cpu(loads, step, system_fraction, iowait)
            reference.phase(loads, step, system_fraction, iowait)
            # the caller reuses its buffer; the recorded phase must not move
            loads[:] = [busy * 3.0 + 1.0 for busy in reversed(loads)]
        elif kind == "query":
            assert bits(tracker.cpu_totals()) == bits(reference.totals)
            assert bits(tracker.max_cpu_utilization()) == bits(reference.best)
        else:
            tracker.record_rescale(*args)
    assert bits(tracker.cpu_totals()) == bits(reference.totals)
    assert bits(tracker.max_cpu_utilization()) == bits(reference.best)


@pytest.mark.parametrize("step", [-0.0, float("nan"), -1.0])
def test_idle_clamps_like_max_zero(step):
    tracker = ResourceTracker(1)
    tracker.record_cpu([0.0], step)
    idle = tracker.cpu_totals()["idle"]
    assert idle == 0.0 and math.copysign(1.0, idle) == 1.0


snapshot = st.tuples(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1,
             max_size=8),
)


@given(st.lists(snapshot, max_size=20))
@settings(max_examples=200, deadline=None)
def test_memory_rows_match_per_machine_samples(snapshots):
    tracker = ResourceTracker(8)
    reference = PerMachineTracker()
    for time, used in snapshots:
        tracker.record_memory(time, used)
        reference.snapshot(time, used)
    assert tracker.peak_memory_bytes() == max(reference.peaks.values(),
                                              default=0)
    assert tracker.total_memory_bytes() == sum(reference.peaks.values())
    for machine in range(9):
        assert tracker.memory_series(machine) == reference.series.get(
            machine, [])


@given(st.lists(st.tuples(st.floats(0.0, 40.0), st.integers(1, 12)),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cluster_memory_history_survives_rescales(steps):
    """Grow and shrink a fleet, snapshotting after each change."""
    cluster = Cluster(ClusterSpec(4))
    reference = PerMachineTracker()
    for gb, workers in steps:
        try:
            cluster.rescale(workers)
            cluster.memory.allocate_even(gb * GB, "state", skew=0.5)
        except SimulatedOOM:
            pass
        cluster.sample_memory()
        reference.snapshot(cluster.now, [cluster.memory.used_bytes(m)
                                         for m in range(cluster.num_workers)])
        cluster.barrier()
    tracker = cluster.tracker
    assert tracker.peak_memory_bytes() == max(reference.peaks.values(),
                                              default=0)
    assert tracker.total_memory_bytes() == sum(reference.peaks.values())
    for machine in range(13):
        assert tracker.memory_series(machine) == reference.series.get(
            machine, [])


# -- allocate_even charges the fleet in one loop, OOM state included ---------


class PerMachineAccountant:
    """The reference: allocate_even as one allocate call per machine."""

    def __init__(self, num_machines, capacity):
        self.capacity = capacity
        self.used = [0.0] * num_machines
        self.peak = [0.0] * num_machines
        self.by_label = [dict() for _ in range(num_machines)]

    def allocate(self, machine_id, nbytes, label):
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        new_total = self.used[machine_id] + nbytes
        if new_total > self.capacity:
            raise SimulatedOOM(
                f"machine {machine_id} needs {new_total / GB:.1f} GB for "
                f"{label!r} but has {self.capacity / GB:.1f} GB",
                machine=machine_id,
            )
        self.used[machine_id] = new_total
        self.peak[machine_id] = max(self.peak[machine_id], new_total)
        labels = self.by_label[machine_id]
        labels[label] = labels.get(label, 0.0) + nbytes

    def allocate_even(self, nbytes, label, skew=0.0):
        n = len(self.used)
        if n == 1:
            self.allocate(0, nbytes, label)
            return
        even = nbytes / n
        heavy = even * (1.0 + skew)
        rest = (nbytes - heavy) / (n - 1)
        self.allocate(0, heavy, label)
        for m in range(1, n):
            self.allocate(m, rest, label)


def outcome(call):
    """(exception type, message, machine) of a call, or None."""
    try:
        call()
    except (SimulatedOOM, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "machine", None)
    return None


allocation = st.tuples(
    st.floats(min_value=0.0, max_value=300.0),         # GB
    st.sampled_from(["graph", "messages", "cache"]),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
)


@given(st.integers(1, 9), st.lists(allocation, min_size=1, max_size=8),
       st.lists(st.floats(0.0, 40.0), max_size=9))
@settings(max_examples=200, deadline=None)
def test_allocate_even_matches_per_machine_allocation(n, allocations, warm):
    memory = MemoryAccountant(n, R3_XLARGE)
    reference = PerMachineAccountant(n, R3_XLARGE.memory_bytes)
    # uneven starting load, so the OOM can strike past machine 0
    for machine, gb in enumerate(warm[:n]):
        assert outcome(lambda: memory.allocate(machine, gb * GB, "warm")) == \
            outcome(lambda: reference.allocate(machine, gb * GB, "warm"))
    for gb, label, skew in allocations:
        got = outcome(lambda: memory.allocate_even(gb * GB, label, skew=skew))
        want = outcome(
            lambda: reference.allocate_even(gb * GB, label, skew=skew))
        assert got == want
        assert_same_state(memory, reference)
    assert memory.max_peak_bytes() == max(reference.peak)


def assert_same_state(memory, reference):
    """Resident, peak and per-label bytes equal, read through the API."""
    assert memory.used_by_machine() == tuple(reference.used)
    n = len(reference.used)
    assert [memory.peak_bytes(m) for m in range(n)] == reference.peak
    for label in {label for labels in reference.by_label for label in labels}:
        assert [memory.label_bytes(m, label) for m in range(n)] == [
            labels.get(label, 0.0) for labels in reference.by_label]


def test_allocate_even_ooms_past_the_heavy_machine():
    memory = MemoryAccountant(4, R3_XLARGE)
    memory.allocate(2, 25 * GB, "warm")
    with pytest.raises(SimulatedOOM) as exc:
        memory.allocate_even(40 * GB, "graph")
    assert exc.value.machine == 2
    # machines 0 and 1 were charged before machine 2 overflowed
    assert memory.label_bytes(1, "graph") == 10 * GB
    assert memory.label_bytes(3, "graph") == 0.0


# -- float totals fold left to right on every Python version -----------------


def test_fold_sum_is_left_to_right():
    # Python 3.12's compensated sum() gives 1.0 here
    assert fold_sum([1e16, 1.0, -1e16]) == 0.0
    assert fold_sum([]) == 0 and fold_sum([2.5]) == 2.5


def left_fold(values):
    total = values[0]
    for value in values[1:]:
        total += value
    return total


inf, nan = float("inf"), float("nan")


@pytest.mark.parametrize("values", [
    [1e16, 1.0, -1e16],
    # long enough that a pairwise sum (numpy's reduce) keeps the ones
    [1e16] + [1.0] * 64 + [-1e16],
    [-0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0],
    [1.0, nan, 2.0], [inf, 1.0], [inf, -inf], [-inf, 1e308, 1e308],
    [1e308, 1e308, -inf],
])
def test_the_accumulate_fold_is_a_left_fold(values):
    """fold_rows leans on np.add.accumulate being a sequential scan."""
    want = repr(left_fold(values))
    assert repr(float(fold_rows(np.array(values)))) == want
    # as one row of a 2-D scan too, which is how the tracker calls it
    rows = np.array([values, [1.0] * len(values)])
    assert repr(float(fold_rows(rows)[0])) == want
    # and after a 0.0 running total it is fold_sum, which starts at 0
    assert repr(float(fold_rows(np.array([0.0] + values)))) == repr(
        float(fold_sum(values)))


def test_journaled_totals_use_the_fold():
    histogram = Histogram("h")
    for value in (1e16, 1.0, -1e16):
        histogram.observe(value)
    assert histogram.total == 0.0
    memory = MemoryAccountant(3, R3_XLARGE)
    for machine, nbytes in enumerate((1.0, 1e-16, 1e-16)):
        memory.allocate(machine, nbytes, "x")
    assert memory.total_used_bytes() == 1.0
    assert memory.total_peak_bytes() == 1.0


# -- edge sources are built once per graph ------------------------------------


@given(graphs())
@settings(max_examples=50, deadline=None)
def test_edge_sources_cached_and_read_only(graph):
    src = graph.edge_sources()
    assert graph.edge_sources() is src
    assert not src.flags.writeable and src.dtype == np.int64
    np.testing.assert_array_equal(
        src, np.repeat(np.arange(graph.num_vertices), graph.out_degrees()))
    if src.size:
        with pytest.raises(ValueError):
            src[0] = src[0]
