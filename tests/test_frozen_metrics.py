"""Partition metrics computed once, tracker totals kept as running sums.

A frozen partition caches every metric that scans its edges; the
resource tracker folds each sample into running aggregates. Both must
give exactly what the direct formulations give: the sort-and-unique
replica count and a scan over every recorded CPU sample are kept here
as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ResourceTracker
from repro.graph import Graph
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


# -- tracker running totals are bit-equal to a sample scan -------------------

seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)
sample = st.one_of(
    st.just((0.0, 0.0, 0.0, 0.0)),
    st.tuples(seconds, seconds, seconds, seconds),
)


def scanned(samples):
    """cpu_totals / max_cpu_utilization as a scan over every sample."""
    totals = {"user": 0.0, "system": 0.0, "iowait": 0.0, "idle": 0.0}
    best_user = best_iowait = 0.0
    for user, system, iowait, idle in samples:
        totals["user"] += user
        totals["system"] += system
        totals["iowait"] += iowait
        totals["idle"] += idle
        denom = user + system + iowait + idle
        if denom <= 0:
            continue
        best_user = max(best_user, user / denom)
        best_iowait = max(best_iowait, iowait / denom)
    return totals, {"user": best_user, "iowait": best_iowait}


@given(st.lists(sample, max_size=60))
@settings(max_examples=200, deadline=None)
def test_tracker_totals_equal_a_sample_scan_bit_for_bit(samples):
    tracker = ResourceTracker(4)
    for step, (user, system, iowait, idle) in enumerate(samples):
        tracker.record_cpu(float(step), step % 4, user=user, system=system,
                           iowait=iowait, idle=idle)
    totals, peaks = scanned(samples)
    assert tracker.cpu_totals() == totals
    assert tracker.max_cpu_utilization() == peaks
