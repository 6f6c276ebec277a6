"""Tests for edge-cut, vertex-cut, and Voronoi partitioning."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.registry import dataset_names
from repro.engines.common import cached_block_partition
from repro.graph import from_edges
from repro.partitioning import (
    auto_method_for,
    auto_partition,
    grid_dimensions,
    grid_partition,
    oblivious_partition,
    pds_partition,
    pds_prime_for,
    perfect_difference_set,
    random_edge_partition,
    random_vertex_partition,
    voronoi_partition,
)


class TestRandomVertexPartition:
    def test_every_vertex_assigned(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 8)
        assert (p.part_of >= 0).all() and (p.part_of < 8).all()

    def test_deterministic(self, small_twitter):
        a = random_vertex_partition(small_twitter.graph, 8)
        b = random_vertex_partition(small_twitter.graph, 8)
        assert np.array_equal(a.part_of, b.part_of)

    def test_vertex_counts_sum(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 8)
        assert p.vertex_counts().sum() == small_twitter.graph.num_vertices

    def test_edge_counts_sum(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 8)
        assert p.edge_counts().sum() == small_twitter.graph.num_edges

    def test_cut_fraction_bounds(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 8)
        assert 0.0 <= p.cut_fraction() <= 1.0

    def test_cut_grows_with_parts(self, small_twitter):
        cut4 = random_vertex_partition(small_twitter.graph, 4).cut_fraction()
        cut64 = random_vertex_partition(small_twitter.graph, 64).cut_fraction()
        assert cut64 > cut4

    def test_single_part_no_cut(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 1)
        assert p.cut_fraction() == 0.0

    def test_balance_reasonable(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 8)
        assert p.balance_skew() < 1.0

    def test_vertices_of(self, small_twitter):
        p = random_vertex_partition(small_twitter.graph, 4)
        all_vertices = np.concatenate([p.vertices_of(i) for i in range(4)])
        assert len(all_vertices) == small_twitter.graph.num_vertices

    def test_invalid_parts(self, small_twitter):
        with pytest.raises(ValueError):
            random_vertex_partition(small_twitter.graph, 0)


class TestVertexCutCommon:
    @pytest.mark.parametrize("maker", [
        lambda g, m: random_edge_partition(g, m),
        lambda g, m: grid_partition(g, m),
        lambda g, m: oblivious_partition(g, m),
    ])
    def test_every_edge_assigned(self, small_twitter, maker):
        p = maker(small_twitter.graph, 16)
        assert p.edge_counts().sum() == small_twitter.graph.num_edges
        assert (p.part_of_edge >= 0).all() and (p.part_of_edge < 16).all()

    def test_replication_at_least_one(self, small_twitter):
        p = random_edge_partition(small_twitter.graph, 16)
        counts = p.replica_counts()
        # every vertex that appears on any edge has >= 1 replica
        deg = small_twitter.graph.out_degrees() + small_twitter.graph.in_degrees()
        assert (counts[deg > 0] >= 1).all()

    def test_replication_bounded_by_parts(self, small_twitter):
        p = random_edge_partition(small_twitter.graph, 8)
        assert p.replica_counts().max() <= 8

    def test_vertex_master_in_range(self, small_twitter):
        p = random_edge_partition(small_twitter.graph, 8)
        masters = p.vertex_master()
        assert (masters >= 0).all() and (masters < 8).all()


class TestGrid:
    def test_dimensions_square(self):
        assert grid_dimensions(16) == (4, 4)
        assert grid_dimensions(64) == (8, 8)

    def test_dimensions_nearly_square(self):
        assert grid_dimensions(12) == (3, 4)

    def test_dimensions_none_when_oblong(self):
        assert grid_dimensions(32) is None
        assert grid_dimensions(128) is None

    def test_grid_rejects_bad_count(self, small_twitter):
        with pytest.raises(ValueError):
            grid_partition(small_twitter.graph, 32)

    def test_grid_replication_bound(self, small_twitter):
        # replicas confined to a row+column cross: at most 2*sqrt(M)
        p = grid_partition(small_twitter.graph, 16)
        assert p.replica_counts().max() <= 2 * 4

    def test_grid_beats_random_replication(self, small_twitter):
        rand = random_edge_partition(small_twitter.graph, 16)
        grid = grid_partition(small_twitter.graph, 16)
        assert grid.replication_factor() < rand.replication_factor()


class TestPds:
    def test_prime_detection(self):
        assert pds_prime_for(7) == 2
        assert pds_prime_for(13) == 3
        assert pds_prime_for(21) is None   # p=4 is not prime
        assert pds_prime_for(31) == 5
        assert pds_prime_for(16) is None

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_perfect_difference_property(self, p):
        modulus = p * p + p + 1
        pds = perfect_difference_set(p)
        assert len(pds) == p + 1
        diffs = sorted(
            (a - b) % modulus for a in pds for b in pds if a != b
        )
        # every non-zero residue appears exactly once
        assert diffs == list(range(1, modulus))

    def test_pds_partition_replication_bound(self, small_twitter):
        p = pds_partition(small_twitter.graph, 13)
        assert p.replica_counts().max() <= 2 * 4   # ~ p+1 = 4 plus slack

    def test_pds_rejects_bad_count(self, small_twitter):
        with pytest.raises(ValueError):
            pds_partition(small_twitter.graph, 16)


class TestOblivious:
    def test_balance_guard(self, small_twitter):
        p = oblivious_partition(small_twitter.graph, 16)
        assert p.balance_skew() <= 0.25

    def test_exploits_locality(self, small_uk, small_twitter):
        # host-local web graph partitions with lower replication than the
        # social graph at the same machine count (Table 4's pattern)
        uk = oblivious_partition(small_uk.graph, 32).replication_factor()
        tw = oblivious_partition(small_twitter.graph, 32).replication_factor()
        assert uk < tw

    def test_beats_random(self, small_uk):
        rand = random_edge_partition(small_uk.graph, 32).replication_factor()
        obl = oblivious_partition(small_uk.graph, 32).replication_factor()
        assert obl < rand

    @pytest.mark.parametrize("size", ["tiny", "small"])
    @pytest.mark.parametrize("name", ["twitter", "uk0705", "wrn"])
    def test_matches_the_numpy_loads_placement(self, name, size):
        graph = load_dataset(name, size).graph
        for m in (32, 128):
            np.testing.assert_array_equal(
                oblivious_partition(graph, m).part_of_edge,
                numpy_loads_oblivious_part(graph, m))


def numpy_loads_oblivious_part(graph, num_parts, imbalance_limit=1.15):
    """The reference: the greedy placement with numpy-array loads."""
    replicas = [set() for _ in range(graph.num_vertices)]
    loads = np.zeros(num_parts, dtype=np.int64)
    part = np.empty(graph.num_edges, dtype=np.int64)
    edges = zip(graph.edge_sources().tolist(), graph.edge_targets().tolist())
    for e, (u, v) in enumerate(edges):
        su, sv = replicas[u], replicas[v]
        both = su & sv
        if both:
            candidates = both
        elif su and not sv:
            candidates = su
        elif sv and not su:
            candidates = sv
        elif su or sv:
            candidates = su | sv
        else:
            candidates = None
        if candidates is None:
            choice = int(loads.argmin())
        else:
            choice = min(candidates, key=lambda m: (loads[m], m))
            capacity = imbalance_limit * (e + 1) / num_parts
            if loads[choice] + 1 > capacity:
                choice = int(loads.argmin())
        part[e] = choice
        loads[choice] += 1
        su.add(choice)
        sv.add(choice)
    return part


class TestAuto:
    def test_method_selection_matches_paper(self):
        # §5.4: Grid at 16 and 64, Oblivious at 32 and 128
        assert auto_method_for(16) == "grid"
        assert auto_method_for(32) == "oblivious"
        assert auto_method_for(64) == "grid"
        assert auto_method_for(128) == "oblivious"

    def test_pds_priority(self):
        assert auto_method_for(13) == "pds"
        assert auto_method_for(31) == "pds"

    def test_auto_partition_runs(self, small_twitter):
        p = auto_partition(small_twitter.graph, 16)
        assert p.method == "grid"
        p = auto_partition(small_twitter.graph, 32)
        assert p.method == "oblivious"

    @pytest.mark.parametrize("m", [16, 32, 64, 128])
    def test_auto_never_worse_than_random(self, small_uk, m):
        auto = auto_partition(small_uk.graph, m).replication_factor()
        rand = random_edge_partition(small_uk.graph, m).replication_factor()
        assert auto < rand


class TestVoronoi:
    def test_every_vertex_in_block(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        assert (bp.block_of >= 0).all()

    def test_blocks_fewer_than_vertices(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        assert 0 < bp.num_blocks < small_wrn.graph.num_vertices

    def test_machine_assignment_complete(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        machines = bp.machine_of_vertex()
        assert (machines >= 0).all() and (machines < 16).all()

    def test_block_sizes_sum(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        assert bp.block_sizes().sum() == small_wrn.graph.num_vertices

    def test_machine_loads_sum(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        assert bp.machine_loads().sum() == small_wrn.graph.num_vertices

    def test_road_network_cut_is_small(self, small_wrn):
        # spatial blocks keep most road edges internal
        bp = voronoi_partition(small_wrn.graph, 16)
        assert bp.block_cut_fraction() < 0.25

    def test_machine_cut_below_block_cut(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        assert bp.cut_fraction() <= bp.block_cut_fraction() + 1e-9

    def test_block_graph_edges(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        pairs, weights = bp.block_graph_edges()
        assert len(pairs) == len(weights)
        assert (weights > 0).all()
        # block-graph endpoints are valid block ids
        assert pairs.max() < bp.num_blocks

    @pytest.mark.parametrize("size", ["tiny", "small"])
    @pytest.mark.parametrize("name", dataset_names())
    def test_block_graph_edges_match_row_unique(self, name, size):
        # the 1-D pair-code kernel against np.unique(axis=0) on the pairs
        bp = cached_block_partition(name, size, 16)
        src_b = bp.block_of[bp.graph.edge_sources()]
        dst_b = bp.block_of[bp.graph.edge_targets()]
        cross = src_b != dst_b
        want_pairs, want_counts = np.unique(
            np.column_stack([src_b[cross], dst_b[cross]]),
            axis=0, return_counts=True,
        )
        pairs, counts = bp.block_graph_edges()
        assert pairs.dtype == want_pairs.dtype
        assert counts.dtype == want_counts.dtype
        assert np.array_equal(pairs, want_pairs)
        assert np.array_equal(counts, want_counts)

    def test_aggregate_items(self, small_wrn):
        bp = voronoi_partition(small_wrn.graph, 16)
        assert bp.aggregate_items_per_round == small_wrn.graph.num_vertices

    def test_deterministic(self, small_wrn):
        a = voronoi_partition(small_wrn.graph, 16)
        b = voronoi_partition(small_wrn.graph, 16)
        assert np.array_equal(a.block_of, b.block_of)

    def test_invalid_parts(self, small_wrn):
        with pytest.raises(ValueError):
            voronoi_partition(small_wrn.graph, 0)
