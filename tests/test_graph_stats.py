"""Unit tests for graph statistics (Table 3's characteristics)."""

import numpy as np
import pytest

from repro.graph import (
    bfs_levels,
    compute_stats,
    degree_histogram,
    effective_diameter,
    estimate_diameter,
    from_edges,
    largest_wcc_fraction,
    powerlaw_exponent_estimate,
)


@pytest.fixture
def path_graph():
    return from_edges([(i, i + 1) for i in range(9)], name="path10")


class TestBfsLevels:
    def test_path_levels(self, path_graph):
        levels = bfs_levels(path_graph, 0)
        assert list(levels) == list(range(10))

    def test_directed_only(self, path_graph):
        levels = bfs_levels(path_graph, 9, undirected=False)
        assert levels[9] == 0
        assert (levels[:9] == -1).all()

    def test_undirected_reaches_backwards(self, path_graph):
        levels = bfs_levels(path_graph, 9, undirected=True)
        assert levels[0] == 9

    def test_unreachable_marked(self, two_components):
        levels = bfs_levels(two_components, 0)
        assert levels[3] == -1 and levels[4] == -1


class TestDiameter:
    def test_path_diameter(self, path_graph):
        assert estimate_diameter(path_graph) == 9

    def test_cycle_diameter(self, cycle_graph):
        assert estimate_diameter(cycle_graph) == 2   # undirected 5-cycle

    def test_effective_diameter_bounded_by_true(self, path_graph):
        eff = effective_diameter(path_graph, quantile=0.9)
        assert 0 < eff <= 9

    def test_effective_diameter_quantile_monotone(self, path_graph):
        lo = effective_diameter(path_graph, quantile=0.5)
        hi = effective_diameter(path_graph, quantile=1.0)
        assert lo <= hi

    def test_effective_diameter_invalid_quantile(self, path_graph):
        with pytest.raises(ValueError):
            effective_diameter(path_graph, quantile=0.0)

    def test_empty_graph(self):
        from repro.graph import Graph

        assert effective_diameter(Graph(0, [])) == 0.0
        assert estimate_diameter(Graph(0, [])) == 0


class TestDegreeHistogram:
    def test_counts(self, diamond_graph):
        hist = degree_histogram(diamond_graph)
        assert hist == {0: 1, 1: 2, 2: 1}

    def test_total_vertices(self, small_twitter):
        hist = degree_histogram(small_twitter.graph)
        assert sum(hist.values()) == small_twitter.graph.num_vertices


class TestPowerlaw:
    def test_social_graph_has_powerlaw_tail(self, small_twitter):
        alpha = powerlaw_exponent_estimate(small_twitter.graph, d_min=2)
        assert alpha is not None
        assert 1.2 < alpha < 4.0

    def test_none_for_empty_tail(self):
        g = from_edges([], num_vertices=3)
        assert powerlaw_exponent_estimate(g, d_min=1) is None


class TestWccFraction:
    def test_connected_graph(self, cycle_graph):
        assert largest_wcc_fraction(cycle_graph) == 1.0

    def test_two_components(self, two_components):
        assert largest_wcc_fraction(two_components) == pytest.approx(3 / 5)

    def test_empty(self):
        from repro.graph import Graph

        assert largest_wcc_fraction(Graph(0, [])) == 0.0


class TestComputeStats:
    def test_fields(self, diamond_graph):
        stats = compute_stats(diamond_graph)
        assert stats.num_vertices == 4
        assert stats.num_edges == 4
        assert stats.avg_degree == pytest.approx(1.0)
        assert stats.max_degree == 2

    def test_exact_diameter_mode(self, path_graph):
        stats = compute_stats(path_graph, effective=False)
        assert stats.diameter == 9.0
