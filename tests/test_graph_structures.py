"""Unit tests for repro.graph.structures."""

import numpy as np
import pytest

from repro.graph import EdgeListError, Graph, GraphBuilder, from_edges


class TestGraphConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_vertices_without_edges(self):
        g = Graph(4, [(0, 1)])
        assert g.num_vertices == 4
        assert g.num_edges == 1
        assert g.out_degree(3) == 0

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(2, [(0, 5)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(2, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(-1, [])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_duplicate_edges_kept(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert list(g.out_neighbors(0)) == [1, 1]

    def test_from_edges_infers_vertex_count(self):
        g = from_edges([(0, 4)])
        assert g.num_vertices == 5

    def test_from_edges_empty(self):
        g = from_edges([])
        assert g.num_vertices == 0

    def test_repr_mentions_shape(self, diamond_graph):
        assert "vertices=4" in repr(diamond_graph)
        assert "edges=4" in repr(diamond_graph)


class TestAdjacency:
    def test_out_neighbors_sorted_per_vertex(self):
        g = Graph(4, [(1, 3), (1, 0), (1, 2)])
        assert list(g.out_neighbors(1)) == [0, 2, 3]

    def test_out_degrees_match_neighbors(self, diamond_graph):
        degrees = diamond_graph.out_degrees()
        for v in range(diamond_graph.num_vertices):
            assert degrees[v] == len(diamond_graph.out_neighbors(v))

    def test_in_neighbors(self, diamond_graph):
        assert sorted(diamond_graph.in_neighbors(3).tolist()) == [1, 2]
        assert list(diamond_graph.in_neighbors(0)) == []

    def test_in_degrees_sum_equals_edges(self, diamond_graph):
        assert diamond_graph.in_degrees().sum() == diamond_graph.num_edges

    def test_in_degree_single(self, diamond_graph):
        assert diamond_graph.in_degrees()[3] == 2

    def test_edge_sources_align_with_targets(self, diamond_graph):
        src = diamond_graph.edge_sources()
        dst = diamond_graph.edge_targets()
        assert len(src) == len(dst) == diamond_graph.num_edges
        assert set(zip(src.tolist(), dst.tolist())) == {
            (0, 1), (0, 2), (1, 3), (2, 3)
        }

    def test_edges_iterator_matches_edge_array(self, cycle_graph):
        assert list(cycle_graph.edges()) == [
            tuple(row) for row in cycle_graph.edge_array()
        ]


class TestTransformations:
    def test_reversed_flips_edges(self, diamond_graph):
        rev = diamond_graph.reversed()
        assert set(rev.edges()) == {(1, 0), (2, 0), (3, 1), (3, 2)}

    def test_reversed_twice_is_identity(self, diamond_graph):
        assert diamond_graph.reversed().reversed() == diamond_graph

    def test_undirected_contains_both_directions(self, diamond_graph):
        und = diamond_graph.undirected()
        edges = set(und.edges())
        assert (0, 1) in edges and (1, 0) in edges

    def test_undirected_deduplicates(self):
        g = from_edges([(0, 1), (1, 0)])
        assert g.undirected().num_edges == 2

    def test_self_edge_counting(self):
        g = from_edges([(0, 0), (0, 1), (1, 1)])
        assert g.count_self_edges() == 2

    def test_without_self_edges(self):
        g = from_edges([(0, 0), (0, 1), (1, 1)])
        clean = g.without_self_edges()
        assert clean.count_self_edges() == 0
        assert clean.num_edges == 1
        assert clean.num_vertices == g.num_vertices

    def test_subgraph_edges_mask(self, diamond_graph):
        mask = np.array([True, False, True, False])
        sub = diamond_graph.subgraph_edges(mask)
        assert sub.num_edges == 2
        assert sub.num_vertices == diamond_graph.num_vertices

    def test_subgraph_edges_bad_mask_rejected(self, diamond_graph):
        with pytest.raises(EdgeListError):
            diamond_graph.subgraph_edges(np.array([True]))


class TestEquality:
    def test_equal_graphs(self):
        a = from_edges([(0, 1), (1, 2)])
        b = from_edges([(1, 2), (0, 1)])
        assert a == b

    def test_unequal_graphs(self):
        assert from_edges([(0, 1)]) != from_edges([(1, 0)])

    def test_edge_bytes(self, diamond_graph):
        assert diamond_graph.edge_bytes() == 4 * 8
        assert diamond_graph.edge_bytes(bytes_per_edge=16) == 64


class TestGraphBuilder:
    def test_remaps_sparse_ids(self):
        b = GraphBuilder()
        b.add_edge(1000, 2000)
        b.add_edge(2000, 3000)
        g = b.build()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_id_map_first_seen_order(self):
        # raw ids become dense ids in the order they are first seen
        b = GraphBuilder()
        b.add_edge(50, 10)
        assert b.build().out_neighbors(0).tolist() == [1]

    def test_add_vertex_without_edges(self):
        b = GraphBuilder()
        b.add_vertex(7)
        b.add_edge(8, 9)
        g = b.build()
        assert g.num_vertices == 3
        assert g.out_degree(0) == 0

    def test_empty_builder(self):
        assert GraphBuilder().build().num_vertices == 0

    def test_num_vertices_property(self):
        b = GraphBuilder()
        b.add_edge(1, 2)
        assert b.num_vertices == 2
