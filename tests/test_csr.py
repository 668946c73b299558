"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2)], num_vertices=3)
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert list(graph.neighbors(0)) == [1, 2]
        assert list(graph.neighbors(1)) == [2]
        assert list(graph.neighbors(2)) == []

    def test_from_edges_infers_vertex_count(self):
        graph = CSRGraph.from_edges([(0, 4), (4, 2)])
        assert graph.num_vertices == 5

    def test_from_edges_with_weights(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0)], num_vertices=2, weights=[2.5, 1.5])
        assert graph.is_weighted
        assert graph.edge_weights(0)[0] == 2.5
        assert graph.edge_weights(1)[0] == 1.5

    def test_from_edges_sorts_neighbors(self):
        graph = CSRGraph.from_edges([(0, 3), (0, 1), (0, 2)], num_vertices=4)
        assert list(graph.neighbors(0)) == [1, 2, 3]

    def test_from_edges_deduplicate(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 1), (1, 0)], num_vertices=2, deduplicate=True)
        assert graph.num_edges == 2

    def test_from_edges_keeps_duplicates_by_default(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 1)], num_vertices=2)
        assert graph.num_edges == 2
        assert list(graph.neighbors(0)) == [1, 1]

    def test_empty_graph(self):
        graph = CSRGraph.empty(5)
        assert graph.num_vertices == 5
        assert graph.num_edges == 0
        assert graph.average_degree == 0.0

    def test_empty_graph_no_vertices(self):
        graph = CSRGraph.empty(0)
        assert graph.num_vertices == 0
        assert graph.average_degree == 0.0

    def test_weights_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 1)], num_vertices=2, weights=[1.0, 2.0])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="edge_value must be finite: edge 1"):
            CSRGraph.from_edges([(0, 1), (1, 0), (1, 2)], num_vertices=3, weights=[1.0, weight, 2.0])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 5)], num_vertices=3)

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            CSRGraph.from_edges([(0, 1), (-1, 0)], num_vertices=3)

    def test_sort_key_overflow_is_a_named_error(self):
        with pytest.raises(ValueError, match="int64"):
            CSRGraph.from_edges([(0, 1)], num_vertices=2**32)

    def test_from_endpoints_equals_from_edges(self):
        pairs = [(2, 0), (0, 2), (0, 1), (2, 0)]
        weights = [4.0, 3.0, 2.0, 1.0]
        by_pairs = CSRGraph.from_edges(pairs, weights=weights, deduplicate=True)
        by_columns = CSRGraph.from_endpoints([2, 0, 0, 2], [0, 2, 1, 0], weights=weights, deduplicate=True)
        np.testing.assert_array_equal(by_columns.row_offset, by_pairs.row_offset)
        np.testing.assert_array_equal(by_columns.column_index, [1, 2, 0])
        np.testing.assert_array_equal(by_columns.edge_value, [2.0, 3.0, 4.0])  # first weight wins
        np.testing.assert_array_equal(by_columns.edge_value, by_pairs.edge_value)

    def test_misaligned_endpoint_columns_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            CSRGraph.from_endpoints([0, 1], [1])

    def test_hand_built_graph_never_keeps_a_strided_view(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        graph = CSRGraph(np.array([0, 2, 3, 3]), pairs[:, 1], np.arange(6.0)[::2])
        assert graph.column_index.flags.c_contiguous and graph.edge_value.flags.c_contiguous
        np.testing.assert_array_equal(graph.column_index, [1, 2, 2])

    def test_invalid_row_offset_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))

    def test_decreasing_row_offset_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_row_offset_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1, 3]), np.array([0]))

    def test_column_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))


class TestProperties:
    def test_degrees(self, paper_graph):
        assert list(paper_graph.out_degrees) == [2, 2, 2, 2, 1, 1]
        assert paper_graph.out_degree(0) == 2
        assert list(paper_graph.in_degrees) == [1, 1, 2, 2, 2, 2]

    def test_average_degree(self, paper_graph):
        assert paper_graph.average_degree == pytest.approx(10 / 6)

    def test_edge_bytes(self, paper_graph):
        assert paper_graph.edge_bytes_per_edge == 8  # neighbor + weight
        assert paper_graph.edge_data_bytes == 80
        unweighted = paper_graph.without_weights()
        assert unweighted.edge_bytes_per_edge == 4

    def test_edge_slice(self, paper_graph):
        start, end = paper_graph.edge_slice(1)
        assert (start, end) == (2, 4)

    def test_iter_edges(self, paper_graph):
        edges = list(paper_graph.iter_edges())
        assert len(edges) == 10
        assert edges[0] == (0, 1, 2.0)

    def test_edge_sources(self, paper_graph):
        sources = paper_graph.edge_sources()
        assert list(sources[:4]) == [0, 0, 1, 1]
        assert sources.size == paper_graph.num_edges

    def test_edge_weights_unweighted_default_one(self):
        graph = CSRGraph.from_edges([(0, 1), (0, 2)], num_vertices=3)
        np.testing.assert_array_equal(graph.edge_weights(0), [1.0, 1.0])


class TestTransformations:
    def test_with_weights_scalar(self, paper_graph):
        graph = paper_graph.with_weights(2.0)
        assert np.all(graph.edge_value == 2.0)

    def test_without_weights(self, paper_graph):
        graph = paper_graph.without_weights()
        assert not graph.is_weighted

    def test_reverse_swaps_degrees(self, paper_graph):
        reversed_graph = paper_graph.reverse()
        np.testing.assert_array_equal(reversed_graph.out_degrees, paper_graph.in_degrees)
        np.testing.assert_array_equal(reversed_graph.in_degrees, paper_graph.out_degrees)

    def test_reverse_preserves_edge_set(self, paper_graph):
        reversed_graph = paper_graph.reverse()
        original = {(src, dst) for src, dst, _ in paper_graph.iter_edges()}
        flipped = {(dst, src) for src, dst, _ in reversed_graph.iter_edges()}
        assert original == flipped

    def test_symmetrize_contains_both_directions(self, paper_graph):
        symmetric = paper_graph.symmetrize()
        edges = {(src, dst) for src, dst, _ in symmetric.iter_edges()}
        for src, dst, _ in paper_graph.iter_edges():
            assert (src, dst) in edges
            assert (dst, src) in edges

    def test_symmetrize_degrees_balanced(self, paper_graph):
        symmetric = paper_graph.symmetrize()
        np.testing.assert_array_equal(symmetric.out_degrees, symmetric.in_degrees)

    def test_permute_identity(self, paper_graph):
        identity = np.arange(paper_graph.num_vertices)
        permuted = paper_graph.permute(identity)
        np.testing.assert_array_equal(permuted.row_offset, paper_graph.row_offset)
        np.testing.assert_array_equal(permuted.column_index, paper_graph.column_index)

    def test_permute_preserves_edge_structure(self, paper_graph):
        order = np.array([3, 1, 4, 0, 5, 2])
        permuted = paper_graph.permute(order)
        # old vertex order[i] becomes new vertex i
        new_id = np.empty(6, dtype=int)
        new_id[order] = np.arange(6)
        original = {(new_id[src], new_id[dst], weight) for src, dst, weight in paper_graph.iter_edges()}
        relabelled = set(permuted.iter_edges())
        assert original == relabelled

    def test_permute_rejects_non_permutation(self, paper_graph):
        with pytest.raises(ValueError):
            paper_graph.permute(np.array([0, 0, 1, 2, 3, 4]))
