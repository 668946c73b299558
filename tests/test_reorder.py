"""Unit tests for hub scoring and hub sorting (Formula 4, Section VI-A)."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import star_graph
from repro.graph.reorder import (
    apply_vertex_order,
    degree_sort_order,
    hub_scores,
    hub_sort,
    hub_sort_order,
)


class TestHubScores:
    def test_formula_on_small_graph(self):
        # 0 -> 1, 1 -> 2, 2 -> 1 : vertex 1 has Do=1, Di=2 (the hub).
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 1)], num_vertices=3)
        scores = hub_scores(graph)
        do_max = graph.out_degrees.max()
        di_max = graph.in_degrees.max()
        expected = graph.out_degrees * graph.in_degrees / (do_max * di_max)
        np.testing.assert_allclose(scores, expected)
        assert scores.argmax() == 1

    def test_scores_in_unit_interval(self, medium_power_law_graph):
        scores = hub_scores(medium_power_law_graph)
        assert scores.min() >= 0.0
        assert scores.max() <= 1.0
        assert scores.max() > 0.0

    def test_isolated_graph_all_zero(self):
        graph = CSRGraph.empty(5)
        np.testing.assert_array_equal(hub_scores(graph), np.zeros(5))


class TestHubSortOrder:
    def test_is_permutation(self, medium_power_law_graph):
        order = hub_sort_order(medium_power_law_graph, 0.08)
        np.testing.assert_array_equal(np.sort(order), np.arange(medium_power_law_graph.num_vertices))

    def test_hubs_first(self, medium_power_law_graph):
        fraction = 0.1
        order = hub_sort_order(medium_power_law_graph, fraction)
        scores = hub_scores(medium_power_law_graph)
        num_hubs = int(round(medium_power_law_graph.num_vertices * fraction))
        front_scores = scores[order[:num_hubs]]
        rest_scores = scores[order[num_hubs:]]
        assert front_scores.min() >= rest_scores.max() - 1e-12

    def test_non_hubs_keep_natural_order(self, medium_power_law_graph):
        order = hub_sort_order(medium_power_law_graph, 0.08)
        num_hubs = int(round(medium_power_law_graph.num_vertices * 0.08))
        rest = order[num_hubs:]
        assert np.all(np.diff(rest) > 0)

    def test_zero_fraction_is_identity(self, medium_power_law_graph):
        order = hub_sort_order(medium_power_law_graph, 0.0)
        np.testing.assert_array_equal(order, np.arange(medium_power_law_graph.num_vertices))

    def test_invalid_fraction(self, medium_power_law_graph):
        with pytest.raises(ValueError):
            hub_sort_order(medium_power_law_graph, 1.5)

    def test_star_hub_is_center(self):
        # In a star with back-edges the center is the unique hub.
        graph = star_graph(20).symmetrize()
        order = hub_sort_order(graph, 0.05)
        assert order[0] == 0


class TestDegreeSortOrder:
    def test_descending(self, medium_power_law_graph):
        order = degree_sort_order(medium_power_law_graph)
        degrees = medium_power_law_graph.out_degrees[order]
        assert np.all(np.diff(degrees) <= 0)

    def test_ascending(self, medium_power_law_graph):
        order = degree_sort_order(medium_power_law_graph, descending=False)
        degrees = medium_power_law_graph.out_degrees[order]
        assert np.all(np.diff(degrees) >= 0)


class TestApplyOrder:
    def test_mappings_are_inverses(self, medium_power_law_graph):
        reordered = hub_sort(medium_power_law_graph, 0.08)
        n = medium_power_law_graph.num_vertices
        np.testing.assert_array_equal(reordered.old_to_new[reordered.new_to_old], np.arange(n))
        np.testing.assert_array_equal(reordered.new_to_old[reordered.old_to_new], np.arange(n))

    def test_translate_roundtrip(self, medium_power_law_graph):
        reordered = hub_sort(medium_power_law_graph, 0.08)
        for vertex in (0, 1, medium_power_law_graph.num_vertices - 1):
            assert reordered.new_to_old[reordered.translate_to_new(vertex)] == vertex

    def test_degree_multiset_preserved(self, medium_power_law_graph):
        reordered = hub_sort(medium_power_law_graph, 0.08)
        np.testing.assert_array_equal(
            np.sort(reordered.graph.out_degrees), np.sort(medium_power_law_graph.out_degrees)
        )

    def test_values_in_original_order(self, medium_power_law_graph):
        reordered = hub_sort(medium_power_law_graph, 0.08)
        # Values indexed by relabelled id map back so that original vertex v
        # receives the value of its relabelled counterpart.
        values_new_order = reordered.new_to_old.astype(np.float64)
        restored = reordered.values_in_original_order(values_new_order)
        np.testing.assert_array_equal(restored, np.arange(medium_power_law_graph.num_vertices))

    def test_num_hubs_recorded(self, medium_power_law_graph):
        reordered = hub_sort(medium_power_law_graph, 0.1)
        assert reordered.num_hubs == int(round(medium_power_law_graph.num_vertices * 0.1))

    def test_hub_sorted_graph_front_has_high_degree_mass(self, medium_power_law_graph):
        reordered = hub_sort(medium_power_law_graph, 0.08)
        n = medium_power_law_graph.num_vertices
        front = reordered.graph.out_degrees[: max(1, n // 10)].sum()
        back = reordered.graph.out_degrees[-max(1, n // 10):].sum()
        assert front > back

    def test_apply_vertex_order_explicit(self, paper_graph):
        order = np.array([5, 4, 3, 2, 1, 0])
        reordered = apply_vertex_order(paper_graph, order)
        assert reordered.graph.num_edges == paper_graph.num_edges
        assert reordered.translate_to_new(5) == 0
