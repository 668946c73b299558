"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    complete_graph,
    grid_graph,
    path_graph,
    power_law_graph,
    random_weights,
    rmat_graph,
    star_graph,
    uniform_random_graph,
)


def reference_rmat_edges(num_vertices, num_edges, a, b, c, seed):
    """The allocating level loop the buffer-reusing one replaced (same RNG calls)."""
    d = 1.0 - a - b - c
    rng = np.random.default_rng(seed)
    sources = np.zeros(num_edges, dtype=np.int64)
    destinations = np.zeros(num_edges, dtype=np.int64)
    for _ in range(max(1, int(np.ceil(np.log2(num_vertices))))):
        src_bit = (rng.random(num_edges) >= a + b).astype(np.int64)
        threshold = np.where(src_bit == 0, a / max(a + b, 1e-12), c / max(c + d, 1e-12))
        dst_bit = (rng.random(num_edges) >= threshold).astype(np.int64)
        sources = (sources << 1) | src_bit
        destinations = (destinations << 1) | dst_bit
    sources, destinations = sources % num_vertices, destinations % num_vertices
    return sorted(set(zip(sources[sources != destinations], destinations[sources != destinations])))


class TestRmat:
    @pytest.mark.parametrize(
        "a, b, c", [(0.57, 0.19, 0.19), (0.65, 0.15, 0.15), (0.2, 0.3, 0.45), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5)]
    )
    def test_matches_allocating_reference_loop(self, a, b, c):
        graph = rmat_graph(300, 5000, a=a, b=b, c=c, seed=9)
        edges = reference_rmat_edges(300, 5000, a, b, c, seed=9)
        assert list(zip(graph.edge_sources(), graph.column_index)) == edges

    def test_basic_shape(self):
        graph = rmat_graph(256, 2048, seed=1)
        assert graph.num_vertices == 256
        assert 0 < graph.num_edges <= 2048

    def test_deterministic(self):
        first = rmat_graph(128, 1000, seed=5)
        second = rmat_graph(128, 1000, seed=5)
        np.testing.assert_array_equal(first.column_index, second.column_index)
        np.testing.assert_array_equal(first.row_offset, second.row_offset)

    def test_seed_changes_graph(self):
        first = rmat_graph(128, 1000, seed=5)
        second = rmat_graph(128, 1000, seed=6)
        assert first.num_edges != second.num_edges or not np.array_equal(
            first.column_index, second.column_index
        )

    def test_no_self_loops(self):
        graph = rmat_graph(64, 600, seed=2)
        for src, dst, _ in graph.iter_edges():
            assert src != dst

    def test_skewed_degrees(self):
        graph = rmat_graph(512, 8000, seed=3)
        degrees = graph.out_degrees
        assert degrees.max() > 4 * degrees.mean()

    def test_weighted(self):
        graph = rmat_graph(64, 400, seed=4, weighted=True)
        assert graph.is_weighted
        assert graph.edge_value.min() >= 1.0

    def test_empty(self):
        graph = rmat_graph(0, 0)
        assert graph.num_vertices == 0

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_graph(16, 32, a=0.6, b=0.3, c=0.3)


class TestPowerLaw:
    def test_average_degree_close_to_target(self):
        graph = power_law_graph(2000, 16.0, seed=7)
        assert graph.average_degree == pytest.approx(16.0, rel=0.35)

    def test_heavy_tail(self):
        graph = power_law_graph(2000, 20.0, exponent=2.0, seed=8)
        degrees = graph.out_degrees
        # Hubs exist and a long low-degree tail exists.
        assert degrees.max() > 10 * degrees.mean()
        assert np.count_nonzero(degrees < 8) > 0.25 * degrees.size

    def test_undirected_is_symmetric(self):
        graph = power_law_graph(300, 8.0, seed=9, directed=False)
        edges = {(src, dst) for src, dst, _ in graph.iter_edges()}
        assert all((dst, src) in edges for src, dst in edges)

    def test_deterministic(self):
        first = power_law_graph(200, 6.0, seed=10)
        second = power_law_graph(200, 6.0, seed=10)
        np.testing.assert_array_equal(first.column_index, second.column_index)

    def test_weighted(self):
        graph = power_law_graph(100, 5.0, seed=11, weighted=True)
        assert graph.is_weighted

    def test_empty(self):
        assert power_law_graph(0, 5.0).num_vertices == 0


class TestUniformRandom:
    def test_shape(self):
        graph = uniform_random_graph(100, 500, seed=1)
        assert graph.num_vertices == 100
        assert 0 < graph.num_edges <= 500

    def test_no_self_loops(self):
        graph = uniform_random_graph(50, 300, seed=2)
        for src, dst, _ in graph.iter_edges():
            assert src != dst

    def test_empty(self):
        assert uniform_random_graph(0, 10).num_vertices == 0


class TestStructuredGraphs:
    def test_grid(self):
        graph = grid_graph(4, 5)
        assert graph.num_vertices == 20
        # Interior vertices have degree 4, corners 2.
        assert graph.out_degrees.max() == 4
        assert graph.out_degrees.min() == 2
        # Symmetric by construction.
        np.testing.assert_array_equal(graph.out_degrees, graph.in_degrees)

    def test_path(self):
        graph = path_graph(10)
        assert graph.num_vertices == 10
        assert graph.num_edges == 9
        assert graph.out_degree(9) == 0

    def test_star(self):
        graph = star_graph(7)
        assert graph.num_vertices == 8
        assert graph.out_degree(0) == 7
        assert graph.out_degrees[1:].sum() == 0

    def test_complete(self):
        graph = complete_graph(5)
        assert graph.num_edges == 20
        assert np.all(graph.out_degrees == 4)

    def test_weighted_variants(self):
        assert grid_graph(3, 3, weighted=True).is_weighted
        assert path_graph(5, weighted=True).is_weighted
        assert star_graph(4, weighted=True).is_weighted
        assert complete_graph(4, weighted=True).is_weighted


class TestRandomWeights:
    def test_range_and_dtype(self):
        weights = random_weights(1000, low=1, high=64, seed=1)
        assert weights.min() >= 1
        assert weights.max() <= 64
        assert weights.dtype == np.float64

    def test_deterministic(self):
        np.testing.assert_array_equal(random_weights(100, seed=3), random_weights(100, seed=3))
