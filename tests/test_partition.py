"""Unit tests for chunk-based edge-balanced partitioning."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph, star_graph
from repro.graph.partition import Partitioning, partition_by_bytes, partition_by_count
from repro.runtime.context import ExecutionContext


def check_tiling(graph, partitioning):
    """The partition table tiles the vertex and edge ranges without gaps or overlap.

    Vertex boundaries rise strictly from 0 to |V|; every other column is
    what the boundaries and the CSR layout imply.
    """
    bounds = partitioning.vertex_boundaries
    num_partitions = partitioning.num_partitions
    assert bounds.dtype == np.int64 and bounds.shape == (num_partitions + 1,)
    assert bounds[0] == 0 and bounds[-1] == graph.num_vertices
    assert np.all(np.diff(bounds) > 0)
    np.testing.assert_array_equal(partitioning.edge_boundaries, graph.row_offset[bounds])
    np.testing.assert_array_equal(partitioning.edges, np.diff(graph.row_offset[bounds]))
    np.testing.assert_array_equal(
        partitioning.edge_bytes, np.diff(graph.row_offset[bounds]) * graph.edge_bytes_per_edge
    )
    assert partitioning.edge_bytes.sum() == graph.edge_data_bytes
    for column in (partitioning.edge_boundaries, partitioning.edges, partitioning.edge_bytes):
        assert column.dtype == np.int64
    # Every vertex maps to the partition whose bounds contain it.
    vertices = np.arange(graph.num_vertices)
    owner = partitioning.partition_of
    assert owner.dtype == np.int64 and owner.shape == (graph.num_vertices,)
    assert np.all((bounds[owner] <= vertices) & (vertices < bounds[owner + 1]))


class TestPartitionByBytes:
    def test_tiles_graph(self, medium_power_law_graph):
        partitioning = partition_by_bytes(medium_power_law_graph, 4096)
        check_tiling(medium_power_law_graph, partitioning)

    def test_respects_byte_budget_when_possible(self, medium_power_law_graph):
        budget = 4096
        partitioning = partition_by_bytes(medium_power_law_graph, budget)
        per_edge = medium_power_law_graph.edge_bytes_per_edge
        sizes = np.diff(partitioning.vertex_boundaries)
        # Either within budget or a single oversized adjacency list.
        assert np.all((partitioning.edge_bytes <= budget) | (sizes == 1))
        np.testing.assert_array_equal(partitioning.edge_bytes, partitioning.edges * per_edge)

    def test_single_partition_when_budget_huge(self, small_random_graph):
        partitioning = partition_by_bytes(small_random_graph, 1 << 30)
        assert partitioning.num_partitions == 1

    def test_oversized_vertex_gets_own_partition(self):
        graph = star_graph(1000)
        partitioning = partition_by_bytes(graph, 128)
        hub = partitioning.partition_of[0]
        assert hub == 0
        assert partitioning.vertex_boundaries[hub] == 0
        assert partitioning.vertex_boundaries[hub + 1] >= 1
        check_tiling(graph, partitioning)

    def test_invalid_budget(self, small_random_graph):
        with pytest.raises(ValueError):
            partition_by_bytes(small_random_graph, 0)

    def test_empty_graph(self):
        partitioning = partition_by_bytes(CSRGraph.empty(0), 1024)
        assert partitioning.num_partitions == 0
        check_tiling(partitioning.graph, partitioning)


class TestPartitionByCount:
    def test_tiles_graph(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 16)
        check_tiling(medium_power_law_graph, partitioning)

    def test_partition_count_close_to_request(self, medium_rmat_graph):
        partitioning = partition_by_count(medium_rmat_graph, 16)
        assert 1 <= partitioning.num_partitions <= 16

    def test_edge_balance(self, medium_rmat_graph):
        partitioning = partition_by_count(medium_rmat_graph, 8)
        edges = partitioning.edges
        assert edges.sum() == medium_rmat_graph.num_edges
        # Edge-balanced: no partition is wildly larger than the ideal share
        # (hubs can force some imbalance, hence the loose bound).
        assert edges.max() <= 4 * medium_rmat_graph.num_edges / partitioning.num_partitions + edges.max() * 0

    def test_more_partitions_than_vertices(self):
        graph = power_law_graph(10, 3.0, seed=1)
        partitioning = partition_by_count(graph, 50)
        assert partitioning.num_partitions <= graph.num_vertices
        check_tiling(graph, partitioning)

    def test_empty_graph(self):
        partitioning = partition_by_count(CSRGraph.empty(0), 4)
        assert partitioning.num_partitions == 0
        check_tiling(partitioning.graph, partitioning)

    def test_invalid_count(self, small_random_graph):
        with pytest.raises(ValueError):
            partition_by_count(small_random_graph, 0)


class TestPartitioningQueries:
    def test_partition_of_vertex(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        bounds = partitioning.vertex_boundaries.tolist()
        for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
            assert partitioning.partition_of[start] == index
            assert partitioning.partition_of[end - 1] == index

    def test_partition_of_matches_the_bounds(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        bounds = partitioning.vertex_boundaries
        expected = np.concatenate(
            [np.full(end - start, index) for index, (start, end) in enumerate(zip(bounds, bounds[1:]))]
        )
        np.testing.assert_array_equal(partitioning.partition_of, expected)

    def test_frontier_totals(self, medium_power_law_graph, config):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        context = ExecutionContext(medium_power_law_graph, partitioning, config)
        mask = np.zeros(medium_power_law_graph.num_vertices, dtype=bool)
        mask[::3] = True
        totals = context.frontier_totals(mask)
        assert totals.active_vertices.sum() == mask.sum()
        assert totals.active_edges.sum() == medium_power_law_graph.out_degrees[mask].sum()
        # Per-partition counts never exceed the partition's totals.
        assert np.all(totals.active_vertices <= np.diff(partitioning.vertex_boundaries))
        assert np.all(totals.active_edges <= partitioning.edges)

    def test_frontier_totals_empty_mask(self, medium_power_law_graph, config):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        context = ExecutionContext(medium_power_law_graph, partitioning, config)
        totals = context.frontier_totals(np.zeros(medium_power_law_graph.num_vertices, dtype=bool))
        assert totals.active_vertices.sum() == 0
        assert totals.active_edges.sum() == 0
        assert totals.zero_copy_requests.sum() == 0

    def test_edge_bytes_column(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        assert partitioning.edge_bytes.sum() == medium_power_law_graph.edge_data_bytes

    def test_column_lengths(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        num_partitions = partitioning.num_partitions
        assert partitioning.vertex_boundaries.size == partitioning.edge_boundaries.size == num_partitions + 1
        assert partitioning.edges.size == partitioning.edge_bytes.size == num_partitions
        assert partitioning.partition_of.size == medium_power_law_graph.num_vertices


class TestValidation:
    def test_boundaries_rebuild_the_table(self, small_random_graph):
        built = partition_by_count(small_random_graph, 4)
        rebuilt = Partitioning(small_random_graph, built.vertex_boundaries.tolist())
        check_tiling(small_random_graph, rebuilt)
        np.testing.assert_array_equal(rebuilt.edge_bytes, built.edge_bytes)

    @pytest.mark.parametrize(
        "bounds",
        [
            pytest.param(lambda n: [1, 10, n], id="not-from-zero"),
            pytest.param(lambda n: [0, 10], id="incomplete-cover"),
            pytest.param(lambda n: [0, 10, n + 1], id="past-the-end"),
            pytest.param(lambda n: [0, 12, 10, n], id="descending"),
            pytest.param(lambda n: [0, 10, 10, n], id="empty-partition"),
            pytest.param(lambda n: [], id="no-bounds"),
            pytest.param(lambda n: [[0, n]], id="not-one-dimensional"),
        ],
    )
    def test_bad_boundaries_rejected(self, small_random_graph, bounds):
        with pytest.raises(ValueError, match="vertex boundaries"):
            Partitioning(small_random_graph, bounds(small_random_graph.num_vertices))

    def test_non_empty_graph_needs_a_partition(self, small_random_graph):
        with pytest.raises(ValueError, match="vertex boundaries"):
            Partitioning(small_random_graph, [0])
