"""Unit tests for chunk-based edge-balanced partitioning."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import power_law_graph, star_graph
from repro.graph.partition import EdgePartition, Partitioning, partition_by_bytes, partition_by_count


def check_tiling(graph, partitioning):
    """Partitions must tile the vertex and edge ranges without gaps or overlap."""
    assert partitioning[0].vertex_start == 0
    assert partitioning[-1].vertex_end == graph.num_vertices
    assert partitioning[0].edge_start == 0
    assert partitioning[-1].edge_end == graph.num_edges
    for left, right in zip(partitioning.partitions[:-1], partitioning.partitions[1:]):
        assert left.vertex_end == right.vertex_start
        assert left.edge_end == right.edge_start


class TestPartitionByBytes:
    def test_tiles_graph(self, medium_power_law_graph):
        partitioning = partition_by_bytes(medium_power_law_graph, 4096)
        check_tiling(medium_power_law_graph, partitioning)

    def test_respects_byte_budget_when_possible(self, medium_power_law_graph):
        budget = 4096
        partitioning = partition_by_bytes(medium_power_law_graph, budget)
        per_edge = medium_power_law_graph.edge_bytes_per_edge
        for partition in partitioning:
            # Either within budget or a single oversized adjacency list.
            assert partition.edge_bytes <= budget or partition.num_vertices == 1
            assert partition.edge_bytes == partition.num_edges * per_edge

    def test_single_partition_when_budget_huge(self, small_random_graph):
        partitioning = partition_by_bytes(small_random_graph, 1 << 30)
        assert partitioning.num_partitions == 1

    def test_oversized_vertex_gets_own_partition(self):
        graph = star_graph(1000)
        partitioning = partition_by_bytes(graph, 128)
        hub_partition = partitioning[partitioning.partition_of_vertex(0)]
        assert hub_partition.num_vertices >= 1
        assert hub_partition.vertex_start == 0
        check_tiling(graph, partitioning)

    def test_invalid_budget(self, small_random_graph):
        with pytest.raises(ValueError):
            partition_by_bytes(small_random_graph, 0)

    def test_empty_graph(self):
        partitioning = partition_by_bytes(CSRGraph.empty(0), 1024)
        assert partitioning.num_partitions == 0


class TestPartitionByCount:
    def test_tiles_graph(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 16)
        check_tiling(medium_power_law_graph, partitioning)

    def test_partition_count_close_to_request(self, medium_rmat_graph):
        partitioning = partition_by_count(medium_rmat_graph, 16)
        assert 1 <= partitioning.num_partitions <= 16

    def test_edge_balance(self, medium_rmat_graph):
        partitioning = partition_by_count(medium_rmat_graph, 8)
        edges = partitioning.edges_per_partition()
        assert edges.sum() == medium_rmat_graph.num_edges
        # Edge-balanced: no partition is wildly larger than the ideal share
        # (hubs can force some imbalance, hence the loose bound).
        assert edges.max() <= 4 * medium_rmat_graph.num_edges / partitioning.num_partitions + edges.max() * 0

    def test_more_partitions_than_vertices(self):
        graph = power_law_graph(10, 3.0, seed=1)
        partitioning = partition_by_count(graph, 50)
        assert partitioning.num_partitions <= graph.num_vertices
        check_tiling(graph, partitioning)

    def test_invalid_count(self, small_random_graph):
        with pytest.raises(ValueError):
            partition_by_count(small_random_graph, 0)


class TestPartitioningQueries:
    def test_partition_of_vertex(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        for partition in partitioning:
            for vertex in (partition.vertex_start, partition.vertex_end - 1):
                assert partitioning.partition_of_vertex(vertex) == partition.index
                assert vertex in partition.vertices()

    def test_partition_of_vertices_vectorised(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        vertices = np.arange(medium_power_law_graph.num_vertices)
        mapped = partitioning.partition_of_vertices(vertices)
        expected = np.array([partitioning.partition_of_vertex(int(v)) for v in vertices])
        np.testing.assert_array_equal(mapped, expected)

    def test_active_counts(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        mask = np.zeros(medium_power_law_graph.num_vertices, dtype=bool)
        mask[::3] = True
        active_vertices, active_edges = partitioning.active_counts(mask)
        assert active_vertices.sum() == mask.sum()
        assert active_edges.sum() == medium_power_law_graph.out_degrees[mask].sum()
        # Per-partition counts never exceed the partition's totals.
        for partition in partitioning:
            assert active_vertices[partition.index] <= partition.num_vertices
            assert active_edges[partition.index] <= partition.num_edges

    def test_active_counts_empty_mask(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        mask = np.zeros(medium_power_law_graph.num_vertices, dtype=bool)
        active_vertices, active_edges = partitioning.active_counts(mask)
        assert active_vertices.sum() == 0
        assert active_edges.sum() == 0

    def test_bytes_per_partition(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        assert partitioning.bytes_per_partition().sum() == medium_power_law_graph.edge_data_bytes

    def test_iteration_and_len(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        assert len(list(partitioning)) == len(partitioning) == partitioning.num_partitions


class TestValidation:
    def test_gap_rejected(self, small_random_graph):
        graph = small_random_graph
        bad = [
            EdgePartition(0, 0, 10, 0, int(graph.row_offset[10]), 0),
            EdgePartition(1, 12, graph.num_vertices, int(graph.row_offset[12]), graph.num_edges, 0),
        ]
        with pytest.raises(ValueError):
            Partitioning(graph, bad)

    def test_incomplete_cover_rejected(self, small_random_graph):
        graph = small_random_graph
        bad = [EdgePartition(0, 0, 10, 0, int(graph.row_offset[10]), 0)]
        with pytest.raises(ValueError):
            Partitioning(graph, bad)
