"""Unit tests for the Formula 1-3 cost model."""

import math

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.graph.partition import partition_by_count
from repro.runtime.context import ExecutionContext


def zero_copy_cost_oracle(graph, config, partition_edges, vertices):
    """Formula 3 for one partition, one scalar evaluation at a time."""
    d1, m = graph.edge_bytes_per_edge, config.pcie_request_bytes
    total_requests = payload_edges = 0
    for v in vertices.tolist():
        degree = int(graph.out_degrees[v])
        if degree:
            total_requests += math.ceil((int(graph.row_offset[v]) * d1 % m + degree * d1) / m)
        payload_edges += degree
    num_tlps = math.ceil(total_requests / config.pcie_max_outstanding)
    payload_fraction = min(payload_edges / partition_edges, 1.0) if partition_edges else 0.0
    gamma = config.zero_copy_gamma
    return num_tlps * (gamma + (1.0 - gamma) * payload_fraction) * config.tlp_round_trip_time


def active_partitions(costs):
    return np.flatnonzero(costs.totals.active_edges > 0)


def partition_mask(graph, partitioning, index, stride=1):
    start, end = partitioning.vertex_boundaries[index : index + 2]
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[start:end:stride] = True
    return mask


@pytest.fixture
def graph(medium_power_law_graph):
    return medium_power_law_graph


@pytest.fixture
def partitioning(graph):
    return partition_by_count(graph, 8)


def make_model(graph, partitioning, config):
    return CostModel(ExecutionContext(graph, partitioning, config))


@pytest.fixture
def cost_model(graph, partitioning, config):
    return make_model(graph, partitioning, config)


class TestFilterCost:
    def test_formula_1_by_hand(self, graph, partitioning, cost_model, config):
        num_bytes = int(partitioning.edges[0]) * graph.edge_bytes_per_edge
        expected_tlps = int(np.ceil(num_bytes / config.tlp_payload_bytes))
        costs = cost_model.estimate(partition_mask(graph, partitioning, 0))
        assert costs.filter_cost[0] == pytest.approx(expected_tlps * config.tlp_round_trip_time)

    def test_independent_of_activeness(self, cost_model, graph, partitioning):
        mask_few = np.zeros(graph.num_vertices, dtype=bool)
        mask_few[partitioning.vertex_boundaries[0]] = True
        mask_many = partition_mask(graph, partitioning, 0)
        few = cost_model.estimate(mask_few)
        many = cost_model.estimate(mask_many)
        if few.totals.active_edges[0] > 0 and many.totals.active_edges[0] > 0:
            assert few.filter_cost[0] == pytest.approx(many.filter_cost[0])


class TestCompactionCost:
    def test_formula_2_transfer_term(self, cost_model, config, graph, partitioning):
        costs = cost_model.estimate(partition_mask(graph, partitioning, 0, stride=3))
        active_edges, active_vertices = int(costs.totals.active_edges[0]), int(costs.totals.active_vertices[0])
        assert active_edges > 0
        num_bytes = active_edges * graph.edge_bytes_per_edge + active_vertices * config.index_entry_bytes
        expected_tlps = int(np.ceil(num_bytes / config.tlp_payload_bytes))
        assert costs.compaction_cost[0] == pytest.approx(expected_tlps * config.tlp_round_trip_time)

    def test_grows_with_active_edges(self, config):
        # Large enough for the two volumes to round to different TLP counts.
        graph = rmat_graph(2000, 40_000, seed=5)
        partitioning = partition_by_count(graph, 1)
        cost_model = make_model(graph, partitioning, config)
        sparse = cost_model.estimate(partition_mask(graph, partitioning, 0, stride=8))
        dense = cost_model.estimate(partition_mask(graph, partitioning, 0))
        assert dense.totals.active_edges[0] > sparse.totals.active_edges[0]
        assert dense.compaction_cost[0] > sparse.compaction_cost[0]


class TestZeroCopyCost:
    def test_zero_for_empty(self, cost_model, graph):
        costs = cost_model.estimate(np.zeros(graph.num_vertices, dtype=bool))
        assert not costs.zero_copy_cost.any()

    def test_low_degree_actives_cost_more_than_high_degree(self, config):
        # The Figure 4 example: same active edge count, different active
        # vertex counts -> different zero-copy cost.
        # 6 vertices with ~10 neighbors each vs 2 vertices with 30 each.
        degrees = [10] * 6 + [30] * 2
        edges = [
            (vertex, (vertex + offset) % 100 + 40)
            for vertex, degree in enumerate(degrees)
            for offset in range(degree)
        ]
        graph = CSRGraph.from_edges(edges, num_vertices=140)
        partitioning = partition_by_count(graph, 1)
        model = make_model(graph, partitioning, config)
        many_mask = np.zeros(graph.num_vertices, dtype=bool)
        many_mask[0:6] = True
        few_mask = np.zeros(graph.num_vertices, dtype=bool)
        few_mask[6:8] = True
        many_vertices = model.estimate(many_mask).zero_copy_cost[0]
        few_vertices = model.estimate(few_mask).zero_copy_cost[0]
        assert many_vertices >= few_vertices


class TestEstimate:
    def test_shapes(self, cost_model, graph, partitioning):
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[::3] = True
        costs = cost_model.estimate(mask)
        for array in (costs.filter_cost, costs.compaction_cost, costs.zero_copy_cost):
            assert array.shape == (partitioning.num_partitions,)
            assert np.all(array >= 0)

    def test_inactive_partitions_cost_nothing(self, cost_model, graph, partitioning):
        costs = cost_model.estimate(partition_mask(graph, partitioning, 2))
        for index in range(partitioning.num_partitions):
            if index != 2 and costs.totals.active_edges[index] == 0:
                assert costs.filter_cost[index] == 0.0
                assert costs.compaction_cost[index] == 0.0
                assert costs.zero_copy_cost[index] == 0.0

    def test_all_active_compaction_near_filter(self, cost_model, graph):
        # With every edge active, compaction saves nothing: its transfer
        # term is at least the filter cost (plus the index array).
        mask = np.ones(graph.num_vertices, dtype=bool)
        costs = cost_model.estimate(mask)
        active = active_partitions(costs)
        assert np.all(costs.compaction_cost[active] >= costs.filter_cost[active] * 0.99)

    def test_sparse_active_compaction_cheaper_than_filter(self, cost_model, graph):
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[::50] = True
        costs = cost_model.estimate(mask)
        active = active_partitions(costs)
        assert np.all(costs.compaction_cost[active] <= costs.filter_cost[active] + 1e-12)

    def test_zero_copy_cheaper_than_filter_when_sparse(self, cost_model, graph):
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[::97] = True
        costs = cost_model.estimate(mask)
        active = active_partitions(costs)
        # With a handful of active vertices per partition, on-demand access
        # beats shipping whole partitions.
        assert costs.zero_copy_cost[active].sum() < costs.filter_cost[active].sum()

    def test_per_partition_zero_copy_matches_single_method(self, cost_model, graph, partitioning, config):
        mask = np.zeros(graph.num_vertices, dtype=bool)
        vertices = np.arange(*partitioning.vertex_boundaries[3:5], 4)
        mask[vertices] = True
        costs = cost_model.estimate(mask)
        direct = zero_copy_cost_oracle(graph, config, int(partitioning.edges[3]), vertices)
        assert costs.zero_copy_cost[3] == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("stride", [1, 3, 50])
    def test_explicit_copy_columns_are_the_billed_prices(self, graph, partitioning, config, stride):
        # Selection compares what the simulator bills: on every touched
        # partition the filter column is the context's copy-time table and
        # the compaction column the context's compaction copy seconds.
        context = ExecutionContext(graph, partitioning, config)
        model = CostModel(context)
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[::stride] = True
        costs = model.estimate(mask)
        totals = costs.totals
        touched = totals.active_edges > 0
        assert touched.any()
        _, _, copy = context.compaction_prices(totals.active_edges, totals.active_vertices)
        np.testing.assert_array_equal(costs.filter_cost[touched], np.asarray(context.partition_copy_time)[touched])
        np.testing.assert_array_equal(costs.compaction_cost[touched], copy[touched])
        assert not costs.filter_cost[~touched].any() and not costs.compaction_cost[~touched].any()
