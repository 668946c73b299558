"""Tests for the HyTGraph system (correctness + behaviour)."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, DeltaPageRank, PHP, SSSP, reference
from repro.core.engine import HyTGraphOptions
from repro.core.selection import SelectionThresholds
from repro.graph.partition import DEFAULT_PARTITION_DIVISOR, partition_by_bytes
from repro.systems import make_system
from repro.systems.hytgraph import HyTGraphSystem
from repro.transfer.base import EngineKind

from tests.conftest import assert_distances_equal


@pytest.fixture
def system(medium_rmat_graph):
    return HyTGraphSystem(medium_rmat_graph, num_partitions=16)


class TestCorrectness:
    def test_sssp_matches_reference(self, medium_rmat_graph, system):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = system.run(SSSP(), source=source)
        assert result.converged
        assert_distances_equal(result.values, reference.sssp_distances(medium_rmat_graph, source))

    def test_bfs_matches_reference(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        system = HyTGraphSystem(graph, num_partitions=16)
        source = int(np.argmax(graph.out_degrees))
        result = system.run(BFS(), source=source)
        assert_distances_equal(result.values, reference.bfs_levels(graph, source))

    def test_cc_matches_reference(self, medium_power_law_graph):
        graph = medium_power_law_graph.without_weights().symmetrize()
        system = HyTGraphSystem(graph, num_partitions=16)
        result = system.run(ConnectedComponents())
        np.testing.assert_allclose(result.values, reference.connected_component_labels(graph))

    def test_pagerank_matches_reference(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        system = HyTGraphSystem(graph, num_partitions=16)
        result = system.run(DeltaPageRank(tolerance=1e-9))
        expected = reference.pagerank_values(graph)
        np.testing.assert_allclose(result.values, expected, rtol=1e-4, atol=1e-6)

    def test_php_matches_reference(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        system = HyTGraphSystem(graph, num_partitions=16)
        source = int(np.argmax(graph.out_degrees))
        result = system.run(PHP(tolerance=1e-10), source=source)
        expected = reference.php_values(graph, source)
        np.testing.assert_allclose(result.values, expected, rtol=1e-4, atol=1e-6)

    def test_hub_sorting_does_not_change_answers(self, medium_power_law_graph):
        source = int(np.argmax(medium_power_law_graph.out_degrees))
        with_hubs = HyTGraphSystem(
            medium_power_law_graph, num_partitions=16, options=HyTGraphOptions(hub_sorting=True)
        ).run(SSSP(), source=source)
        without_hubs = HyTGraphSystem(
            medium_power_law_graph, num_partitions=16, options=HyTGraphOptions(hub_sorting=False)
        ).run(SSSP(), source=source)
        assert_distances_equal(with_hubs.values, without_hubs.values)

    def test_every_option_combination_is_correct(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        expected = reference.sssp_distances(medium_rmat_graph, source)
        for task_combining in (True, False):
            for contribution in (True, False):
                for recompute in (True, False):
                    options = HyTGraphOptions(
                        task_combining=task_combining,
                        contribution_scheduling=contribution,
                        recompute_loaded=recompute,
                    )
                    result = HyTGraphSystem(medium_rmat_graph, options=options, num_partitions=12).run(
                        SSSP(), source=source
                    )
                    assert_distances_equal(result.values, expected)


class TestBehaviour:
    def test_converges_and_records_iterations(self, medium_rmat_graph, system):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = system.run(SSSP(), source=source)
        assert result.converged
        assert result.num_iterations > 0
        assert result.total_time > 0
        assert result.total_transfer_bytes > 0

    def test_iteration_stats_consistent(self, medium_rmat_graph, system):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = system.run(SSSP(), source=source)
        for stats in result.iterations:
            assert stats.time >= 0
            assert stats.active_vertices >= 0
            assert stats.processed_edges >= 0
            assert sum(stats.engine_tasks.values()) >= 0

    def test_first_iteration_single_source(self, medium_rmat_graph, system):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = system.run(SSSP(), source=source)
        assert result.iterations[0].active_vertices == 1

    def test_engine_mix_uses_multiple_engines_for_pagerank(self, medium_power_law_graph):
        graph = medium_power_law_graph.without_weights()
        system = HyTGraphSystem(graph, num_partitions=24)
        result = system.run(DeltaPageRank())
        used = set()
        for stats in result.iterations:
            used.update(stats.engine_partitions.keys())
        assert EngineKind.EXP_FILTER.value in used or EngineKind.EXP_COMPACTION.value in used
        assert EngineKind.IMP_ZERO_COPY.value in used

    def test_preprocessing_time_recorded_with_hub_sorting(self, medium_power_law_graph):
        system = HyTGraphSystem(
            medium_power_law_graph, num_partitions=8, options=HyTGraphOptions(hub_sorting=True)
        )
        assert system.preprocessing_time > 0
        no_hubs = HyTGraphSystem(
            medium_power_law_graph, num_partitions=8, options=HyTGraphOptions(hub_sorting=False)
        )
        assert no_hubs.preprocessing_time == 0.0

    def test_result_extra_metadata(self, medium_rmat_graph, system):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = system.run(SSSP(), source=source)
        assert result.extra["num_partitions"] == 16
        assert result.extra["hub_sorted"] is True

    def test_transfers_less_than_exptm_filter_on_sparse_traversal(self, medium_rmat_graph):
        from repro.systems.exptm_filter import ExpTMFilterSystem

        source = int(np.argmax(medium_rmat_graph.out_degrees))
        hytgraph = HyTGraphSystem(
            medium_rmat_graph, num_partitions=16
        ).run(SSSP(), source=source)
        filter_only = ExpTMFilterSystem(medium_rmat_graph, num_partitions=16).run(SSSP(), source=source)
        assert hytgraph.total_transfer_bytes < filter_only.total_transfer_bytes

    def test_max_iterations_bound(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = HyTGraphSystem(medium_rmat_graph, num_partitions=8, max_iterations=1).run(
            SSSP(), source=source
        )
        assert result.num_iterations == 1
        assert not result.converged
        # The same bound through the registry.
        registered = make_system("hytgraph", medium_rmat_graph, num_partitions=8, max_iterations=1)
        assert registered.run(SSSP(), source=source).num_iterations == 1

    def test_options_hold_only_the_behaviour_switches(self, medium_rmat_graph):
        assert [field.name for field in dataclasses.fields(HyTGraphOptions)] == [
            "combine_factor", "task_combining", "contribution_scheduling",
            "hub_sorting", "hub_fraction", "recompute_loaded", "thresholds",
        ]
        # Partitioning, iteration bound and cache are constructor arguments
        # shared with every GraphSystem, and the backend is process-wide.
        with pytest.raises(TypeError):
            HyTGraphOptions(backend="numpy")
        options = HyTGraphOptions(task_combining=False)
        system = make_system(
            "hytgraph", medium_rmat_graph, options=options, num_partitions=8, cache_policy="lru"
        )
        assert system.partitioning.num_partitions == 8
        assert system.context.cache.policy_name == "lru"
        assert options == HyTGraphOptions(task_combining=False)  # caller-owned, never written

    def test_custom_thresholds(self, medium_rmat_graph):
        options = HyTGraphOptions(thresholds=SelectionThresholds(alpha=0.5, beta=0.2))
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = HyTGraphSystem(medium_rmat_graph, options=options, num_partitions=8).run(SSSP(), source=source)
        assert result.converged

    def test_default_partitioning_is_the_divisor_byte_budget(self, medium_rmat_graph):
        system = HyTGraphSystem(medium_rmat_graph, options=HyTGraphOptions(hub_sorting=False))
        budget = medium_rmat_graph.edge_data_bytes // DEFAULT_PARTITION_DIVISOR
        expected = partition_by_bytes(medium_rmat_graph, budget)
        np.testing.assert_array_equal(system.partitioning.vertex_boundaries, expected.vertex_boundaries)
        assert system.partitioning.num_partitions > 4

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.empty(0)
        system = HyTGraphSystem(graph, options=HyTGraphOptions(hub_sorting=False))
        result = system.run(DeltaPageRank())
        assert result.converged
        assert result.num_iterations == 0

    def test_source_translation_with_hub_sorting(self, medium_power_law_graph):
        # The reported distances must be indexed by *original* vertex ids.
        source = int(np.argmin(medium_power_law_graph.out_degrees + (medium_power_law_graph.out_degrees == 0) * 10**9))
        result = HyTGraphSystem(
            medium_power_law_graph, num_partitions=8, options=HyTGraphOptions(hub_sorting=True)
        ).run(SSSP(), source=source)
        assert result.values[source] == 0.0
