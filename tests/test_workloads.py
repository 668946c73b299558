"""Unit tests for the benchmark workload harness."""

import numpy as np
import pytest

from repro.bench.workloads import (
    PAPER_EDGE_COUNTS,
    batch_sources,
    build_workload,
    paper_datasets,
    pick_source,
    scaled_config_for,
)
from repro.graph.generators import rmat_graph
from repro.sim.config import gtx_1080, gtx_2080ti


class TestScaledConfig:
    def test_known_dataset_scales_memory(self):
        graph = rmat_graph(500, 5000, seed=1, name="SK")
        config = scaled_config_for(graph, "SK")
        expected_scale = graph.num_edges / PAPER_EDGE_COUNTS["SK"]
        assert config.gpu_memory_bytes < gtx_2080ti().gpu_memory_bytes * expected_scale
        assert config.gpu_memory_bytes > 0

    def test_unknown_graph_gets_half_edge_data(self):
        graph = rmat_graph(500, 5000, seed=1, name="custom")
        config = scaled_config_for(graph)
        assert config.gpu_memory_bytes == pytest.approx(graph.edge_data_bytes // 2, abs=2)

    def test_preset_by_name(self):
        graph = rmat_graph(200, 1000, seed=1, name="SK")
        config = scaled_config_for(graph, "SK", preset="GTX-1080")
        reference = scaled_config_for(graph, "SK", preset=gtx_1080())
        assert config.gpu_memory_bytes == reference.gpu_memory_bytes

    def test_launch_overhead_scaled_down(self):
        graph = rmat_graph(200, 1000, seed=1, name="SK")
        config = scaled_config_for(graph, "SK")
        assert config.gpu_kernel_launch_overhead < gtx_2080ti().gpu_kernel_launch_overhead


class TestBuildWorkload:
    def test_paper_datasets_order(self):
        assert paper_datasets() == ["SK", "TW", "FK", "UK", "FS"]

    def test_sssp_workload_weighted_with_source(self):
        workload = build_workload("SK", "sssp", scale=0.1)
        assert workload.graph.is_weighted
        assert workload.source is not None
        assert workload.algorithm == "SSSP"

    def test_pagerank_workload_no_source(self):
        workload = build_workload("TW", "pagerank", scale=0.1)
        assert workload.source is None
        assert not workload.graph.is_weighted

    def test_cc_workload_symmetrized(self):
        workload = build_workload("FK", "cc", scale=0.1)
        np.testing.assert_array_equal(workload.graph.out_degrees, workload.graph.in_degrees)

    def test_prebuilt_graph_reused(self):
        graph = rmat_graph(300, 3000, seed=2, name="custom")
        workload = build_workload("custom", "bfs", graph=graph)
        assert workload.graph is graph

    def test_prebuilt_graph_gets_weights_for_sssp(self):
        graph = rmat_graph(300, 3000, seed=2, name="custom")
        workload = build_workload("custom", "sssp", graph=graph)
        assert workload.graph.is_weighted

    def test_pick_source_highest_degree(self):
        graph = rmat_graph(100, 700, seed=3)
        assert pick_source(graph) == int(np.argmax(graph.out_degrees))

    def test_pick_source_empty_graph(self):
        from repro.graph.csr import CSRGraph

        with pytest.raises(ValueError):
            pick_source(CSRGraph.empty(0))


class TestRunWorkload:
    def test_run_returns_result(self):
        workload = build_workload("SK", "bfs", scale=0.05)
        result = workload.run("emogi")
        assert result.converged
        assert result.system == "EMOGI"

    def test_run_forwards_system_kwargs(self):
        workload = build_workload("SK", "sssp", scale=0.05)
        assert workload.run("hytgraph", max_iterations=1).num_iterations == 1

    def test_run_matches_the_service(self):
        """A solo run and a one-request service agree on values and timing."""
        from repro.service import GraphService, QueryRequest, ServiceConfig

        workload = build_workload("SK", "bfs", scale=0.05)
        solo = workload.run("hytgraph")
        service = GraphService(
            ServiceConfig(system="hytgraph"), graph=workload.graph, hardware=workload.config
        )
        served = service.run(QueryRequest(algorithm="bfs", source=workload.source))
        np.testing.assert_array_equal(solo.values, served.values)
        assert solo.per_iteration_times() == served.per_iteration_times()

    def test_same_workload_same_answers_across_systems(self):
        workload = build_workload("TW", "bfs", scale=0.05)
        first = workload.run("hytgraph")
        second = workload.run("subway")
        np.testing.assert_allclose(
            np.where(np.isinf(first.values), -1, first.values),
            np.where(np.isinf(second.values), -1, second.values),
        )


class TestMultiDeviceGuards:
    @pytest.mark.parametrize("system", ["grus", "imptm-um", "galois"])
    def test_workload_run_refuses_incapable_system(self, system):
        workload = build_workload("SK", "bfs", scale=0.05, num_devices=2)
        with pytest.raises(ValueError, match="no multi-device execution path"):
            workload.run(system)


class TestBatchWorkloads:
    def test_batch_sources_distinct_and_by_degree(self):
        workload = build_workload("SK", "sssp", scale=0.05)
        sources = batch_sources(workload.graph, 5)
        assert len(set(sources)) == 5
        degrees = workload.graph.out_degrees[sources]
        assert all(degrees[i] >= degrees[i + 1] for i in range(len(degrees) - 1))
        with pytest.raises(ValueError):
            batch_sources(workload.graph, 0)
        with pytest.raises(ValueError):
            batch_sources(workload.graph, workload.graph.num_vertices + 1)

    def test_batch_sources_seeded_sampling_is_deterministic(self):
        workload = build_workload("SK", "sssp", scale=0.05)
        first = batch_sources(workload.graph, 6, seed=42)
        second = batch_sources(workload.graph, 6, seed=42)
        other = batch_sources(workload.graph, 6, seed=43)
        assert first == second
        assert len(set(first)) == 6
        assert first != other  # different seeds sample different sources
        # Sampled sources are usable traversal starts.
        assert all(workload.graph.out_degrees[s] > 0 for s in first)
