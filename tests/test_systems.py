"""Cross-system tests: every simulated system computes identical answers."""

import inspect

import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, DeltaPageRank, SSSP, reference
from repro.sim.config import HardwareConfig
from repro.systems import SYSTEMS, make_system
from repro.systems.cpu_galois import CPUGaloisSystem
from repro.systems.emogi import EmogiSystem
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.grus import GrusSystem
from repro.systems.hytgraph import HyTGraphSystem
from repro.systems.imptm_um import ImpTMUMSystem
from repro.systems.subway import SubwaySystem
from repro.transfer.base import EngineKind

from tests.conftest import assert_distances_equal

ALL_SYSTEM_NAMES = sorted(SYSTEMS)


class TestRegistry:
    def test_registry_complete(self):
        assert set(SYSTEMS) == {
            "exptm-f",
            "subway",
            "emogi",
            "imptm-um",
            "grus",
            "galois",
            "hytgraph",
        }

    def test_make_system_unknown(self, small_random_graph):
        with pytest.raises(KeyError):
            make_system("gunrock", small_random_graph)

    def test_make_system_passes_config(self, small_random_graph):
        config = HardwareConfig(gpu_memory_bytes=12345)
        system = make_system("emogi", small_random_graph, config=config)
        assert system.config.gpu_memory_bytes == 12345

    @pytest.mark.parametrize(
        "planner", sorted(SYSTEMS.values(), key=lambda cls: cls.name),
        ids=lambda cls: cls.__name__,
    )
    def test_planner_protocol_is_plan_iteration_of_a_session(self, planner):
        # What is already on a device is the context's business: no
        # planner takes a transfer-state (or any other) planning argument.
        assert list(inspect.signature(planner.plan_iteration).parameters) == ["self", "session"]

    @pytest.mark.parametrize("cache_policy", ["static-prefix", "lru"])
    @pytest.mark.parametrize("system_name", ALL_SYSTEM_NAMES)
    def test_solo_run_amortizes_nothing(self, system_name, cache_policy, medium_rmat_graph):
        # One query per transfer window: every claim is the first one.
        system = make_system(system_name, medium_rmat_graph, cache_policy=cache_policy)
        system.run(SSSP(), source=0)
        assert system.context.amortized_bytes == 0


class TestCrossSystemCorrectness:
    @pytest.mark.parametrize("system_name", ALL_SYSTEM_NAMES)
    def test_sssp(self, system_name, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        expected = reference.sssp_distances(medium_rmat_graph, source)
        result = make_system(system_name, medium_rmat_graph).run(SSSP(), source=source)
        assert result.converged
        assert_distances_equal(result.values, expected)

    @pytest.mark.parametrize("system_name", ALL_SYSTEM_NAMES)
    def test_bfs(self, system_name, medium_power_law_graph):
        graph = medium_power_law_graph.without_weights()
        source = int(np.argmax(graph.out_degrees))
        expected = reference.bfs_levels(graph, source)
        result = make_system(system_name, graph).run(BFS(), source=source)
        assert_distances_equal(result.values, expected)

    @pytest.mark.parametrize("system_name", ALL_SYSTEM_NAMES)
    def test_pagerank(self, system_name, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        expected = reference.pagerank_values(graph)
        result = make_system(system_name, graph).run(DeltaPageRank(tolerance=1e-9))
        np.testing.assert_allclose(result.values, expected, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("system_name", ["subway", "emogi", "hytgraph"])
    def test_cc(self, system_name, medium_power_law_graph):
        graph = medium_power_law_graph.without_weights().symmetrize()
        expected = reference.connected_component_labels(graph)
        result = make_system(system_name, graph).run(ConnectedComponents())
        np.testing.assert_allclose(result.values, expected)


class TestRunResultInvariants:
    @pytest.mark.parametrize("system_name", ALL_SYSTEM_NAMES)
    def test_result_metadata(self, system_name, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = make_system(system_name, medium_rmat_graph).run(SSSP(), source=source)
        assert result.algorithm == "SSSP"
        assert result.graph_name == medium_rmat_graph.name
        assert result.num_iterations == len(result.iterations)
        assert result.total_time == pytest.approx(sum(s.time for s in result.iterations))
        assert result.total_transfer_bytes == sum(s.transfer_bytes for s in result.iterations)

    def test_galois_moves_no_data(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = CPUGaloisSystem(medium_rmat_graph).run(SSSP(), source=source)
        assert result.total_transfer_bytes == 0
        assert result.total_compaction_time == 0.0

    def test_subway_has_compaction_time(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = SubwaySystem(medium_rmat_graph).run(SSSP(), source=source)
        assert result.total_compaction_time > 0

    def test_emogi_has_no_compaction(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = EmogiSystem(medium_rmat_graph).run(SSSP(), source=source)
        assert result.total_compaction_time == 0.0
        for stats in result.iterations:
            assert list(stats.engine_partitions) == [EngineKind.IMP_ZERO_COPY.value]

    def test_um_caching_reduces_transfers_when_graph_fits(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        system = ImpTMUMSystem(graph, config=HardwareConfig())  # 11 GB: everything fits
        result = system.run(DeltaPageRank())
        # After the first iteration the pages are resident: later
        # iterations move (almost) nothing.
        later_bytes = sum(stats.transfer_bytes for stats in result.iterations[1:])
        assert later_bytes < result.iterations[0].transfer_bytes
        assert result.extra["page_cache_stats"]["hit_rate"] > 0.5

    def test_um_small_memory_keeps_retransferring(self, medium_rmat_graph):
        graph = medium_rmat_graph.without_weights()
        tiny = HardwareConfig(gpu_memory_bytes=4 * 4096)
        result = ImpTMUMSystem(graph, config=tiny).run(DeltaPageRank())
        later_bytes = sum(stats.transfer_bytes for stats in result.iterations[1:])
        assert later_bytes > 0

    def test_grus_reports_cache_plan(self, medium_rmat_graph):
        result = GrusSystem(medium_rmat_graph).run(SSSP(), source=int(np.argmax(medium_rmat_graph.out_degrees)))
        assert "cached_vertices" in result.extra
        assert "prefetched_bytes" in result.extra

    def test_grus_small_memory_falls_back_to_zero_copy(self, medium_rmat_graph):
        tiny = HardwareConfig(gpu_memory_bytes=1024)
        result = GrusSystem(medium_rmat_graph, config=tiny).run(
            SSSP(), source=int(np.argmax(medium_rmat_graph.out_degrees))
        )
        assert result.extra["cached_vertices"] < medium_rmat_graph.num_vertices
        assert result.total_transfer_bytes > 0

    def test_exptm_filter_transfers_most(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        filter_result = ExpTMFilterSystem(medium_rmat_graph, num_partitions=16).run(SSSP(), source=source)
        subway_result = SubwaySystem(medium_rmat_graph, num_partitions=16).run(SSSP(), source=source)
        hytgraph_result = HyTGraphSystem(medium_rmat_graph, num_partitions=16).run(SSSP(), source=source)
        assert filter_result.total_transfer_bytes > subway_result.total_transfer_bytes
        assert filter_result.total_transfer_bytes > hytgraph_result.total_transfer_bytes

    def test_subway_multiround_fewer_iterations_than_emogi_for_pagerank(self, medium_power_law_graph):
        graph = medium_power_law_graph.without_weights()
        subway = SubwaySystem(graph).run(DeltaPageRank())
        emogi = EmogiSystem(graph).run(DeltaPageRank())
        assert subway.num_iterations < emogi.num_iterations

    def test_systems_accept_max_iterations(self, medium_rmat_graph):
        source = int(np.argmax(medium_rmat_graph.out_degrees))
        result = EmogiSystem(medium_rmat_graph, max_iterations=2).run(SSSP(), source=source)
        assert result.num_iterations == 2
        assert not result.converged
