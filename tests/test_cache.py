"""Tests of the adaptive device-memory cache subsystem.

Three layers are covered:

1. **Mechanics** — the :class:`CacheManager` byte accounting, counters
   and the three eviction policies in isolation (static prefix pinned
   bitwise to the historical residency, LRU recency, frontier-aware
   scoring/collapse eviction).
2. **Integration** — the HyTGraph engine and the ExpTM-F system billing
   whole-partition transfers through the cache: adaptive policies keep
   per-vertex results bitwise identical while reducing transfer volume
   on transfer-bound workloads.
3. **Serving** — the batch runner's cross-super-iteration reuse: shipped
   partitions stay resident between super-iterations and later queries
   hit the cache instead of re-shipping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.sssp import SSSP
from repro.cache import (
    CACHE_POLICIES,
    CacheManager,
    FrontierAwarePolicy,
    make_policy,
)
from repro.graph.generators import grid_graph, rmat_graph
from repro.graph.partition import ShardedPartitioning, partition_by_count
from repro.runtime.batch import QueryBatchRunner
from repro.sim.config import HardwareConfig
from repro.systems.emogi import EmogiSystem
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.hytgraph import HyTGraphSystem
from repro.systems.subway import SubwaySystem


def build_manager(policy="lru", num_partitions=8, num_devices=2, budget=None, vertices=160):
    graph = rmat_graph(vertices, vertices * 6, seed=9, name="rmat-cache")
    partitioning = partition_by_count(graph, num_partitions)
    sharding = ShardedPartitioning(partitioning, num_devices)
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes, num_devices=num_devices)
    return CacheManager(partitioning, sharding, config, policy=policy, budget_bytes=budget)


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------


class TestPolicyRegistry:
    def test_all_policies_registered(self):
        assert set(CACHE_POLICIES) == {"static-prefix", "lru", "frontier-aware"}

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown cache policy"):
            make_policy("clock")

    def test_policy_instance_passes_through(self):
        policy = FrontierAwarePolicy(decay=0.25)
        assert make_policy(policy) is policy

    def test_frontier_aware_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FrontierAwarePolicy(decay=1.0)
        with pytest.raises(ValueError):
            FrontierAwarePolicy(idle_evict_after=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_manager(budget=-1)


# ----------------------------------------------------------------------
# Static-prefix mechanics (the historical residency, bitwise)
# ----------------------------------------------------------------------


class TestStaticPrefix:
    def test_prefix_pinned_per_device_budget(self):
        manager = build_manager("static-prefix")
        # Recompute the expected prefix by hand, per shard.
        expected = np.zeros(manager.num_partitions, dtype=bool)
        for device in range(manager.num_devices):
            budget = manager.budget_bytes[device]
            for index in manager.sharding[device].partition_indices():
                size = int(manager.partition_bytes[index])
                if size > budget:
                    break
                expected[index] = True
                budget -= size
        assert np.array_equal(manager.resident, expected)
        assert not manager.adaptive

    def test_first_touch_billable_then_free(self):
        manager = build_manager("static-prefix")
        resident = int(np.flatnonzero(manager.resident)[0])
        billable, free = manager.split_billable([resident])
        assert billable == [resident] and free == []
        billable, free = manager.split_billable([resident])
        assert billable == [] and free == [resident]

    def test_reset_forgets_first_touch(self):
        manager = build_manager("static-prefix")
        resident = int(np.flatnonzero(manager.resident)[0])
        manager.split_billable([resident])
        manager.reset()
        billable, _ = manager.split_billable([resident])
        assert billable == [resident]

    def test_fill_and_would_admit_are_inert(self):
        sizes = build_manager("static-prefix").partition_bytes
        manager = build_manager("static-prefix", budget=int(sizes[0]))
        outside = int(np.flatnonzero(~manager.resident)[0])
        manager.fill([outside])
        assert not manager.resident[outside]
        assert manager.would_admit(outside) is False

    def test_default_policy_is_the_static_prefix(self):
        manager = build_manager("static-prefix")
        default = CacheManager(manager.partitioning, manager.sharding, manager.config)
        assert default.policy_name == "static-prefix"
        assert not default.adaptive
        assert np.array_equal(default.resident, manager.resident)


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------


class TestLru:
    def test_fill_admits_until_budget(self):
        manager = build_manager("lru", num_devices=1)
        sizes = manager.partition_bytes
        budget = int(sizes[0] + sizes[1])
        manager = build_manager("lru", num_devices=1, budget=budget)
        manager.fill([0, 1])
        assert manager.resident[0] and manager.resident[1]
        assert manager.used_bytes[0] <= budget

    def test_least_recently_touched_is_evicted(self):
        sizes = build_manager("lru", num_devices=1).partition_bytes
        manager = build_manager("lru", num_devices=1, budget=int(sizes[0] + sizes[1]))
        manager.fill([0])
        manager.fill([1])
        manager.split_billable([0])  # touch 0 -> 1 becomes LRU
        manager.fill([2])
        assert manager.resident[0] and manager.resident[2]
        assert not manager.resident[1]
        assert manager.counters()["evictions"] == 1

    def test_partition_larger_than_budget_never_admitted(self):
        manager = build_manager("lru", num_devices=1, budget=1)
        manager.fill([0])
        assert manager.num_resident == 0

    def test_zero_budget_caches_nothing(self):
        manager = build_manager("lru", budget=0)
        manager.fill(list(range(manager.num_partitions)))
        assert manager.num_resident == 0
        assert manager.resident_bytes == 0

    def test_devices_have_independent_budgets(self):
        manager = build_manager("lru", num_devices=2)
        first_of_each = [int(manager.sharding[d].partition_indices()[0]) for d in range(2)]
        manager.fill(first_of_each)
        assert manager.used_bytes[0] == int(manager.partition_bytes[first_of_each[0]])
        assert manager.used_bytes[1] == int(manager.partition_bytes[first_of_each[1]])


# ----------------------------------------------------------------------
# Frontier-aware mechanics
# ----------------------------------------------------------------------


class TestFrontierAware:
    def _observe(self, manager, active_edges):
        manager.observe_frontier(np.asarray(active_edges, dtype=np.int64))
        manager.begin_iteration()

    def test_collapsed_partition_evicted_after_idle_window(self):
        manager = build_manager("frontier-aware", num_devices=1)
        manager.fill([0])
        hot = np.zeros(manager.num_partitions, dtype=np.int64)
        hot[0] = 50
        self._observe(manager, hot)
        assert manager.resident[0]
        cold = np.zeros(manager.num_partitions, dtype=np.int64)
        cold[1] = 50  # keep the window dirty while partition 0 idles
        self._observe(manager, cold)
        assert manager.resident[0]  # one idle iteration is not collapse
        self._observe(manager, cold)
        assert not manager.resident[0]
        assert manager.counters()["evicted_bytes"] == int(manager.partition_bytes[0])

    def test_active_partition_stays_resident(self):
        manager = build_manager("frontier-aware", num_devices=1)
        manager.fill([0])
        hot = np.zeros(manager.num_partitions, dtype=np.int64)
        hot[0] = 50
        for _ in range(5):
            self._observe(manager, hot)
        assert manager.resident[0]
        assert manager.counters()["evictions"] == 0

    def test_admission_declines_when_residents_are_hotter(self):
        sizes = build_manager("frontier-aware", num_devices=1).partition_bytes
        manager = build_manager("frontier-aware", num_devices=1, budget=int(sizes[0]))
        manager.fill([0])
        hot = np.zeros(manager.num_partitions, dtype=np.int64)
        hot[0] = 1000
        self._observe(manager, hot)
        cold_incoming = np.zeros(manager.num_partitions, dtype=np.int64)
        cold_incoming[0] = 1000
        cold_incoming[1] = 1  # barely active newcomer
        manager.observe_frontier(cold_incoming)
        manager.fill([1])
        assert manager.resident[0]
        assert not manager.resident[1]

    def test_hot_newcomer_displaces_cold_resident(self):
        sizes = build_manager("frontier-aware", num_devices=1).partition_bytes
        manager = build_manager("frontier-aware", num_devices=1, budget=int(sizes[0]))
        manager.fill([0])
        lukewarm = np.zeros(manager.num_partitions, dtype=np.int64)
        lukewarm[0] = 1
        self._observe(manager, lukewarm)
        hot_incoming = np.zeros(manager.num_partitions, dtype=np.int64)
        hot_incoming[1] = 10_000  # window blend makes the newcomer hotter
        manager.observe_frontier(hot_incoming)
        manager.fill([1])
        assert manager.resident[1]
        assert not manager.resident[0]

    def test_reuse_scores_exposed_only_by_frontier_aware(self):
        assert build_manager("frontier-aware").reuse_scores() is not None
        assert build_manager("lru").reuse_scores() is None
        assert build_manager("static-prefix").reuse_scores() is None

    def test_would_admit_is_a_dry_run(self):
        sizes = build_manager("frontier-aware", num_devices=1).partition_bytes
        manager = build_manager("frontier-aware", num_devices=1, budget=int(sizes[0]))
        manager.fill([0])
        lukewarm = np.zeros(manager.num_partitions, dtype=np.int64)
        lukewarm[0] = 1
        self._observe(manager, lukewarm)
        hot_incoming = np.zeros(manager.num_partitions, dtype=np.int64)
        hot_incoming[1] = 10_000
        manager.observe_frontier(hot_incoming)
        assert manager.would_admit(1) is True
        assert manager.resident[0]  # nothing was evicted by the dry run
        assert not manager.resident[1]


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


class TestCounters:
    def test_hit_miss_bytes_accumulate(self):
        manager = build_manager("lru", num_devices=1)
        manager.fill([0])
        manager.split_billable([0, 1])  # 0 hits, 1 is billable
        manager.record_miss([1])
        counters = manager.counters()
        assert counters["hit_bytes"] == int(manager.partition_bytes[0])
        assert counters["miss_bytes"] == int(manager.partition_bytes[1])
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_delta_since_snapshot(self):
        manager = build_manager("lru", num_devices=1)
        manager.fill([0])
        before = manager.snapshot_counters()
        manager.split_billable([0])
        delta = manager.delta(before)
        assert delta["hit_bytes"] == int(manager.partition_bytes[0])
        assert delta["miss_bytes"] == 0

    def test_reset_clears_contents_and_counters(self):
        manager = build_manager("lru", num_devices=1)
        manager.fill([0, 1])
        manager.split_billable([0])
        manager.reset()
        assert manager.num_resident == 0
        assert all(value == 0 for value in manager.counters().values())


# ----------------------------------------------------------------------
# Execution-context wiring
# ----------------------------------------------------------------------


class TestContextWiring:
    def test_static_single_device_has_no_cache(self):
        graph = rmat_graph(300, 1500, seed=3)
        system = ExpTMFilterSystem(graph, config=HardwareConfig())
        assert system.context.cache is None
        assert system.context.cache_policy == "static-prefix"

    def test_adaptive_single_device_builds_cache(self):
        graph = rmat_graph(300, 1500, seed=3)
        system = ExpTMFilterSystem(graph, config=HardwareConfig(), cache_policy="lru")
        assert system.context.cache is not None
        assert system.context.cache.adaptive
        assert system.context.cache_policy == "lru"

    def test_static_multi_device_cache_is_the_static_prefix(self):
        graph = rmat_graph(300, 1500, seed=3)
        config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2).with_devices(2)
        system = ExpTMFilterSystem(graph, config=config)
        assert type(system.context.cache) is CacheManager
        assert not system.context.cache.adaptive
        assert system.context.cache_policy == "static-prefix"

    def test_cache_budget_overrides_device_memory(self):
        graph = rmat_graph(300, 1500, seed=3)
        system = ExpTMFilterSystem(
            graph, config=HardwareConfig(), cache_policy="lru", cache_budget=12345
        )
        assert system.context.cache.budget_bytes == [12345]


# ----------------------------------------------------------------------
# Engine / system integration
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def wavefront_graph():
    return grid_graph(60, 40, weighted=True, seed=3)


@pytest.fixture(scope="module")
def constrained_config(wavefront_graph):
    return HardwareConfig(
        gpu_memory_bytes=wavefront_graph.edge_data_bytes // 6, pcie_bandwidth=1e9
    )


class TestSystemIntegration:
    @pytest.mark.parametrize("policy", ["lru", "frontier-aware"])
    @pytest.mark.parametrize("system_cls", [HyTGraphSystem, ExpTMFilterSystem])
    def test_adaptive_policies_preserve_values(
        self, system_cls, policy, wavefront_graph, constrained_config
    ):
        static = system_cls(wavefront_graph, config=constrained_config)
        adaptive = system_cls(wavefront_graph, config=constrained_config, cache_policy=policy)
        reference = static.run(SSSP(), source=0)
        result = adaptive.run(SSSP(), source=0)
        assert result.converged
        assert np.array_equal(np.asarray(reference.values), np.asarray(result.values))

    def test_exptm_frontier_aware_reduces_transfer_volume(
        self, wavefront_graph, constrained_config
    ):
        static = ExpTMFilterSystem(wavefront_graph, config=constrained_config)
        adaptive = ExpTMFilterSystem(
            wavefront_graph, config=constrained_config, cache_policy="frontier-aware"
        )
        reference = static.run(SSSP(), source=0)
        result = adaptive.run(SSSP(), source=0)
        assert result.total_cache_hit_bytes > 0
        assert result.total_transfer_bytes < reference.total_transfer_bytes

    def test_cache_stats_reported_per_iteration(self, wavefront_graph, constrained_config):
        system = ExpTMFilterSystem(
            wavefront_graph, config=constrained_config, cache_policy="frontier-aware"
        )
        result = system.run(SSSP(), source=0)
        assert result.total_cache_miss_bytes > 0
        assert any(stats.cache_hit_bytes > 0 for stats in result.iterations)
        assert 0.0 < result.cache_hit_rate < 1.0

    def test_static_multi_device_residency_hits_are_reported(self, wavefront_graph):
        config = HardwareConfig(
            gpu_memory_bytes=wavefront_graph.edge_data_bytes // 2, pcie_bandwidth=1e9
        ).with_devices(2)
        system = HyTGraphSystem(wavefront_graph, config=config)
        result = system.run(SSSP(), source=0)
        # The static residency's free re-reads now surface as cache hits.
        assert result.total_cache_hit_bytes > 0

    @pytest.mark.parametrize("system_cls", [EmogiSystem, SubwaySystem])
    def test_non_filter_systems_never_hit_the_cache(
        self, system_cls, wavefront_graph, constrained_config
    ):
        system = system_cls(
            wavefront_graph, config=constrained_config, cache_policy="frontier-aware"
        )
        result = system.run(SSSP(), source=0)
        assert result.converged
        assert result.total_cache_hit_bytes == 0
        assert result.total_cache_miss_bytes == 0

    def test_runs_are_cold_after_reset(self, wavefront_graph, constrained_config):
        system = ExpTMFilterSystem(
            wavefront_graph, config=constrained_config, cache_policy="frontier-aware"
        )
        first = system.run(SSSP(), source=0)
        second = system.run(SSSP(), source=0)
        assert first.total_transfer_bytes == second.total_transfer_bytes
        assert first.per_iteration_times() == second.per_iteration_times()


# ----------------------------------------------------------------------
# Batch serving: cross-super-iteration reuse
# ----------------------------------------------------------------------


class TestBatchServing:
    @pytest.fixture(scope="class")
    def batch_setup(self, wavefront_graph):
        config = HardwareConfig(
            gpu_memory_bytes=wavefront_graph.edge_data_bytes // 6, pcie_bandwidth=5e8
        ).with_devices(2)
        rng = np.random.default_rng(11)
        sources = [int(s) for s in rng.choice(wavefront_graph.num_vertices, 6, replace=False)]
        return wavefront_graph, config, sources

    def _batch(self, batch_setup, policy):
        graph, config, sources = batch_setup
        system = ExpTMFilterSystem(graph, config=config, cache_policy=policy)
        return QueryBatchRunner(system).run([(SSSP(), source) for source in sources])

    def test_cross_super_iteration_reuse_beats_static(self, batch_setup):
        static = self._batch(batch_setup, "static-prefix")
        adaptive = self._batch(batch_setup, "frontier-aware")
        assert adaptive.cache_hit_bytes > 0
        assert adaptive.total_transfer_bytes < static.total_transfer_bytes
        assert adaptive.makespan < static.makespan

    def test_batch_reports_cache_policy_and_traffic(self, batch_setup):
        batch = self._batch(batch_setup, "frontier-aware")
        assert batch.extra["cache_policy"] == "frontier-aware"
        assert batch.cache_miss_bytes > 0
        assert "cache_hit_MB" in batch.summary_row()

    def test_batch_values_match_standalone_under_adaptive_policy(self, batch_setup):
        graph, config, sources = batch_setup
        system = ExpTMFilterSystem(graph, config=config, cache_policy="frontier-aware")
        standalone = [system.run(SSSP(), source=source) for source in sources]
        batch = self._batch(batch_setup, "frontier-aware")
        for alone, batched in zip(standalone, batch.results):
            assert np.array_equal(np.asarray(alone.values), np.asarray(batched.values))
