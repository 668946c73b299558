"""Unit tests for the UM page cache and static-prefix residency budgets."""

import numpy as np
import pytest

from repro.sim.memory import PageCache


class TestPageCache:
    def test_cold_accesses_fault(self):
        cache = PageCache(capacity_pages=10)
        result = cache.access(np.array([1, 2, 3]))
        assert result.faults == 3
        assert result.hits == 0
        assert cache.resident_pages == 3

    def test_warm_accesses_hit(self):
        cache = PageCache(capacity_pages=10)
        cache.access(np.array([1, 2, 3]))
        result = cache.access(np.array([1, 2, 3]))
        assert result.hits == 3
        assert result.faults == 0

    def test_lru_eviction_order(self):
        cache = PageCache(capacity_pages=2)
        cache.access(np.array([1, 2]))
        cache.access(np.array([1]))  # 2 becomes least recently used
        result = cache.access(np.array([3]))
        assert result.evictions == 1
        # 1 and 3 stay resident (two hits, no eviction); 2 was the victim.
        again = cache.access(np.array([1, 3]))
        assert (again.hits, again.faults, again.evictions) == (2, 0, 0)
        assert cache.access(np.array([2])).faults == 1

    def test_working_set_larger_than_cache_thrashes(self):
        # Cyclic access over a working set one page larger than the cache
        # gives zero hits under LRU — the unified-memory pathology on
        # graphs that almost fit (Section VII-B2).
        cache = PageCache(capacity_pages=4)
        pages = np.arange(5)
        cache.access(pages)
        for _ in range(3):
            result = cache.access(pages)
            assert result.hits == 0
            assert result.faults == 5

    def test_zero_capacity_never_caches(self):
        cache = PageCache(capacity_pages=0)
        result = cache.access(np.array([1, 2]))
        assert result.faults == 2
        assert cache.resident_pages == 0

    def test_stats_accumulate(self):
        cache = PageCache(capacity_pages=2)
        cache.access(np.array([1, 2]))
        cache.access(np.array([1, 3]))
        assert cache.stats.accesses == 4
        assert cache.stats.hits == 1
        assert cache.stats.faults == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(-1)


class TestDeviceMemoryBudget:
    """Device-memory accounting: the cache's per-device byte budget."""

    def _manager(self, num_devices=1, budget=None):
        from repro.cache import CacheManager
        from repro.graph.generators import rmat_graph
        from repro.graph.partition import ShardedPartitioning, partition_by_count
        from repro.sim.config import HardwareConfig

        graph = rmat_graph(160, 960, seed=9, name="rmat-budget")
        partitioning = partition_by_count(graph, 8)
        sharding = ShardedPartitioning(partitioning, num_devices)
        config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes, num_devices=num_devices)
        return CacheManager(partitioning, sharding, config, policy="lru", budget_bytes=budget)

    def test_default_budget_is_device_memory(self):
        manager = self._manager(num_devices=2)
        assert manager.per_device_budget == manager.config.gpu_memory_bytes
        assert manager.budget_bytes == [manager.config.gpu_memory_bytes] * 2
        assert manager.used_bytes == [0, 0]

    def test_set_budget_evicts_trailing_partitions_first(self):
        manager = self._manager()
        manager.fill(list(range(manager.num_partitions)))
        assert manager.resident.all()
        keep = int(manager.partition_bytes[:3].sum())
        manager.set_budget(keep)
        assert np.flatnonzero(manager.resident).tolist() == [0, 1, 2]
        assert manager.used_bytes == [keep]
        counters = manager.counters()
        assert counters["evictions"] == manager.num_partitions - 3
        assert counters["evicted_bytes"] == int(manager.partition_bytes[3:].sum())

    def test_set_budget_rejects_negative(self):
        manager = self._manager()
        manager.fill([0])
        with pytest.raises(ValueError, match="non-negative"):
            manager.set_budget(-1)
        assert manager.budget_bytes == [manager.per_device_budget]
        assert manager.resident[0]

    def test_used_bytes_track_residency(self):
        sizes = self._manager().partition_bytes
        manager = self._manager(num_devices=2, budget=int(sizes.max() + sizes.min()))
        rng = np.random.default_rng(1)
        for _ in range(40):
            touched = rng.choice(manager.num_partitions, size=3, replace=False).tolist()
            billable, _ = manager.split_billable(touched)
            manager.fill(billable)
            for device in range(2):
                on_device = manager.resident & (manager.device_of == device)
                assert manager.used_bytes[device] == int(manager.partition_bytes[on_device].sum())
                assert manager.used_bytes[device] <= manager.budget_bytes[device]


class TestShardResidencyBoundaries:
    """Budget edge cases of the static-prefix residency."""

    def _residency(self, budget_divisor=None, budget=None):
        from repro.graph.generators import rmat_graph
        from repro.graph.partition import ShardedPartitioning, partition_by_count
        from repro.sim.config import HardwareConfig
        from repro.cache import CacheManager

        graph = rmat_graph(240, 1600, seed=4, name="rmat-res")
        partitioning = partition_by_count(graph, 8)
        sharding = ShardedPartitioning(partitioning, 2)
        if budget is None:
            budget = (
                graph.edge_data_bytes // budget_divisor if budget_divisor else graph.edge_data_bytes
            )
        config = HardwareConfig(gpu_memory_bytes=budget, num_devices=2)
        return CacheManager(partitioning, sharding, config, policy="static-prefix"), partitioning

    def test_zero_budget_pins_nothing(self):
        residency, _ = self._residency(budget=0)
        assert residency.num_resident == 0
        billable, free = residency.split_billable([0, 1])
        assert billable == [0, 1] and free == []

    def test_budget_smaller_than_one_partition_pins_nothing(self):
        _, partitioning = self._residency()
        smallest = min(partitioning[p].edge_bytes for p in range(partitioning.num_partitions))
        residency, _ = self._residency(budget=smallest - 1)
        assert residency.num_resident == 0

    def test_budget_larger_than_whole_shard_pins_everything(self):
        _, partitioning = self._residency()
        total = sum(partition.edge_bytes for partition in partitioning)
        residency, partitioning = self._residency(budget=10 * total)
        assert residency.num_resident == partitioning.num_partitions
        # Everything is billed exactly once, then free.
        indices = list(range(partitioning.num_partitions))
        first, _ = residency.split_billable(indices)
        assert first == indices
        again, free = residency.split_billable(indices)
        assert again == [] and free == indices

    def test_prefix_stops_at_first_overflowing_partition(self):
        residency, partitioning = self._residency(budget_divisor=3)
        # Residency is a per-shard prefix: within each shard, once a
        # partition is skipped nothing after it is pinned.
        for device in range(2):
            shard_indices = list(residency.sharding[device].partition_indices())
            flags = [bool(residency.resident[i]) for i in shard_indices]
            if False in flags:
                first_gap = flags.index(False)
                assert not any(flags[first_gap:])
