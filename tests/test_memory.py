"""Unit tests for device memory accounting and the UM page cache."""

import numpy as np
import pytest

from repro.sim.memory import DeviceMemory, PageCache


class TestDeviceMemory:
    def test_allocate_and_free(self):
        memory = DeviceMemory(1000)
        memory.allocate("vertex-data", 400)
        assert memory.used_bytes == 400
        assert memory.free_bytes == 600
        memory.free("vertex-data")
        assert memory.used_bytes == 0

    def test_oversubscription_raises(self):
        memory = DeviceMemory(100)
        with pytest.raises(MemoryError):
            memory.allocate("edges", 200)

    def test_duplicate_label_rejected(self):
        memory = DeviceMemory(100)
        memory.allocate("a", 10)
        with pytest.raises(ValueError):
            memory.allocate("a", 10)

    def test_free_unknown_label(self):
        with pytest.raises(KeyError):
            DeviceMemory(10).free("missing")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DeviceMemory(-1)
        with pytest.raises(ValueError):
            DeviceMemory(10).allocate("x", -5)

    def test_can_fit_and_contains(self):
        memory = DeviceMemory(100)
        memory.allocate("a", 60)
        assert memory.can_fit(40)
        assert not memory.can_fit(41)
        assert "a" in memory
        assert memory.allocation("a") == 60


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
        assert cache.is_resident(1)
        assert cache.is_resident(3)
        assert not cache.is_resident(2)

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

    def test_pin_stops_when_full(self):
        cache = PageCache(capacity_pages=3)
        inserted = cache.pin(np.arange(10))
        assert inserted == 3
        assert cache.resident_pages == 3
        # Pinned pages do not count as faults.
        assert cache.stats.faults == 0

    def test_pin_skips_resident(self):
        cache = PageCache(capacity_pages=5)
        cache.access(np.array([1]))
        assert cache.pin(np.array([1, 2])) == 1

    def test_clear(self):
        cache = PageCache(capacity_pages=5)
        cache.access(np.array([1, 2]))
        cache.clear()
        assert cache.resident_pages == 0

    def test_stats_accumulate(self):
        cache = PageCache(capacity_pages=2)
        cache.access(np.array([1, 2]))
        cache.access(np.array([1, 3]))
        assert cache.stats.accesses == 4
        assert cache.stats.hits == 1
        assert cache.stats.faults == 3
        assert cache.stats.hit_rate == pytest.approx(0.25)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PageCache(-1)


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
