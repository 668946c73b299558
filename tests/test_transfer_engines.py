"""Unit tests for the four transfer engines (Figure 2)."""

import numpy as np
import pytest

from repro.graph.partition import partition_by_count
from repro.sim.config import HardwareConfig
from repro.transfer.base import EngineKind
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.explicit_filter import ExplicitFilterEngine
from repro.transfer.unified_memory import UnifiedMemoryEngine
from repro.transfer.zero_copy import ZeroCopyEngine


@pytest.fixture
def graph(medium_power_law_graph):
    return medium_power_law_graph


@pytest.fixture
def partitioning(graph):
    return partition_by_count(graph, 8)


def active_in_partition(graph, partition, stride=2):
    vertices = np.arange(partition.vertex_start, partition.vertex_end, stride)
    return vertices[graph.out_degrees[vertices] > 0]


class TestExplicitFilter:
    def test_transfers_whole_partition(self, graph, partitioning, config):
        engine = ExplicitFilterEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition)
        outcome = engine.transfer(partition, active)
        assert outcome.engine == EngineKind.EXP_FILTER
        assert outcome.bytes_transferred == partition.edge_bytes
        assert outcome.transfer_time > 0
        assert not outcome.overlapped
        assert outcome.cpu_time == 0.0

    def test_inactive_partition_filtered_out(self, graph, partitioning, config):
        engine = ExplicitFilterEngine(graph, config)
        outcome = engine.transfer(partitioning[0], np.array([], dtype=np.int64))
        assert outcome.bytes_transferred == 0
        assert outcome.transfer_time == 0.0

    def test_redundant_bytes_reported(self, graph, partitioning, config):
        engine = ExplicitFilterEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition, stride=5)
        outcome = engine.transfer(partition, active)
        # A sparse frontier still ships every edge: the bytes beyond the
        # active edges' own are the filter's redundancy (Figure 3a).
        active_edge_bytes = int(graph.out_degrees[active].sum()) * graph.edge_bytes_per_edge
        assert outcome.bytes_transferred - active_edge_bytes > 0

    def test_cost_independent_of_active_count(self, graph, partitioning, config):
        # Filter ships the whole partition whether 1 or 100 vertices are
        # active — the redundancy problem of Figure 3(a).
        engine = ExplicitFilterEngine(graph, config)
        partition = partitioning[0]
        single = engine.transfer(partition, active_in_partition(graph, partition)[:1])
        many = engine.transfer(partition, active_in_partition(graph, partition))
        assert single.bytes_transferred == many.bytes_transferred
        assert single.transfer_time == many.transfer_time


class TestExplicitCompaction:
    def test_bytes_match_formula(self, graph, partitioning, config):
        engine = ExplicitCompactionEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition)
        outcome = engine.transfer(partition, active)
        d1 = graph.edge_bytes_per_edge
        expected = int(graph.out_degrees[active].sum()) * d1 + active.size * config.index_entry_bytes
        assert outcome.bytes_transferred == expected
        assert outcome.cpu_time > 0
        assert not outcome.overlapped

    def test_less_data_than_filter_when_sparse(self, graph, partitioning, config):
        partition = partitioning[0]
        active = active_in_partition(graph, partition, stride=7)
        filter_bytes = ExplicitFilterEngine(graph, config).transfer(partition, active).bytes_transferred
        compaction_bytes = ExplicitCompactionEngine(graph, config).transfer(partition, active).bytes_transferred
        assert compaction_bytes < filter_bytes

    def test_empty_active(self, graph, partitioning, config):
        engine = ExplicitCompactionEngine(graph, config)
        outcome = engine.transfer(partitioning[0], np.array([], dtype=np.int64))
        assert outcome.bytes_transferred == 0
        assert outcome.cpu_time == 0.0


class TestZeroCopy:
    def test_overlapped_and_fine_grained(self, graph, partitioning, config):
        engine = ZeroCopyEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition)
        outcome = engine.transfer(partition, active)
        assert outcome.engine == EngineKind.IMP_ZERO_COPY
        assert outcome.overlapped
        assert outcome.cpu_time == 0.0
        access = engine.pcie.zero_copy_access(
            graph.out_degrees[active],
            start_bytes=graph.row_offset[active] * graph.edge_bytes_per_edge,
            value_bytes=graph.edge_bytes_per_edge,
        )
        assert access.num_requests >= active.size
        assert outcome.transfer_time == access.time
        assert outcome.bytes_transferred == int(graph.out_degrees[active].sum()) * graph.edge_bytes_per_edge

    def test_empty_active(self, graph, partitioning, config):
        engine = ZeroCopyEngine(graph, config)
        outcome = engine.transfer(partitioning[0], np.array([], dtype=np.int64))
        assert outcome.bytes_transferred == 0

    def test_scales_with_active_set(self, graph, partitioning, config):
        engine = ZeroCopyEngine(graph, config)
        partition = partitioning[0]
        few = engine.transfer(partition, active_in_partition(graph, partition, stride=8))
        many = engine.transfer(partition, active_in_partition(graph, partition, stride=1))
        assert few.bytes_transferred <= many.bytes_transferred
        assert few.transfer_time <= many.transfer_time


class TestUnifiedMemory:
    def test_first_access_faults_then_hits(self, graph, partitioning, config):
        engine = UnifiedMemoryEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition)
        cold = engine.transfer(partition, active)
        cold_faults, cold_hits = engine.cache.stats.faults, engine.cache.stats.hits
        assert cold_faults > 0
        assert cold.bytes_transferred == cold_faults * config.um_page_bytes
        warm = engine.transfer(partition, active)
        assert engine.cache.stats.faults == cold_faults
        assert engine.cache.stats.hits > cold_hits
        assert warm.bytes_transferred == 0
        assert warm.transfer_time == 0.0

    def test_reset_clears_cache(self, graph, partitioning, config):
        engine = UnifiedMemoryEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition)
        first = engine.transfer(partition, active)
        engine.reset()
        assert engine.cache.stats.faults == 0 and engine.cache.resident_pages == 0
        again = engine.transfer(partition, active)
        assert engine.cache.stats.faults > 0
        assert again.bytes_transferred == first.bytes_transferred > 0

    def test_small_cache_evicts(self, graph, partitioning):
        config = HardwareConfig(gpu_memory_bytes=2 * 4096)
        engine = UnifiedMemoryEngine(graph, config)
        for partition in partitioning:
            active = active_in_partition(graph, partition)
            if active.size:
                engine.transfer(partition, active)
        assert engine.cache.stats.evictions > 0

    def test_transfers_whole_pages(self, graph, partitioning, config):
        engine = UnifiedMemoryEngine(graph, config)
        partition = partitioning[0]
        active = active_in_partition(graph, partition, stride=11)
        outcome = engine.transfer(partition, active)
        assert outcome.bytes_transferred % config.um_page_bytes == 0
        # Page granularity moves at least as much data as the active edges.
        assert outcome.bytes_transferred >= int(graph.out_degrees[active].sum()) * graph.edge_bytes_per_edge or engine.cache.stats.hits > 0

    def test_empty_active(self, graph, partitioning, config):
        engine = UnifiedMemoryEngine(graph, config)
        outcome = engine.transfer(partitioning[0], np.array([], dtype=np.int64))
        assert outcome.bytes_transferred == 0
