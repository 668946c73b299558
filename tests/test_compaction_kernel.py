"""Unit tests for the CPU compaction cost model and the kernel time model."""

import numpy as np
import pytest

from repro.graph.partition import partition_by_count
from repro.sim.kernel import KernelModel
from repro.transfer.explicit_compaction import ExplicitCompactionEngine


def _cuts(partitioning, active):
    return np.searchsorted(active, partitioning.vertex_boundaries)


class TestCompactionContents:
    """ExpTM-C ships exactly the active adjacency lists plus their index."""

    def test_compacted_subgraph_matches_source(self, paper_graph, config):
        engine = ExplicitCompactionEngine(paper_graph, config)
        active = np.array([1, 3])
        outcome = engine.transfer_task(active, (0, active.size))
        # b -> {c, d} and d -> {e, f}: four (neighbor, weight) edges.
        packed_edges = paper_graph.neighbors(1).size + paper_graph.neighbors(3).size
        assert packed_edges == 4
        expected = packed_edges * paper_graph.edge_bytes_per_edge + active.size * config.index_entry_bytes
        assert outcome.bytes_transferred == expected
        assert outcome.cpu_time == pytest.approx(expected / config.cpu_compaction_throughput)
        assert outcome.transfer_time == engine.pcie.explicit_copy_time(expected)
        assert not outcome.overlapped

    def test_compaction_unweighted(self, config):
        from repro.graph.generators import uniform_random_graph

        graph = uniform_random_graph(50, 300, seed=5)
        assert not graph.is_weighted
        engine = ExplicitCompactionEngine(graph, config)
        partitioning = partition_by_count(graph, 4)
        active = np.arange(0, 50, 2)
        outcome = engine.transfer_task(active, _cuts(partitioning, active))
        # Neighbors only: no weight column rides along.
        assert outcome.bytes_transferred == (
            int(graph.out_degrees[::2].sum()) * graph.edge_bytes_per_edge
            + active.size * config.index_entry_bytes
        )

    def test_empty_active_set(self, paper_graph, config):
        engine = ExplicitCompactionEngine(paper_graph, config)
        partitioning = partition_by_count(paper_graph, 3)
        empty = np.array([], dtype=np.int64)
        outcome = engine.transfer_task(empty, _cuts(partitioning, empty))
        assert outcome.bytes_transferred == 0
        assert outcome.cpu_time == 0.0 and outcome.transfer_time == 0.0
        # A partition without active vertices packs nothing of its own.
        active = partitioning.vertex_boundaries[:1]
        task = engine.transfer_task(active, _cuts(partitioning, active))
        alone = engine.transfer_task(active, (0, active.size))
        assert (task.bytes_transferred, task.cpu_time, task.transfer_time) == (
            alone.bytes_transferred, alone.cpu_time, alone.transfer_time
        )


class TestCompactionCost:
    def test_compaction_slower_than_pcie(self, config):
        # The paper's premise: compaction throughput is well below the PCIe
        # explicit-copy bandwidth, otherwise it would always be worth it.
        assert config.cpu_compaction_throughput < config.pcie_bandwidth


class TestKernelModel:
    def test_zero_work(self, config):
        model = KernelModel(config)
        assert model.kernel_time(0, num_kernels=0) == 0.0

    def test_launch_overhead_only(self, config):
        model = KernelModel(config)
        assert model.kernel_time(0, num_kernels=3) == pytest.approx(3 * config.gpu_kernel_launch_overhead)

    def test_monotonic_in_edges(self, config):
        model = KernelModel(config)
        times = [model.kernel_time(edges) for edges in (10, 1000, 100000, 10_000_000)]
        assert all(earlier < later for earlier, later in zip(times, times[1:]))

    def test_more_kernels_cost_more(self, config):
        model = KernelModel(config)
        assert model.kernel_time(1000, num_kernels=4) > model.kernel_time(1000, num_kernels=1)

    def test_occupancy_saturates(self, config):
        model = KernelModel(config)
        assert model.occupancy(1 << 20) == 1.0
        assert 0.0 < model.occupancy(10) < 1.0

    def test_large_kernel_matches_peak_throughput(self, config):
        model = KernelModel(config)
        edges = 1 << 26
        assert model.kernel_time(edges) == pytest.approx(edges / config.gpu_edge_throughput, rel=0.01)

    def test_gpu_much_faster_than_cpu(self, config):
        model = KernelModel(config)
        edges = 1 << 22
        assert model.cpu_processing_time(edges) > 10 * model.kernel_time(edges)

    def test_cpu_zero_edges(self, config):
        assert KernelModel(config).cpu_processing_time(0) == 0.0

    def test_device_scan_time_positive(self, config):
        model = KernelModel(config)
        assert model.device_scan_time(0) == 0.0
        assert model.device_scan_time(256) > 0.0
