"""Unit tests for the CPU compaction prices and the kernel time model."""

import math

import numpy as np
import pytest

from repro.graph.partition import partition_by_count
from repro.runtime.context import ExecutionContext
from repro.sim.config import HardwareConfig
from repro.sim.kernel import KernelModel


def _price(graph, config, active, num_partitions):
    """A task of every partition: packed bytes, CPU and copy seconds added left to right."""
    context = ExecutionContext(graph, partition_by_count(graph, num_partitions), config)
    pending = np.zeros(graph.num_vertices, dtype=bool)
    pending[active] = True
    totals = context.frontier_totals(pending)
    packed, cpu, copy = context.compaction_prices(totals.active_edges, totals.active_vertices)
    return int(packed.sum()), float(np.add.accumulate(cpu)[-1]), float(np.add.accumulate(copy)[-1])


class TestCompactionContents:
    """ExpTM-C ships exactly the active adjacency lists plus their index."""

    def test_compacted_subgraph_matches_source(self, paper_graph, config):
        active = np.array([1, 3])
        moved, cpu, copy = _price(paper_graph, config, active, 1)
        # b -> {c, d} and d -> {e, f}: four (neighbor, weight) edges.
        packed_edges = paper_graph.neighbors(1).size + paper_graph.neighbors(3).size
        assert packed_edges == 4
        expected = packed_edges * paper_graph.edge_bytes_per_edge + active.size * config.index_entry_bytes
        assert moved == expected
        assert cpu == pytest.approx(expected / config.cpu_compaction_throughput)
        assert copy == math.ceil(expected / config.tlp_payload_bytes) * config.tlp_round_trip_time

    def test_compaction_unweighted(self, config):
        from repro.graph.generators import uniform_random_graph

        graph = uniform_random_graph(50, 300, seed=5)
        assert not graph.is_weighted
        active = np.arange(0, 50, 2)
        moved, _, _ = _price(graph, config, active, 4)
        # Neighbors only: no weight column rides along.
        assert moved == (
            int(graph.out_degrees[::2].sum()) * graph.edge_bytes_per_edge
            + active.size * config.index_entry_bytes
        )

    def test_packs_the_csr_bytes_per_edge_whatever_the_value_width(self):
        # Formula 2's d1 is the CSR's edge bytes (what a filter ships per
        # edge), not the vertex-value width: with 8-byte values on an
        # unweighted graph a fully active partition packs its edge bytes
        # plus its index entries, and the estimate is the billed copy.
        from repro.core.cost_model import CostModel
        from repro.graph.generators import uniform_random_graph

        config = HardwareConfig(vertex_value_bytes=8)
        graph = uniform_random_graph(200, 3000, seed=5)
        assert not graph.is_weighted
        context = ExecutionContext(graph, partition_by_count(graph, 4), config)
        pending = np.ones(graph.num_vertices, dtype=bool)
        costs = CostModel(context).estimate(pending)
        totals = costs.totals
        packed, _, copy = context.compaction_prices(totals.active_edges, totals.active_vertices)
        partitioning = context.partitioning
        sizes = np.diff(partitioning.vertex_boundaries)
        assert packed.tolist() == (partitioning.edge_bytes + sizes * config.index_entry_bytes).tolist()
        assert costs.compaction_cost.tolist() == copy.tolist()

    def test_empty_active_set(self, paper_graph, config):
        empty = np.array([], dtype=np.int64)
        assert _price(paper_graph, config, empty, 3) == (0, 0.0, 0.0)
        # A partition without active vertices packs nothing of its own.
        partitioning = partition_by_count(paper_graph, 3)
        active = partitioning.vertex_boundaries[:1]
        assert _price(paper_graph, config, active, 3) == _price(paper_graph, config, active, 1)


class TestCompactionCost:
    def test_compaction_slower_than_pcie(self, config):
        # The paper's premise: compaction throughput is well below the PCIe
        # explicit-copy bandwidth, otherwise it would always be worth it.
        assert config.cpu_compaction_throughput < config.pcie_bandwidth


def kernel_time_oracle(config, edges):
    """One launch over ``edges`` edges, in plain Python: occupancy ramps to 1 at 2**16 edges."""
    saturation = 1 << 16
    occupancy = 1.0 if edges >= saturation else 0.05 + (1.0 - 0.05) * (edges / saturation)
    return config.gpu_kernel_launch_overhead + edges / (config.gpu_edge_throughput * occupancy)


class TestKernelModel:
    def test_launch_overhead_only(self, config):
        assert KernelModel(config).kernel_times([0]).tolist() == [config.gpu_kernel_launch_overhead]

    def test_monotonic_in_edges(self, config):
        times = KernelModel(config).kernel_times([10, 1000, 100000, 10_000_000]).tolist()
        assert all(earlier < later for earlier, later in zip(times, times[1:]))

    def test_entries_match_the_formula_oracle(self, config):
        edges = [0, 1, 7, 1000, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 10_000_000, 1 << 40]
        assert KernelModel(config).kernel_times(np.array(edges)).tolist() == [
            kernel_time_oracle(config, count) for count in edges
        ]

    def test_occupancy_saturates(self, config):
        # At or past saturation a launch runs at peak throughput; below
        # it the same edges take longer than at peak.
        model = KernelModel(config)
        launch, peak = config.gpu_kernel_launch_overhead, config.gpu_edge_throughput
        saturated, small = model.kernel_times([1 << 20, 10]).tolist()
        assert saturated == launch + (1 << 20) / peak
        assert small > launch + 10 / peak

    def test_large_kernel_matches_peak_throughput(self, config):
        edges = 1 << 26
        [seconds] = KernelModel(config).kernel_times([edges]).tolist()
        assert seconds == pytest.approx(edges / config.gpu_edge_throughput, rel=0.01)

    def test_gpu_much_faster_than_cpu(self, config):
        model = KernelModel(config)
        edges = 1 << 22
        assert model.cpu_processing_time(edges) > 10 * model.kernel_times([edges])[0]

    def test_cpu_zero_edges(self, config):
        assert KernelModel(config).cpu_processing_time(0) == 0.0

    def test_device_scan_time_positive(self, config):
        model = KernelModel(config)
        assert model.device_scan_time(0) == 0.0
        assert model.device_scan_time(256) > 0.0
