"""Tests of the multi-GPU sharded execution layer.

Three guarantees anchor the layer:

1. ``num_devices=1`` is a pure dispatch — single-device runs are bitwise
   identical to the original engine for all five algorithms and every
   system that grew a multi-device path.
2. On a transfer-bound workload, adding devices never increases the
   simulated makespan: shard residency converts aggregate device memory
   into skipped transfers, which outweighs the boundary-sync overhead.
3. The boundary-vertex synchronisation accounting is exact — checked
   against a hand-computed BFS on the paper's Figure 1 graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.sssp import SSSP
from repro.bench.workloads import build_workload
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.graph.partition import ShardedPartitioning, partition_by_count
from repro.runtime.context import MultiDeviceScheduler
from repro.sim.config import INTERCONNECT_PRESETS, HardwareConfig
from repro.sim.streams import StreamTask
from repro.systems.emogi import EmogiSystem
from repro.systems.hytgraph import HyTGraphSystem

# The (algorithm, system, device-count) grid is shared with the
# bitwise-equivalence fixture generator so the two suites cannot drift.
from tests.data.generate_runtime_equivalence import ALGORITHMS as _ALGORITHM_GRID
from tests.data.generate_runtime_equivalence import SYSTEMS as _SYSTEM_GRID

ALL_ALGORITHMS = _ALGORITHM_GRID
MULTI_SYSTEMS = [system_cls for _, system_cls in _SYSTEM_GRID]


def _run(system_cls, graph, config, algorithm_cls, source):
    system = system_cls(graph, config=config)
    kwargs = {} if source is None else {"source": source}
    return system.run(algorithm_cls(), **kwargs)


# ----------------------------------------------------------------------
# (a) num_devices=1 is bitwise identical to the original engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,algorithm_cls,source", ALL_ALGORITHMS)
@pytest.mark.parametrize("system_cls", MULTI_SYSTEMS)
def test_single_device_bitwise_identical(name, algorithm_cls, source, system_cls):
    graph = rmat_graph(600, 4800, seed=13, weighted=True, name="rmat")
    plain = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2)
    explicit = plain.with_devices(1)

    baseline = _run(system_cls, graph, plain, algorithm_cls, source)
    single = _run(system_cls, graph, explicit, algorithm_cls, source)

    assert np.array_equal(np.asarray(baseline.values), np.asarray(single.values))
    assert baseline.per_iteration_times() == single.per_iteration_times()
    assert baseline.total_transfer_bytes == single.total_transfer_bytes
    assert single.total_interconnect_bytes == 0
    assert single.total_sync_time == 0.0


def test_single_device_is_the_trivial_sharded_case():
    # One device is not a separate code path: the context holds one
    # shard spanning every partition, no residency and no sync overhead.
    graph = rmat_graph(200, 1000, seed=3)
    system = HyTGraphSystem(graph, config=HardwareConfig())
    context = system.engine.context
    assert system.context is context
    assert not context.is_multi_device
    assert context.sharding.num_devices == 1
    shard = context.sharding[0]
    assert (shard.vertex_start, shard.vertex_end) == (0, graph.num_vertices)
    assert shard.num_partitions == system.engine.partitioning.num_partitions
    assert context.cache is None
    assert context.num_resident_partitions == 0


def test_systems_without_multi_device_path_refuse_devices():
    from repro.systems.grus import GrusSystem

    graph = rmat_graph(200, 1000, seed=3)
    with pytest.raises(ValueError, match="no multi-device execution path"):
        GrusSystem(graph, config=HardwareConfig().with_devices(2))


# ----------------------------------------------------------------------
# (b) makespan never increases 1 -> 2 devices on a transfer-bound workload
# ----------------------------------------------------------------------


def test_makespan_non_increasing_on_transfer_bound_workload():
    # PCIe is throttled far below the kernel's edge throughput, and one
    # device's memory holds only half the edge data: the workload is
    # dominated by host-to-device transfers.  Sharding across 2 (and 4)
    # devices makes the whole graph shard-resident, so the repeated
    # transfers disappear and the makespan must not grow despite the
    # per-iteration boundary synchronisation.
    graph = rmat_graph(2000, 20000, seed=5, name="rmat")
    base = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)

    single = _run(HyTGraphSystem, graph, base, DeltaPageRank, None)
    dual = _run(HyTGraphSystem, graph, base.with_devices(2), DeltaPageRank, None)
    quad = _run(HyTGraphSystem, graph, base.with_devices(4), DeltaPageRank, None)

    assert dual.total_time <= single.total_time
    assert quad.total_time <= single.total_time
    # The win comes from skipped transfers, not from accounting holes.
    assert dual.total_transfer_bytes < single.total_transfer_bytes
    assert dual.total_interconnect_bytes > 0
    assert dual.converged and quad.converged


def test_hytgraph_scales_on_the_uk_stand_in():
    # The multi-GPU claim on a paper dataset: shard residency makes 2 and
    # 4 devices no slower than 1 and cuts host-PCIe traffic.  It needs a
    # graph that oversubscribes one device: at scale 0.05, SSSP at 4
    # devices runs at 0.95x, so the claim is pinned at 0.5.
    for algorithm in ("pagerank", "sssp"):
        runs = {
            devices: build_workload("UK", algorithm, scale=0.5, num_devices=devices).run("hytgraph")
            for devices in (1, 2, 4)
        }
        for devices in (2, 4):
            assert runs[devices].total_time <= runs[1].total_time, (algorithm, devices)
            assert runs[devices].total_transfer_bytes < runs[1].total_transfer_bytes, (algorithm, devices)
        assert runs[1].total_interconnect_bytes == 0
        assert runs[2].total_interconnect_bytes > 0


def test_shard_residency_reported():
    graph = rmat_graph(2000, 20000, seed=5, name="rmat")
    base = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)
    system = HyTGraphSystem(graph, config=base.with_devices(2))
    result = system.run(DeltaPageRank())
    assert result.extra["num_devices"] == 2
    assert result.extra["interconnect"] == "nvlink"
    assert result.extra["resident_partitions"] > 0


# ----------------------------------------------------------------------
# (c) boundary-sync byte accounting on a hand-computed fixture
# ----------------------------------------------------------------------


def test_boundary_sync_bytes_hand_computed(paper_graph):
    """BFS from vertex ``a`` on the Figure 1 graph, 2 devices.

    ``partition_by_count(graph, 3)`` yields vertex ranges [0,2), [2,4),
    [4,6) with 4/4/2 edges; byte-balanced sharding puts partition 0 on
    device 0 and partitions 1-2 on device 1, so device 0 owns vertices
    {a,b} and device 1 owns {c,d,e,f}.

    * Iteration 0 processes {a}; it activates b (local) and c (remote)
      -> 1 delta message = 12 bytes (8-byte index entry + 4-byte value).
    * Iteration 1: device 0 processes {b} first: dist(c) cannot improve,
      dist(d) does -> d is remote -> 1 message.  Device 1 then processes
      {c}: dist(d) is already 2 (global values), dist(e) improves but e
      is local -> 0 messages.  Total 12 bytes.
    * Iterations 2 and 3 only activate vertices inside device 1's shard
      -> 0 bytes, but the sync barrier latency is still charged.
    """
    config = HardwareConfig().with_devices(2)
    system = EmogiSystem(paper_graph, config=config, num_partitions=3)

    sharding = system.sharding
    assert [(shard.vertex_start, shard.vertex_end) for shard in sharding] == [(0, 2), (2, 6)]

    result = system.run(BFS(), source=0)
    assert result.converged
    np.testing.assert_array_equal(result.values, [0.0, 1.0, 1.0, 2.0, 2.0, 3.0])

    per_update = config.boundary_update_bytes
    assert per_update == 12
    assert [stats.interconnect_bytes for stats in result.iterations] == [12, 12, 0, 0]

    bandwidth = config.interconnect_bandwidth
    latency = config.interconnect_latency
    expected_sync = [latency + 12 / bandwidth, latency + 12 / bandwidth, latency, latency]
    assert np.allclose([stats.sync_time for stats in result.iterations], expected_sync)
    assert result.total_interconnect_bytes == 24


# ----------------------------------------------------------------------
# Sharding and scheduler building blocks
# ----------------------------------------------------------------------


def test_sharded_partitioning_tiles_and_balances():
    graph = uniform_random_graph(500, 4000, seed=9)
    partitioning = partition_by_count(graph, 16)
    sharding = ShardedPartitioning(partitioning, 4)

    assert sharding.num_devices == 4
    assert sharding[0].vertex_start == 0
    assert sharding[-1].vertex_end == graph.num_vertices
    for left, right in zip(sharding.shards, sharding.shards[1:]):
        assert left.vertex_end == right.vertex_start
        assert left.partition_end == right.partition_start

    vertices = np.arange(graph.num_vertices)
    split = sharding.split_sorted_vertices(vertices)
    for shard in sharding:
        np.testing.assert_array_equal(
            split[shard.device], np.arange(shard.vertex_start, shard.vertex_end)
        )
    assert sum(part.size for part in split) == graph.num_vertices

    # Byte balance: no shard exceeds its fair share by more than the
    # largest single partition (contiguity makes that the bound).
    per_partition = partitioning.bytes_per_partition()
    fair = per_partition.sum() / 4
    for shard in sharding:
        assert shard.edge_bytes <= fair + per_partition.max()


def test_more_devices_than_partitions():
    graph = uniform_random_graph(60, 300, seed=4)
    partitioning = partition_by_count(graph, 2)
    sharding = ShardedPartitioning(partitioning, 4)
    assert sum(shard.num_partitions for shard in sharding) == 2
    assert sum(shard.num_partitions == 0 for shard in sharding) == 2
    assert sum(shard.num_vertices for shard in sharding) == graph.num_vertices
    # Empty shards own no vertices; every vertex lands on a real shard.
    split = sharding.split_sorted_vertices(np.arange(graph.num_vertices))
    assert [part.size for part in split] == [shard.num_vertices for shard in sharding]
    assert sum(part.size for part in split) == graph.num_vertices

    config = HardwareConfig().with_devices(4)
    system = EmogiSystem(graph, config=config, num_partitions=2)
    result = system.run(DeltaPageRank())
    assert result.converged


def test_multi_device_scheduler_shares_host_pcie():
    config = HardwareConfig(num_streams=2).with_devices(2)
    scheduler = MultiDeviceScheduler(config)
    transfer = StreamTask(name="t", engine="ExpTM-F", transfer_time=1.0, kernel_time=0.5)
    timeline = scheduler.schedule([[transfer], [transfer]], [0, 0])

    # Both transfers serialise on the one host PCIe resource...
    pcie_spans = sorted(
        (span.start, span.end)
        for entry in timeline.entries
        for span in entry.spans
        if span.resource == "pcie"
    )
    assert pcie_spans == [(0.0, 1.0), (1.0, 2.0)]
    # ...while the kernels run on separate per-device GPUs.
    gpu_entries = {entry.device for entry in timeline.entries if entry.time_on("gpu") > 0}
    assert gpu_entries == {0, 1}
    # The boundary sync is the last thing in the iteration.
    sync_entry = timeline.entries[-1]
    assert sync_entry.engine == "sync"
    assert sync_entry.start == pytest.approx(2.5)
    assert timeline.sync_time == pytest.approx(config.interconnect_latency)


def test_interconnect_presets_and_validation():
    config = HardwareConfig().with_devices(2, "pcie-peer")
    bandwidth, latency = INTERCONNECT_PRESETS["pcie-peer"]
    assert config.interconnect_bandwidth == bandwidth
    assert config.interconnect_latency == latency
    assert config.is_multi_device

    with pytest.raises(KeyError):
        HardwareConfig().with_devices(2, "smoke-signals")
    with pytest.raises(ValueError):
        HardwareConfig(num_devices=0)
    with pytest.raises(ValueError):
        HardwareConfig().with_devices(0)


@pytest.mark.parametrize("system_cls", MULTI_SYSTEMS)
def test_multi_device_runs_converge_to_reference(system_cls):
    graph = rmat_graph(400, 3000, seed=21, weighted=True, name="rmat")
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 3).with_devices(2)
    single = _run(system_cls, graph, HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 3),
                  SSSP, 0)
    multi = _run(system_cls, graph, config, SSSP, 0)
    assert multi.converged
    # SSSP distances are schedule-independent at the fixed point.
    np.testing.assert_allclose(np.asarray(multi.values), np.asarray(single.values))
