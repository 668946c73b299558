"""Tests of the concurrent multi-query serving layer.

Two guarantees anchor the batch runner:

1. **Determinism** — a batch of K queries produces, per query, bitwise
   identical values to K standalone runs: sharing warm transfer state
   affects simulated time and bytes, never semantics.
2. **Amortization** — on a transfer-bound workload the batch makespan is
   strictly below the sequential serving time, because shard residency
   is warmed once per batch, whole-partition transfers are deduplicated
   across queries and the queries' stream tasks co-schedule over the
   shared PCIe/streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.sssp import SSSP
from repro.bench.workloads import batch_sources
from repro.graph.generators import rmat_graph
from repro.metrics.results import BatchResult
from repro.runtime.batch import QueryBatchRunner
from repro.sim.config import HardwareConfig
from repro.systems.emogi import EmogiSystem
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.hytgraph import HyTGraphSystem
from repro.systems.subway import SubwaySystem

MULTI_SYSTEMS = [HyTGraphSystem, EmogiSystem, SubwaySystem, ExpTMFilterSystem]


@pytest.fixture(scope="module")
def transfer_bound_graph():
    return rmat_graph(2000, 20000, seed=5, weighted=True, name="rmat")


@pytest.fixture(scope="module")
def transfer_bound_config(transfer_bound_graph):
    # PCIe throttled far below kernel throughput; one device holds half
    # the edge data, two devices make the whole graph shard-resident.
    return HardwareConfig(
        gpu_memory_bytes=transfer_bound_graph.edge_data_bytes // 2, pcie_bandwidth=1e9
    )


# ----------------------------------------------------------------------
# (a) batch of K == K sequential runs, value-exact per query
# ----------------------------------------------------------------------


@pytest.mark.parametrize("system_cls", MULTI_SYSTEMS)
@pytest.mark.parametrize("devices", [1, 2])
def test_batch_values_exactly_match_sequential_runs(
    system_cls, devices, transfer_bound_graph, transfer_bound_config
):
    graph = transfer_bound_graph
    config = transfer_bound_config.with_devices(devices)
    sources = batch_sources(graph, 4)
    program = SSSP()

    system = system_cls(graph, config=config)
    sequential = [system.run(program, source=source) for source in sources]
    batch = QueryBatchRunner(system).run([(program, source) for source in sources])

    assert batch.num_queries == len(sources)
    for standalone, batched in zip(sequential, batch.results):
        assert batched.converged
        assert np.array_equal(np.asarray(standalone.values), np.asarray(batched.values))
        assert batched.num_iterations == standalone.num_iterations


def test_batch_mixed_algorithms_value_exact(transfer_bound_graph):
    graph = transfer_bound_graph
    system = HyTGraphSystem(graph, config=HardwareConfig())
    queries = [(SSSP(), 0), (BFS(), 1), (DeltaPageRank(), None)]
    standalone = [system.run(program, source=source) for program, source in queries]
    batch = QueryBatchRunner(system).run(queries)
    for alone, batched in zip(standalone, batch.results):
        assert np.array_equal(np.asarray(alone.values), np.asarray(batched.values))
        assert batched.algorithm == alone.algorithm
    assert len({result.algorithm for result in batch.results}) == 3


# ----------------------------------------------------------------------
# (b) amortization: batched beats sequential on transfer-bound workloads
# ----------------------------------------------------------------------


def test_batched_hytgraph_at_least_2x_on_transfer_bound_multi_gpu(
    transfer_bound_graph, transfer_bound_config
):
    """The acceptance bar: 16 batched SSSP sources >= 2x vs sequential."""
    graph = transfer_bound_graph
    config = transfer_bound_config.with_devices(2)
    sources = batch_sources(graph, 16)
    program = SSSP()

    system = HyTGraphSystem(graph, config=config)
    sequential_time = sum(system.run(program, source=source).total_time for source in sources)
    batch = QueryBatchRunner(system).run([(program, source) for source in sources])

    assert batch.makespan > 0
    speedup = sequential_time / batch.makespan
    assert speedup >= 2.0, "batched speedup %.2fx below the 2x bar" % speedup
    assert batch.queries_per_second == pytest.approx(16 / batch.makespan)


def test_batch_never_slower_than_sequential_per_system(
    transfer_bound_graph, transfer_bound_config
):
    graph = transfer_bound_graph
    program = SSSP()
    sources = batch_sources(graph, 4)
    for system_cls in MULTI_SYSTEMS:
        system = system_cls(graph, config=transfer_bound_config.with_devices(2))
        sequential_time = sum(system.run(program, source=source).total_time for source in sources)
        batch = QueryBatchRunner(system).run([(program, source) for source in sources])
        assert batch.makespan <= sequential_time, system_cls.name


def test_exptm_filter_batch_dedupes_partition_transfers(transfer_bound_graph):
    # Single device, no residency: the only sharing is the per-super-
    # iteration whole-partition dedup, which must show up as amortized
    # bytes and shrink the batch's transfer volume.
    graph = transfer_bound_graph
    system = ExpTMFilterSystem(graph, config=HardwareConfig())
    program = SSSP()
    sources = batch_sources(graph, 4)
    sequential_bytes = sum(
        system.run(program, source=source).total_transfer_bytes for source in sources
    )
    batch = QueryBatchRunner(system).run([(program, source) for source in sources])
    assert batch.amortized_bytes > 0
    assert batch.total_transfer_bytes < sequential_bytes
    assert batch.total_transfer_bytes + batch.amortized_bytes == sequential_bytes


def test_hytgraph_batch_warms_residency_once(transfer_bound_graph, transfer_bound_config):
    graph = transfer_bound_graph
    config = transfer_bound_config.with_devices(2)
    program = SSSP()
    sources = batch_sources(graph, 4)
    system = HyTGraphSystem(graph, config=config)
    sequential = [system.run(program, source=source) for source in sources]
    batch = QueryBatchRunner(system).run([(program, source) for source in sources])
    # Sequentially every query pays the residency first-touch copies; in
    # the batch only the first one does.
    assert batch.total_transfer_bytes < sum(r.total_transfer_bytes for r in sequential)
    assert batch.extra["resident_partitions"] > 0


# ----------------------------------------------------------------------
# BatchResult bookkeeping and edge cases
# ----------------------------------------------------------------------


def test_batch_result_aggregates(transfer_bound_graph):
    graph = transfer_bound_graph
    system = EmogiSystem(graph, config=HardwareConfig())
    program = SSSP()
    sources = batch_sources(graph, 3)
    batch = QueryBatchRunner(system).run([(program, source) for source in sources])
    assert isinstance(batch, BatchResult)
    assert batch.system == "EMOGI"
    assert batch.num_queries == 3
    assert batch.super_iterations == max(r.num_iterations for r in batch.results)
    assert batch.total_transfer_bytes == sum(r.total_transfer_bytes for r in batch.results)
    stats = batch.amortization_vs(batch.results)
    assert stats["speedup"] >= 1.0  # co-scheduling can only help
    assert stats["transfer_bytes_saved"] == 0.0  # same results on both sides


def test_empty_batch_refused(transfer_bound_graph):
    system = EmogiSystem(transfer_bound_graph, config=HardwareConfig())
    with pytest.raises(ValueError, match="at least one query"):
        QueryBatchRunner(system).run([])


def test_single_query_batch_matches_plain_run(transfer_bound_graph):
    graph = transfer_bound_graph
    program = SSSP()
    system = HyTGraphSystem(graph, config=HardwareConfig())
    alone = system.run(program, source=0)
    batch = QueryBatchRunner(system).run([(program, 0)])
    assert np.array_equal(np.asarray(alone.values), np.asarray(batch.results[0].values))
    assert batch.results[0].per_iteration_times() == alone.per_iteration_times()
    assert batch.results[0].total_transfer_bytes == alone.total_transfer_bytes


def test_transfer_window_claims_once_per_super_iteration(transfer_bound_graph):
    # One device, static policy: no cache, so the claim is the bare window.
    context = ExpTMFilterSystem(transfer_bound_graph, config=HardwareConfig()).context
    assert context.cache is None
    size = {index: int(context.partitioning.edge_bytes[index]) for index in (1, 2, 3)}
    context.begin_window()
    assert context.claim([1, 2]) == [1, 2]
    assert context.claim([2, 3]) == [3]
    assert context.shipped == {1, 2, 3}
    assert context.amortized_bytes == size[2]
    context.begin_window()
    assert context.shipped == set()
    assert context.claim([2]) == [2]
    assert context.amortized_bytes == size[2]
    context.reset()
    assert context.shipped == set() and context.amortized_bytes == 0


def test_grus_batch_pays_prefetch_once(transfer_bound_graph):
    from repro.systems.grus import GrusSystem

    graph = transfer_bound_graph
    system = GrusSystem(
        graph, config=HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 4)
    )
    program = SSSP()
    solo = [system.run(program, source=source) for source in (0, 1)]
    prefetched = solo[0].extra["prefetched_bytes"]
    assert prefetched > 0
    batch = QueryBatchRunner(system).run([(program, 0), (program, 1)])
    # The prefetched data is query-independent: sequential serving pays
    # it per query, the batch exactly once.
    solo_bytes = sum(result.total_transfer_bytes for result in solo)
    assert solo_bytes - batch.total_transfer_bytes == prefetched
    for alone, batched in zip(solo, batch.results):
        assert np.array_equal(np.asarray(alone.values), np.asarray(batched.values))


def test_imptm_um_batch_reports_per_query_cache_stats(transfer_bound_graph):
    from repro.systems.imptm_um import ImpTMUMSystem

    graph = transfer_bound_graph
    system = ImpTMUMSystem(graph, config=HardwareConfig())
    program = SSSP()
    solo = system.run(program, source=0)
    batch = QueryBatchRunner(system).run([(program, source) for source in (0, 1, 2)])
    stats = [result.extra["page_cache_stats"] for result in batch.results]
    # Counters are attributed per query, not batch-cumulative...
    assert len({(entry["hits"], entry["faults"]) for entry in stats}) > 1
    # ...and with a cache big enough to avoid evictions, sharing it can
    # only reduce faults: each query faults at most its standalone count
    # (interleaved queries warm pages for each other).
    solo_faults = solo.extra["page_cache_stats"]["faults"]
    for entry in stats:
        assert entry["faults"] <= solo_faults
    assert sum(entry["faults"] for entry in stats) < 3 * solo_faults
