"""The transfer prices (Figure 2) against per-partition oracles.

Compaction and zero-copy are priced by the execution context from a
frontier's per-partition totals (``compaction_prices`` /
``zero_copy_prices`` of ``ExecutionContext.frontier_totals``): the
HyTGraph planner adds a task's partition prices left to right, and EMOGI
and Subway price a device's summed totals.  Unified memory prices a
vertex set (``UnifiedMemoryEngine.transfer_task``).  The oracles below
restate the paper's formulas one partition at a time in plain Python, so
a vectorised price that drops a partition's own rounding, or reads
vertices outside its partitions, fails by value.  The ExpTM-filter price
is the context's per-partition table, checked here directly and through
ExpTM-F's per-iteration byte counts.
"""

import math

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.graph.generators import rmat_graph
from repro.graph.partition import partition_by_count
from repro.runtime.context import ExecutionContext
from repro.sim.config import HardwareConfig
from repro.sim.pcie import PCIeModel
from repro.systems import SYSTEMS, make_system
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.imptm_um import ImpTMUMSystem
from repro.transfer.base import EngineKind
from repro.transfer.unified_memory import UnifiedMemoryEngine


def _slices(active, cuts):
    return [active[cuts[i] : cuts[i + 1]] for i in range(len(cuts) - 1)]


def compaction_oracle(graph, config, active, cuts):
    """Formula 2 per partition: packed edges + index, own TLP rounding."""
    d1 = config.vertex_value_bytes * (2 if graph.is_weighted else 1)
    bytes_total, transfer_time, cpu_time = 0, 0.0, 0.0
    for vertices in _slices(active, cuts):
        if vertices.size == 0:
            continue
        edges = sum(int(graph.out_degrees[v]) for v in vertices)
        output = edges * d1 + len(vertices) * config.index_entry_bytes
        bytes_total += output
        cpu_time += output / config.cpu_compaction_throughput
        transfer_time += math.ceil(output / config.tlp_payload_bytes) * config.tlp_round_trip_time
    return bytes_total, transfer_time, cpu_time


def zero_copy_oracle(graph, config, active, cuts):
    """Formula 3's requests per vertex (``am(v)`` included), timed per partition."""
    d1, m = graph.edge_bytes_per_edge, config.pcie_request_bytes
    gamma, rtt, mr = config.zero_copy_gamma, config.tlp_round_trip_time, config.pcie_max_outstanding
    bytes_total, transfer_time = 0, 0.0
    for vertices in _slices(active, cuts):
        requests = payload = 0
        for v in vertices.tolist():
            degree = int(graph.out_degrees[v])
            if degree:
                requests += math.ceil((int(graph.row_offset[v]) * d1 % m + degree * d1) / m)
            payload += degree * d1
        bytes_total += payload
        transfer_time += gamma * rtt * requests / mr + (1.0 - gamma) * rtt * payload / (mr * m)
    return bytes_total, transfer_time, 0.0


def unified_memory_oracle(graph, config, active, cuts):
    """One cold page-fault batch over the whole task: no per-partition rounding."""
    page, d1 = config.um_page_bytes, graph.edge_bytes_per_edge
    pages = set()
    for v in active[cuts[0] : cuts[-1]].tolist():
        degree = int(graph.out_degrees[v])
        if degree:
            start = int(graph.row_offset[v]) * d1
            pages.update(range(start // page, (start + degree * d1 - 1) // page + 1))
    faults = len(pages)
    if faults == 0:
        return 0, 0.0
    return faults * page, faults * page / config.um_bandwidth + faults * config.um_fault_overhead


def compaction_prices(context, totals):
    moved, cpu, seconds = context.compaction_prices(totals.active_edges, totals.active_vertices)
    return moved, seconds, cpu


def zero_copy_prices(context, totals):
    moved, seconds = context.zero_copy_prices(totals.zero_copy_requests, totals.active_edges)
    return moved, seconds, np.zeros_like(seconds)


ENGINES = {
    "compaction": (compaction_prices, compaction_oracle),
    "zero_copy": (zero_copy_prices, zero_copy_oracle),
    "unified_memory": (None, unified_memory_oracle),
}


def price_totals(prices, context, totals):
    """``(bytes, transfer, cpu)`` of a task of the partitions in ``totals``.

    Each partition pays its own price and the seconds add left to right,
    as the planners bill them; a partition without active vertices adds
    nothing.
    """
    moved, seconds, cpu = prices(context, totals)
    transfer_time = cpu_time = 0.0
    for index in np.flatnonzero(totals.active_vertices).tolist():
        transfer_time += float(seconds[index])
        cpu_time += float(cpu[index])
    return int(moved.sum()), transfer_time, cpu_time


def _tasks(graph, partitioning, rng):
    """``(active, first, last)`` triples: random, edge-case and whole frontiers."""
    n = graph.num_vertices
    starts = partitioning.vertex_boundaries.tolist()
    num_partitions = partitioning.num_partitions
    every_other = np.concatenate(
        [np.arange(starts[i], starts[i + 1]) for i in range(0, num_partitions, 2)]
    )
    frontiers = [
        np.zeros(0, dtype=np.int64),
        np.array([int(rng.integers(n))]),
        np.array([int(np.argmax(graph.out_degrees))]),
        np.arange(n),
        np.sort(rng.choice(every_other, size=max(1, every_other.size // 5), replace=False)),
    ] + [np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False)) for _ in range(6)]
    tasks = []
    for active in frontiers:
        # Every partition, and a random run of partitions (vertices outside
        # it must be ignored).
        tasks.append((active, 0, num_partitions))
        first = int(rng.integers(num_partitions))
        tasks.append((active, first, int(rng.integers(first, num_partitions)) + 1))
    return tasks


@pytest.mark.parametrize("num_partitions", [1, 3, 8])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_prices_match_per_partition_oracle(engine_name, weighted, num_partitions, config):
    graph = rmat_graph(400, 3000, seed=37, weighted=weighted)
    partitioning = partition_by_count(graph, num_partitions)
    context = ExecutionContext(graph, partitioning, config)
    starts = partitioning.vertex_boundaries
    prices, oracle = ENGINES[engine_name]
    rng = np.random.default_rng(num_partitions)
    for active, first, last in _tasks(graph, partitioning, rng):
        cuts = np.searchsorted(active, starts[first : last + 1])
        if prices is None:
            # A fresh engine per task: the oracle prices a cold cache.
            actual = UnifiedMemoryEngine(graph, PCIeModel(config)).transfer_task(active[cuts[0] : cuts[-1]])
            assert actual == oracle(graph, config, active, cuts), (first, last, active.size)
            continue
        pending = np.zeros(graph.num_vertices, dtype=bool)
        pending[active] = True
        totals = context.frontier_totals(pending)
        task = totals.rows(slice(first, last))
        actual = price_totals(prices, context, task)
        assert actual == oracle(graph, config, active, cuts), (first, last, active.size)
        # The run compacted or read as one slice (a baseline device's task).
        whole = task.sum_over(np.array([0, last - first]))
        actual = price_totals(prices, context, whole)
        assert actual == oracle(graph, config, active, cuts[[0, -1]]), (first, last, active.size)


class TestExplicitFilter:
    """ExpTM-filter's price: the context's per-partition tables."""

    def test_transfers_whole_partition(self, medium_power_law_graph, config):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        context = ExecutionContext(medium_power_law_graph, partitioning, config)
        edge_bytes = [int(size) for size in partitioning.edge_bytes]
        assert context.partition_bytes == edge_bytes
        assert all(type(size) is int for size in context.partition_bytes)
        assert context.partition_copy_time == [
            math.ceil(size / config.tlp_payload_bytes) * config.tlp_round_trip_time
            for size in edge_bytes
        ]

    @pytest.mark.parametrize("algorithm", ["bfs", "pr"])
    def test_exptm_f_ships_every_touched_partition_whole(
        self, medium_power_law_graph, algorithm, monkeypatch
    ):
        # Each iteration bills, once, the full table entry of every
        # partition holding an active vertex — however few are active
        # (the redundancy of Figure 3a).
        system = ExpTMFilterSystem(medium_power_law_graph, num_partitions=8)
        frontiers = []
        plan = system.plan_iteration

        def recording_plan(session):
            frontiers.append(np.flatnonzero(session.pending))
            return plan(session)

        monkeypatch.setattr(system, "plan_iteration", recording_plan)
        program = make_algorithm(algorithm)
        result = system.run(program, source=0 if program.needs_source else None)
        assert len(frontiers) == len(result.iterations) > 1
        table = system.context.partition_bytes
        for frontier, stats in zip(frontiers, result.iterations):
            touched = np.unique(system.partitioning.partition_of[frontier])
            assert stats.transfer_bytes == sum(table[p] for p in touched.tolist())
            active_edge_bytes = stats.active_edges * medium_power_law_graph.edge_bytes_per_edge
            assert stats.transfer_bytes >= active_edge_bytes


def _active_in_first_partition(graph, stride):
    vertices = np.arange(0, partition_by_count(graph, 8).vertex_boundaries[1], stride)
    return vertices[graph.out_degrees[vertices] > 0]


def _whole_frontier_totals(graph, config, active):
    """The context and the summed totals of ``active`` (one slice: a baseline's one task)."""
    context = ExecutionContext(graph, partition_by_count(graph, 8), config)
    pending = np.zeros(graph.num_vertices, dtype=bool)
    pending[active] = True
    return context, context.frontier_totals(pending).sum_over(np.array([0, 8]))


class TestExplicitCompaction:
    def test_less_data_than_filter_when_sparse(self, medium_power_law_graph, config):
        graph = medium_power_law_graph
        context, totals = _whole_frontier_totals(graph, config, _active_in_first_partition(graph, 7))
        moved, cpu, _ = context.compaction_prices(totals.active_edges, totals.active_vertices)
        assert 0 < moved[0] < partition_by_count(graph, 8).edge_bytes[0]
        assert cpu[0] > 0


class TestZeroCopy:
    def test_scales_with_active_set(self, medium_power_law_graph, config):
        graph = medium_power_law_graph
        few, many = (
            context.zero_copy_prices(totals.zero_copy_requests, totals.active_edges)
            for context, totals in (
                _whole_frontier_totals(graph, config, _active_in_first_partition(graph, stride))
                for stride in (8, 1)
            )
        )
        assert few[0][0] <= many[0][0]
        assert few[1][0] <= many[1][0]


class TestUnifiedMemory:
    @pytest.fixture
    def active(self, medium_power_law_graph):
        vertices = np.arange(0, medium_power_law_graph.num_vertices, 2)
        return vertices[medium_power_law_graph.out_degrees[vertices] > 0]

    def test_first_access_faults_then_hits(self, medium_power_law_graph, config, active):
        engine = UnifiedMemoryEngine(medium_power_law_graph, PCIeModel(config))
        cold_bytes, _ = engine.transfer_task(active)
        cold_faults, cold_hits = engine.cache.stats.faults, engine.cache.stats.hits
        assert cold_faults > 0
        assert cold_bytes == cold_faults * config.um_page_bytes
        warm = engine.transfer_task(active)
        assert engine.cache.stats.faults == cold_faults
        assert engine.cache.stats.hits > cold_hits
        assert warm == (0, 0.0)

    def test_reset_clears_cache(self, medium_power_law_graph, config, active):
        engine = UnifiedMemoryEngine(medium_power_law_graph, PCIeModel(config))
        first, _ = engine.transfer_task(active)
        engine.reset()
        assert engine.cache.stats.faults == 0 and engine.cache.resident_pages == 0
        again, _ = engine.transfer_task(active)
        assert again == first > 0

    def test_small_cache_evicts(self, medium_power_law_graph, active):
        engine = UnifiedMemoryEngine(
            medium_power_law_graph, PCIeModel(HardwareConfig(gpu_memory_bytes=2 * 4096))
        )
        for chunk in np.array_split(active, 8):
            engine.transfer_task(chunk)
        assert engine.cache.stats.evictions > 0
        assert engine.kind is EngineKind.IMP_UNIFIED_MEMORY

    def test_system_engine_shares_the_session_pcie_model(self, medium_power_law_graph):
        system = ImpTMUMSystem(medium_power_law_graph)
        assert system.engine.pcie is system.context.pcie


def _reachable_pcie_models(root):
    """Every ``PCIeModel`` reachable through the attributes of ``root``."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, PCIeModel):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_every_system_prices_with_its_context_pcie_model(system_name, medium_power_law_graph):
    """One PCIe model per system: every reachable model is ``context.pcie``."""
    system = make_system(system_name, medium_power_law_graph)
    system.run(make_algorithm("sssp"), source=0)
    models = _reachable_pcie_models(system)
    assert models and all(model is system.context.pcie for model in models), system_name
