"""The transfer engines (Figure 2) against per-partition oracles.

``TransferEngine.transfer_task(active, cuts)`` is each mechanism's only
price.  The oracles below restate the paper's formulas one partition at a
time in plain Python, so a vectorised engine that drops a partition's own
rounding, or reads vertices outside its cuts, fails by value.  The
ExpTM-filter price has no engine: it is the execution context's
per-partition table, checked here directly and through ExpTM-F's
per-iteration byte counts.
"""

import math

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.graph.generators import rmat_graph
from repro.graph.partition import partition_by_count
from repro.runtime.context import ExecutionContext
from repro.sim.config import HardwareConfig
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.transfer.base import EngineKind
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.unified_memory import UnifiedMemoryEngine
from repro.transfer.zero_copy import ZeroCopyEngine


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
    return bytes_total, transfer_time, cpu_time, False


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
    return bytes_total, transfer_time, 0.0, True


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
        return 0, 0.0, 0.0, True
    seconds = faults * page / config.um_bandwidth + faults * config.um_fault_overhead
    return faults * page, seconds, 0.0, True


ENGINES = {
    "compaction": (ExplicitCompactionEngine, compaction_oracle),
    "zero_copy": (ZeroCopyEngine, zero_copy_oracle),
    "unified_memory": (UnifiedMemoryEngine, unified_memory_oracle),
}


def _tasks(graph, partitioning, rng):
    """``(active, cuts)`` pairs: random, edge-case and one-slice frontiers."""
    n = graph.num_vertices
    starts = [p.vertex_start for p in partitioning] + [n]
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
        # Every partition; a random run of partitions (vertices outside
        # its cuts must be ignored); the whole frontier as one slice.
        tasks.append((active, np.searchsorted(active, starts)))
        first = int(rng.integers(num_partitions))
        last = int(rng.integers(first, num_partitions)) + 1
        tasks.append((active, np.searchsorted(active, starts[first : last + 1])))
        tasks.append((active, (0, active.size)))
    return tasks


@pytest.mark.parametrize("num_partitions", [1, 3, 8])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_transfer_task_matches_per_partition_oracle(engine_name, weighted, num_partitions, config):
    graph = rmat_graph(400, 3000, seed=37, weighted=weighted)
    partitioning = partition_by_count(graph, num_partitions)
    engine_cls, oracle = ENGINES[engine_name]
    rng = np.random.default_rng(num_partitions)
    for active, cuts in _tasks(graph, partitioning, rng):
        # A fresh engine per task: the unified-memory oracle prices a cold cache.
        outcome = engine_cls(graph, config).transfer_task(active, cuts)
        expected = oracle(graph, config, active, cuts)
        actual = (outcome.bytes_transferred, outcome.transfer_time, outcome.cpu_time, outcome.overlapped)
        assert actual == expected, (list(cuts), active.size)
        assert outcome.engine is engine_cls.kind


class TestExplicitFilter:
    """ExpTM-filter's price: the context's per-partition tables."""

    def test_transfers_whole_partition(self, medium_power_law_graph, config):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        context = ExecutionContext(medium_power_law_graph, partitioning, config)
        assert context.partition_bytes == [p.edge_bytes for p in partitioning]
        assert context.partition_copy_time == [
            math.ceil(p.edge_bytes / config.tlp_payload_bytes) * config.tlp_round_trip_time
            for p in partitioning
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
            touched = np.unique(system.partitioning.partition_of_vertices(frontier))
            assert stats.transfer_bytes == sum(table[p] for p in touched.tolist())
            active_edge_bytes = stats.active_edges * medium_power_law_graph.edge_bytes_per_edge
            assert stats.transfer_bytes >= active_edge_bytes


def _active_in_first_partition(graph, stride):
    vertices = np.arange(0, partition_by_count(graph, 8)[0].vertex_end, stride)
    return vertices[graph.out_degrees[vertices] > 0]


class TestExplicitCompaction:
    def test_less_data_than_filter_when_sparse(self, medium_power_law_graph, config):
        graph = medium_power_law_graph
        active = _active_in_first_partition(graph, 7)
        outcome = ExplicitCompactionEngine(graph, config).transfer_task(active, (0, active.size))
        assert 0 < outcome.bytes_transferred < partition_by_count(graph, 8)[0].edge_bytes
        assert outcome.cpu_time > 0 and not outcome.overlapped


class TestZeroCopy:
    def test_scales_with_active_set(self, medium_power_law_graph, config):
        graph = medium_power_law_graph
        engine = ZeroCopyEngine(graph, config)
        few, many = (_active_in_first_partition(graph, stride) for stride in (8, 1))
        few_outcome = engine.transfer_task(few, (0, few.size))
        many_outcome = engine.transfer_task(many, (0, many.size))
        assert few_outcome.bytes_transferred <= many_outcome.bytes_transferred
        assert few_outcome.transfer_time <= many_outcome.transfer_time
        assert many_outcome.overlapped and many_outcome.cpu_time == 0.0


class TestUnifiedMemory:
    @pytest.fixture
    def active(self, medium_power_law_graph):
        vertices = np.arange(0, medium_power_law_graph.num_vertices, 2)
        return vertices[medium_power_law_graph.out_degrees[vertices] > 0]

    def test_first_access_faults_then_hits(self, medium_power_law_graph, config, active):
        engine = UnifiedMemoryEngine(medium_power_law_graph, config)
        cold = engine.transfer_task(active, (0, active.size))
        cold_faults, cold_hits = engine.cache.stats.faults, engine.cache.stats.hits
        assert cold_faults > 0
        assert cold.bytes_transferred == cold_faults * config.um_page_bytes
        warm = engine.transfer_task(active, (0, active.size))
        assert engine.cache.stats.faults == cold_faults
        assert engine.cache.stats.hits > cold_hits
        assert (warm.bytes_transferred, warm.transfer_time) == (0, 0.0)

    def test_reset_clears_cache(self, medium_power_law_graph, config, active):
        engine = UnifiedMemoryEngine(medium_power_law_graph, config)
        first = engine.transfer_task(active, (0, active.size))
        engine.reset()
        assert engine.cache.stats.faults == 0 and engine.cache.resident_pages == 0
        again = engine.transfer_task(active, (0, active.size))
        assert again.bytes_transferred == first.bytes_transferred > 0

    def test_small_cache_evicts(self, medium_power_law_graph, active):
        engine = UnifiedMemoryEngine(medium_power_law_graph, HardwareConfig(gpu_memory_bytes=2 * 4096))
        for chunk in np.array_split(active, 8):
            engine.transfer_task(chunk, (0, chunk.size))
        assert engine.cache.stats.evictions > 0
        assert engine.kind is EngineKind.IMP_UNIFIED_MEMORY
