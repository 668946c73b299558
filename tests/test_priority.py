"""Unit tests for contribution-driven priority scheduling (Section VI-A).

The scheduler prioritises a whole block of rows as columns; a per-task
oracle here (the record-per-task combiner and prioritiser it replaced)
pins its priorities and order bit for bit.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.sssp import SSSP
from repro.core.combiner import TaskCombiner
from repro.core.priority import ContributionScheduler, segment_sums
from repro.core.selection import COMPACTION, ENGINE_OF_CODE, FILTER, ZERO_COPY, SelectionResult
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioning, ShardedPartitioning, partition_by_count
from repro.graph.reorder import hub_scores


@pytest.fixture
def graph(medium_power_law_graph):
    return medium_power_law_graph


@pytest.fixture
def partitioning(graph):
    return partition_by_count(graph, 8)


def prioritize(scheduler, partitioning, codes, residuals=None, num_devices=1, combine_factor=4, combining=True):
    """Columnar stage 1 of ``codes`` (rows x P): the tasks, and their order."""
    codes = np.asarray(codes, dtype=np.int8).reshape(-1, partitioning.num_partitions)
    sharding = ShardedPartitioning(partitioning, num_devices)
    tasks = TaskCombiner(combine_factor, enabled=combining).combine(SelectionResult(codes=codes), sharding)
    residual_rows = np.zeros(codes.shape[0], dtype=bool)
    mass = None
    if residuals is not None:
        residual_rows[:] = [row is not None for row in residuals]
        mass = np.zeros(codes.shape)
        for row, residual in enumerate(residuals):
            if residual is not None:
                mass[row] = scheduler.residual_mass(residual[None, :])[0]
    return tasks, scheduler.prioritize(tasks, residual_rows, mass)


def task_partitions(tasks, task):
    start = tasks.starts[task]
    return tasks.partitions[start : start + tasks.counts[task]].tolist()


def vertex_range(partitioning, index):
    """Partition ``index``'s vertices as a ``slice``."""
    return slice(*partitioning.vertex_boundaries[index : index + 2].tolist())


# ----------------------------------------------------------------------
# The per-task oracle: one record per task, priced and sorted one by one
# ----------------------------------------------------------------------
_RANK = {FILTER: 0, ZERO_COPY: 1, COMPACTION: 2}


def oracle_tasks(codes, first, last, combine_factor, combining):
    """One shard's tasks as ``(code, partitions)`` in generation order."""
    selected = [(index, int(codes[index])) for index in range(first, last) if codes[index]]
    if not combining:
        return [(code, [index]) for index, code in selected]
    members = {code: [index for index, chosen in selected if chosen == code] for code in (FILTER, COMPACTION, ZERO_COPY)}
    tasks = []
    run = members[FILTER]
    start = 0
    while start < len(run):
        end = start + 1
        while end < len(run) and end - start < combine_factor and run[end] == run[end - 1] + 1:
            end += 1
        tasks.append((FILTER, run[start:end]))
        start = end
    for code in (COMPACTION, ZERO_COPY):
        if members[code]:
            tasks.append((code, members[code]))
    return tasks


def oracle_order(tasks, hub_mass, bounds, residual, enabled):
    """One shard's ``(code, partitions, priority)`` in execution order."""
    contributions = []
    for _, partitions in tasks:
        if not enabled:
            contribution = 0.0
        elif residual is not None:
            contribution = 0.0
            for index in partitions:
                contribution += float(residual[bounds[index] : bounds[index + 1]].sum())
        else:
            contribution = float(hub_mass[partitions].sum())
        contributions.append(contribution)
    scale = max(contributions, default=0.0)
    scale = scale if scale > 0 else 1.0
    prioritized = []
    for position, ((code, partitions), contribution) in enumerate(zip(tasks, contributions)):
        if enabled:
            priority = _RANK[code] * 10.0 + (1.0 - contribution / scale)
        else:
            priority = _RANK[code] * 10.0 + position * 1e-6
        prioritized.append((code, partitions, priority))
    return sorted(prioritized, key=lambda task: task[2])


class TestSegmentSums:
    @pytest.mark.parametrize("num_rows", [1, 2, 7])
    def test_residual_mass_is_each_slice_sum_bit_for_bit(self, num_rows):
        rng = np.random.default_rng(num_rows)
        sizes = np.concatenate([np.arange(1, 301), rng.integers(1, 301, size=40)])
        rng.shuffle(sizes)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        num_vertices = int(bounds[-1])
        graph = CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64), num_vertices=num_vertices)
        scheduler = ContributionScheduler(graph, Partitioning(graph, bounds))
        # Magnitudes spread over six decades make every summation order count.
        residuals = rng.random((num_rows, num_vertices)) * 10.0 ** rng.integers(-3, 3, size=(num_rows, num_vertices))
        expected = np.array(
            [[residuals[row, bounds[p] : bounds[p + 1]].sum() for p in range(sizes.size)] for row in range(num_rows)]
        )
        assert np.array_equal(scheduler.residual_mass(residuals), expected)
        # Without the zero pads reduceat starts each slice from its first
        # value and disagrees: the pads are what make the sums exact.
        assert not np.array_equal(np.add.reduceat(residuals, bounds[:-1], axis=1), expected)

    def test_segments_of_any_length_match_sum(self):
        rng = np.random.default_rng(5)
        counts = np.arange(1, 40)
        values = rng.random(counts.sum()) * 10.0 ** rng.integers(-3, 3, size=counts.sum())
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        owners = np.arange(counts.size).repeat(counts)
        sums = segment_sums(values, np.arange(values.size) + owners + 1, starts + np.arange(counts.size))
        assert sums.tolist() == [values[start : start + count].sum() for start, count in zip(starts, counts)]


class TestColumnarPrioritiesMatchThePerTaskOracle:
    @pytest.mark.parametrize("combine_factor", range(1, 10))
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("num_devices", [1, 2])
    def test_random_selections(self, graph, combine_factor, enabled, num_devices):
        partitioning = partition_by_count(graph, 23)
        scheduler = ContributionScheduler(graph, partitioning, enabled=enabled)
        hub_mass = scheduler._hub_mass
        bounds = partitioning.vertex_boundaries.tolist()
        sharding = ShardedPartitioning(partitioning, num_devices)
        shards = sharding.partition_bounds.tolist()
        rng = np.random.default_rng(combine_factor * 4 + num_devices + 2 * enabled)
        for trial in range(6):
            num_rows = int(rng.integers(1, 5))
            # Filter-heavy rows make long runs; sparse rows make gaps.
            weights = rng.dirichlet(np.ones(4))
            codes = rng.choice(4, size=(num_rows, partitioning.num_partitions), p=weights).astype(np.int8)
            residuals = [
                rng.random(graph.num_vertices) * 10.0 ** rng.integers(-3, 3, size=graph.num_vertices)
                if rng.random() < 0.5 else None
                for _ in range(num_rows)
            ]
            for combining in (True, False):
                tasks, order = prioritize(
                    scheduler, partitioning, codes, residuals, num_devices, combine_factor, combining
                )
                columnar = [
                    (int(tasks.codes[task]), task_partitions(tasks, task), float(tasks.priority[task]))
                    for task in order.tolist()
                ]
                expected = []
                for row in range(num_rows):
                    for first, last in zip(shards, shards[1:]):
                        shard_tasks = oracle_tasks(codes[row], first, last, combine_factor, combining)
                        expected += oracle_order(shard_tasks, hub_mass, bounds, residuals[row], enabled)
                assert columnar == expected, (trial, combining)


class TestHubContribution:
    def test_higher_hub_mass_scheduled_earlier(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        scores = hub_scores(graph)
        per_partition = [
            scores[vertex_range(partitioning, index)].sum() for index in range(partitioning.num_partitions)
        ]
        rich = int(np.argmax(per_partition))
        poor = int(np.argmin(per_partition))
        codes = np.zeros(partitioning.num_partitions)
        codes[[rich, poor]] = FILTER
        tasks, order = prioritize(scheduler, partitioning, codes, combine_factor=1)
        assert task_partitions(tasks, order[0]) == [rich]

    def test_value_replacement_programs_declare_no_residual(self):
        assert SSSP.residual is None


class TestDeltaContribution:
    def test_delta_mass_orders_accumulative_tasks(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        program = DeltaPageRank()
        state = program.create_state(graph)
        # Concentrate residual mass in partition 5.
        state["delta"][:] = 0.0
        state["delta"][vertex_range(partitioning, 5)] = 10.0
        codes = np.zeros(partitioning.num_partitions)
        codes[[1, 5]] = FILTER
        tasks, order = prioritize(scheduler, partitioning, codes, [state[program.residual]], combine_factor=1)
        assert task_partitions(tasks, order[0]) == [5]

    def test_delta_mass_value(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        state = DeltaPageRank().create_state(graph)
        mass = scheduler.residual_mass(state["delta"][None, :])[0]
        assert mass[2] == state["delta"][vertex_range(partitioning, 2)].sum()


class TestEngineOrdering:
    def test_filter_tasks_before_zero_copy_and_compaction(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        codes = np.zeros(partitioning.num_partitions)
        codes[:3] = COMPACTION, ZERO_COPY, FILTER
        tasks, order = prioritize(scheduler, partitioning, codes)
        engines = [ENGINE_OF_CODE[code] for code in tasks.codes[order].tolist()]
        assert [engine.value for engine in engines] == ["ExpTM-F", "ImpTM-ZC", "ExpTM-C"]


class TestDisabled:
    def test_disabled_keeps_generation_order_within_engine(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning, enabled=False)
        codes = np.zeros(partitioning.num_partitions)
        codes[:4] = FILTER
        tasks, order = prioritize(scheduler, partitioning, codes, combine_factor=1)
        assert [task_partitions(tasks, task) for task in order.tolist()] == [[0], [1], [2], [3]]

    def test_empty_block(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        tasks, order = prioritize(scheduler, partitioning, np.zeros(partitioning.num_partitions))
        assert tasks.size == 0 and order.size == 0
