"""Unit tests for engine selection (Algorithm 1) and task combination."""

import numpy as np
import pytest

from repro.core.combiner import ScheduledTask, TaskCombiner
from repro.core.cost_model import CostModel, PartitionCosts
from repro.core.selection import EngineSelector, SelectionThresholds
from repro.graph.partition import partition_by_count
from repro.runtime.context import ExecutionContext, FrontierTotals
from repro.transfer.base import EngineKind


def make_costs(filter_cost, compaction_cost, zero_copy_cost, active_edges=None):
    filter_cost = np.asarray(filter_cost, dtype=float)
    if active_edges is None:
        active_edges = np.ones_like(filter_cost)
    return PartitionCosts(
        filter_cost=filter_cost,
        compaction_cost=np.asarray(compaction_cost, dtype=float),
        zero_copy_cost=np.asarray(zero_copy_cost, dtype=float),
        totals=FrontierTotals(
            active_vertices=np.ones_like(filter_cost, dtype=np.int64),
            active_edges=np.asarray(active_edges, dtype=np.int64),
            zero_copy_requests=np.ones_like(filter_cost),
        ),
    )


def select_one(selector, filter_cost, compaction_cost, zero_copy_cost):
    """The engine ``selector`` picks for one active partition."""
    return selector.select(make_costs([filter_cost], [compaction_cost], [zero_copy_cost])).choices[0]


class TestSelectionRule:
    def test_compaction_when_both_conditions_hold(self):
        selector = EngineSelector()
        # Tec < 0.8*Tef and Tec < 0.4*Tiz.
        assert select_one(selector, 10.0, 5.0, 20.0) == EngineKind.EXP_COMPACTION

    def test_zero_copy_when_cheaper_than_filter(self):
        selector = EngineSelector()
        # Compaction fails the beta condition, zero-copy beats filter.
        assert select_one(selector, 10.0, 5.0, 6.0) == EngineKind.IMP_ZERO_COPY

    def test_filter_when_everything_is_active(self):
        selector = EngineSelector()
        # Dense partition: compaction ~ filter, zero-copy worse than filter.
        assert select_one(selector, 10.0, 10.5, 15.0) == EngineKind.EXP_FILTER

    def test_alpha_boundary(self):
        selector = EngineSelector(SelectionThresholds(alpha=0.8, beta=0.4))
        # Tec exactly at alpha*Tef fails the strict inequality.
        assert select_one(selector, 10.0, 8.0, 100.0) != EngineKind.EXP_COMPACTION

    def test_beta_boundary(self):
        selector = EngineSelector(SelectionThresholds(alpha=0.8, beta=0.4))
        # Tec exactly at beta*Tiz fails the strict inequality.
        assert select_one(selector, 100.0, 4.0, 10.0) != EngineKind.EXP_COMPACTION

    def test_inactive_partition_gets_none(self):
        selector = EngineSelector()
        costs = make_costs([1.0, 1.0], [0.5, 0.5], [2.0, 2.0], active_edges=[0, 5])
        result = selector.select(costs)
        assert result.choices[0] is None
        assert result.choices[1] is not None

    def test_counts(self):
        selector = EngineSelector()
        costs = make_costs([10, 10, 10], [5, 9.9, 20], [20, 5, 15])
        result = selector.select(costs)
        counts = result.counts()
        assert sum(counts.values()) == 3

    def test_partitions_using(self):
        selector = EngineSelector()
        costs = make_costs([10, 10], [5, 20], [20, 20])
        result = selector.select(costs)
        assert result.partitions_using(EngineKind.EXP_COMPACTION) == [0]

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            SelectionThresholds(alpha=0.0)
        with pytest.raises(ValueError):
            SelectionThresholds(beta=1.5)


class TestSelectionOnRealCosts:
    def test_dense_frontier_prefers_filter(self, medium_power_law_graph, config):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        model = CostModel(ExecutionContext(medium_power_law_graph, partitioning, config))
        costs = model.estimate(np.ones(medium_power_law_graph.num_vertices, dtype=bool))
        result = EngineSelector().select(costs)
        counts = result.counts()
        assert counts.get(EngineKind.EXP_FILTER.value, 0) >= counts.get(EngineKind.EXP_COMPACTION.value, 0)

    def test_sparse_frontier_avoids_filter(self, medium_power_law_graph, config):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        model = CostModel(ExecutionContext(medium_power_law_graph, partitioning, config))
        mask = np.zeros(medium_power_law_graph.num_vertices, dtype=bool)
        mask[::79] = True
        costs = model.estimate(mask)
        result = EngineSelector().select(costs)
        counts = result.counts()
        assert counts.get(EngineKind.EXP_FILTER.value, 0) == 0


class TestTaskCombiner:
    def _tasks(self, combiner, partitioning, choices, num_devices=1):
        """``(engine, partitions)`` of every task, in generation order."""
        from repro.core.selection import ENGINE_OF_CODE, SelectionResult
        from repro.graph.partition import ShardedPartitioning

        codes = SelectionResult(choices=choices).codes.reshape(1, -1)
        block = combiner.combine(SelectionResult(codes=codes), ShardedPartitioning(partitioning, num_devices))
        return [
            (ENGINE_OF_CODE[code], block.partitions[start : start + count].tolist())
            for code, start, count in zip(block.codes.tolist(), block.starts.tolist(), block.counts.tolist())
        ]

    def test_consecutive_filter_partitions_merge_up_to_k(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        combiner = TaskCombiner(combine_factor=4)
        tasks = self._tasks(combiner, partitioning, [EngineKind.EXP_FILTER] * 8)
        filter_tasks = [members for engine, members in tasks if engine == EngineKind.EXP_FILTER]
        assert len(filter_tasks) == 2
        assert all(len(members) <= 4 for members in filter_tasks)
        covered = sorted(index for members in filter_tasks for index in members)
        assert covered == list(range(8))

    def test_non_consecutive_filter_partitions_not_merged(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        combiner = TaskCombiner(combine_factor=4)
        choices = [
            EngineKind.EXP_FILTER,
            EngineKind.IMP_ZERO_COPY,
            EngineKind.EXP_FILTER,
            None,
            EngineKind.EXP_FILTER,
            EngineKind.EXP_FILTER,
            None,
            EngineKind.EXP_FILTER,
        ]
        groups = [members for engine, members in self._tasks(combiner, partitioning, choices) if engine == EngineKind.EXP_FILTER]
        assert groups == [[0], [2], [4, 5], [7]]

    def test_compaction_and_zero_copy_each_merge_into_one_task(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        combiner = TaskCombiner()
        choices = [
            EngineKind.EXP_COMPACTION,
            EngineKind.IMP_ZERO_COPY,
            EngineKind.EXP_COMPACTION,
            EngineKind.IMP_ZERO_COPY,
            EngineKind.EXP_COMPACTION,
            None,
            None,
            None,
        ]
        tasks = self._tasks(combiner, partitioning, choices)
        assert tasks == [(EngineKind.EXP_COMPACTION, [0, 2, 4]), (EngineKind.IMP_ZERO_COPY, [1, 3])]

    def test_tasks_cover_exactly_the_selected_partitions_per_shard(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        combiner = TaskCombiner()
        choices = [EngineKind.IMP_ZERO_COPY, None, EngineKind.EXP_FILTER, EngineKind.EXP_FILTER] * 2
        tasks = self._tasks(combiner, partitioning, choices, num_devices=2)
        assert sorted(index for _, members in tasks for index in members) == [0, 2, 3, 4, 6, 7]
        # Each device combines its own shard: no task crosses a shard bound.
        from repro.graph.partition import ShardedPartitioning

        device_of = ShardedPartitioning(partitioning, 2).device_of
        assert all(len({int(device_of[index]) for index in members}) == 1 for _, members in tasks)

    def test_disabled_combiner_one_task_per_partition(self, medium_power_law_graph):
        partitioning = partition_by_count(medium_power_law_graph, 8)
        combiner = TaskCombiner(enabled=False)
        tasks = self._tasks(combiner, partitioning, [EngineKind.EXP_FILTER] * 8)
        assert tasks == [(EngineKind.EXP_FILTER, [index]) for index in range(8)]

    def test_invalid_combine_factor(self):
        with pytest.raises(ValueError):
            TaskCombiner(combine_factor=0)

    def test_task_label_generated(self):
        assert ScheduledTask(EngineKind.EXP_FILTER, [1, 2]).label == "ExpTM-F[1,2]"
        assert str(ScheduledTask(EngineKind.IMP_ZERO_COPY, [1, 5, 9], combined=True)) == "ImpTM-ZC[combined:3]"


class TestSelectionRowCounts:
    def test_each_row_counts_its_own_partitions_in_first_partition_order(self):
        from repro.core.selection import SelectionResult

        codes = np.array([[0, 3, 1, 1, 2, 3], [1, 0, 0, 0, 0, 0], [0] * 6], dtype=np.int8)
        result = SelectionResult(codes=codes)
        assert result.row_counts() == [{"ImpTM-ZC": 2, "ExpTM-F": 2, "ExpTM-C": 1}, {"ExpTM-F": 1}, {}]
        assert [SelectionResult(codes=row).counts() for row in codes] == result.row_counts()
