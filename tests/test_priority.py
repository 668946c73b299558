"""Unit tests for contribution-driven priority scheduling (Section VI-A)."""

import numpy as np
import pytest

from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.sssp import SSSP
from repro.core.combiner import ScheduledTask
from repro.core.priority import ContributionScheduler
from repro.graph.partition import partition_by_count
from repro.graph.reorder import hub_scores
from repro.transfer.base import EngineKind


@pytest.fixture
def graph(medium_power_law_graph):
    return medium_power_law_graph


@pytest.fixture
def partitioning(graph):
    return partition_by_count(graph, 8)


def vertex_range(partitioning, index):
    """Partition ``index``'s vertices as a ``slice``."""
    return slice(*partitioning.vertex_boundaries[index : index + 2].tolist())


def make_task(engine, partition_indices, partitioning):
    bounds = partitioning.vertex_boundaries
    vertices = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in partition_indices])
    return ScheduledTask(engine=engine, partition_indices=list(partition_indices), active_vertices=vertices)


class TestHubContribution:
    def test_matches_hub_score_sum(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        scores = hub_scores(graph)
        task = make_task(EngineKind.EXP_FILTER, [0, 1], partitioning)
        expected = scores[partitioning.vertex_boundaries[0] : partitioning.vertex_boundaries[2]].sum()
        assert scheduler.hub_contribution(task) == pytest.approx(expected)

    def test_higher_hub_mass_scheduled_earlier(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        scores = hub_scores(graph)
        per_partition = [
            scores[vertex_range(partitioning, index)].sum() for index in range(partitioning.num_partitions)
        ]
        rich = int(np.argmax(per_partition))
        poor = int(np.argmin(per_partition))
        tasks = [
            make_task(EngineKind.EXP_FILTER, [poor], partitioning),
            make_task(EngineKind.EXP_FILTER, [rich], partitioning),
        ]
        program = SSSP()
        state = program.create_state(graph.with_weights(1.0), source=0)
        ordered = scheduler.prioritize(tasks, program, state)
        assert ordered[0].partition_indices == [rich]


class TestDeltaContribution:
    def test_delta_mass_orders_accumulative_tasks(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        program = DeltaPageRank()
        state = program.create_state(graph)
        # Concentrate residual mass in partition 5.
        state["delta"][:] = 0.0
        state["delta"][vertex_range(partitioning, 5)] = 10.0
        tasks = [
            make_task(EngineKind.IMP_ZERO_COPY, [1], partitioning),
            make_task(EngineKind.IMP_ZERO_COPY, [5], partitioning),
        ]
        ordered = scheduler.prioritize(tasks, program, state)
        assert ordered[0].partition_indices == [5]

    def test_delta_contribution_value(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        program = DeltaPageRank()
        state = program.create_state(graph)
        task = make_task(EngineKind.IMP_ZERO_COPY, [2], partitioning)
        expected = state["delta"][vertex_range(partitioning, 2)].sum()
        assert scheduler.delta_contribution(task, program, state) == pytest.approx(expected)


class TestEngineOrdering:
    def test_filter_tasks_before_zero_copy_and_compaction(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        program = SSSP()
        state = program.create_state(graph.with_weights(1.0), source=0)
        tasks = [
            make_task(EngineKind.EXP_COMPACTION, [0], partitioning),
            make_task(EngineKind.IMP_ZERO_COPY, [1], partitioning),
            make_task(EngineKind.EXP_FILTER, [2], partitioning),
        ]
        ordered = scheduler.prioritize(tasks, program, state)
        assert ordered[0].engine == EngineKind.EXP_FILTER
        assert ordered[-1].engine == EngineKind.EXP_COMPACTION


class TestDisabled:
    def test_disabled_keeps_generation_order_within_engine(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning, enabled=False)
        program = SSSP()
        state = program.create_state(graph.with_weights(1.0), source=0)
        tasks = [make_task(EngineKind.EXP_FILTER, [index], partitioning) for index in range(4)]
        ordered = scheduler.prioritize(tasks, program, state)
        assert [task.partition_indices[0] for task in ordered] == [0, 1, 2, 3]

    def test_empty_task_list(self, graph, partitioning):
        scheduler = ContributionScheduler(graph, partitioning)
        program = SSSP()
        state = program.create_state(graph.with_weights(1.0), source=0)
        assert scheduler.prioritize([], program, state) == []
