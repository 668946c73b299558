"""Contribution-driven priority scheduling (Section VI-A).

Within one iteration HyTGraph schedules tasks so that the vertices which
contribute most to convergence are processed first, which reduces stale
computation and hence redundant work and transfers:

* **Hub-vertex-driven** (traversal / value-replacement algorithms): the
  preprocessing step hub-sorts the graph so the top-8 % hub vertices
  (by Formula 4) sit at the front of the CSR; at run time tasks whose
  partitions carry more hub-score mass run earlier.  Hubs therefore
  accumulate incoming updates before their large out-neighborhoods are
  expanded.
* **Δ-driven** (accumulative algorithms such as PageRank and PHP): tasks
  are ordered by the pending residual (Δ) mass of their partitions, so
  the largest contributions propagate first.

Regardless of contribution, the paper schedules ExpTM-filter tasks ahead
of zero-copy and compaction tasks (Section VI-B), so the priority is a
``(engine rank, -contribution)`` pair flattened into a single float.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.combiner import ScheduledTask
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioning
from repro.graph.reorder import hub_scores
from repro.transfer.base import EngineKind

__all__ = ["ContributionScheduler"]

# ExpTM-filter tasks are released to the streams first, then zero-copy,
# then compaction (whose CPU stage overlaps the earlier transfers).
_ENGINE_RANK = {
    EngineKind.EXP_FILTER: 0,
    EngineKind.IMP_ZERO_COPY: 1,
    EngineKind.EXP_COMPACTION: 2,
    EngineKind.IMP_UNIFIED_MEMORY: 1,
}


class ContributionScheduler:
    """Assigns priorities to tasks and orders them for execution."""

    def __init__(self, graph: CSRGraph, partitioning: Partitioning, enabled: bool = True):
        self.graph = graph
        self.partitioning = partitioning
        #: When disabled tasks keep their generation order — the "no CDS"
        #: configuration of the Figure 8 ablation.
        self.enabled = enabled
        self._hub_mass = self._per_partition_hub_mass()
        self._vertex_bounds = partitioning.vertex_boundaries.tolist()

    def _per_partition_hub_mass(self) -> np.ndarray:
        if self.partitioning.num_partitions == 0:
            return np.zeros(0, dtype=np.float64)
        scores = hub_scores(self.graph)
        # Partitions tile the vertex range, so one segmented reduction over
        # the partition boundaries replaces the per-partition Python loop.
        return np.add.reduceat(scores, self.partitioning.vertex_boundaries[:-1])

    # ------------------------------------------------------------------
    # Contribution measures
    # ------------------------------------------------------------------
    def hub_contribution(self, task: ScheduledTask) -> float:
        """Hub-score mass of the task's partitions (hub-vertex-driven)."""
        return float(self._hub_mass[task.partition_indices].sum())

    def delta_contribution(
        self, task: ScheduledTask, program: VertexProgram, state: ProgramState
    ) -> float:
        """Pending Δ mass of the task's partitions (Δ-driven)."""
        bounds = self._vertex_bounds
        total = 0.0
        for index in task.partition_indices:
            total += program.partition_delta(self.graph, state, bounds[index], bounds[index + 1])
        return total

    # ------------------------------------------------------------------
    # Prioritisation
    # ------------------------------------------------------------------
    def prioritize(
        self,
        tasks: list[ScheduledTask],
        program: VertexProgram,
        state: ProgramState,
    ) -> list[ScheduledTask]:
        """Set task priorities and return the tasks in execution order."""
        if not tasks:
            return []
        contributions = []
        for task in tasks:
            if self.enabled:
                if program.accumulative:
                    contribution = self.delta_contribution(task, program, state)
                else:
                    contribution = self.hub_contribution(task)
            else:
                contribution = 0.0
            contributions.append(contribution)
        max_contribution = max(contributions) if contributions else 0.0
        scale = max_contribution if max_contribution > 0 else 1.0

        for position, (task, contribution) in enumerate(zip(tasks, contributions)):
            rank = _ENGINE_RANK.get(task.engine, 3)
            if self.enabled:
                # Larger contribution -> smaller priority value -> earlier.
                task.priority = rank * 10.0 + (1.0 - contribution / scale)
            else:
                task.priority = rank * 10.0 + position * 1e-6
        return sorted(tasks, key=lambda task: task.priority)
