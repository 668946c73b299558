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
* **Δ-driven** (accumulative algorithms such as PageRank and PHP, whose
  programs declare a :attr:`~repro.algorithms.base.VertexProgram.residual`
  array): tasks are ordered by the pending residual (Δ) mass of their
  partitions, so the largest contributions propagate first.

Regardless of contribution, the paper schedules ExpTM-filter tasks ahead
of zero-copy and compaction tasks (Section VI-B), so the priority is a
``(engine rank, -contribution)`` pair flattened into a single float.

The scheduler prioritises a whole :class:`~repro.core.combiner.TaskBlock`
— every task of every row and device of a block — with array operations
whose floats are the ones a per-task loop forms: a task's Δ mass adds
its partitions' masses left to right (``TaskBlock.fold``); its hub mass
is numpy's ``sum`` of its partitions' masses, and a partition's Δ mass
its vertex slice's ``sum``, both taken for every segment at once by
:func:`segment_sums`.  A stable sort on (group, priority, generation
index) is the per-group ``sorted(key=priority)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.combiner import TaskBlock
from repro.core.selection import COMPACTION, FILTER, ZERO_COPY
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioning
from repro.graph.reorder import hub_scores

__all__ = ["ContributionScheduler", "segment_sums"]

# ExpTM-filter tasks are released to the streams first, then zero-copy,
# then compaction (whose CPU stage overlaps the earlier transfers): the
# priority base ``rank * 10.0`` of each selection code.
_RANK_BASE = np.zeros(4)
_RANK_BASE[[FILTER, ZERO_COPY, COMPACTION]] = 0 * 10.0, 1 * 10.0, 2 * 10.0


class ContributionScheduler:
    """Assigns priorities to tasks and orders them for execution."""

    def __init__(self, graph: CSRGraph, partitioning: Partitioning, enabled: bool = True):
        self.graph = graph
        self.partitioning = partitioning
        #: When disabled tasks keep their generation order — the "no CDS"
        #: configuration of the Figure 8 ablation.
        self.enabled = enabled
        self._hub_mass = self._per_partition_hub_mass()
        # Δ masses are reduced over a copy of the residuals with a zero in
        # front of every partition's vertices: ``pads`` are the zeros'
        # positions, ``spread`` where each vertex lands.
        bounds = partitioning.vertex_boundaries
        num_partitions = partitioning.num_partitions
        self._pads = bounds[:-1] + np.arange(num_partitions)
        self._spread = np.arange(bounds[-1]) + (partitioning.partition_of + 1 if num_partitions else 0)

    def _per_partition_hub_mass(self) -> np.ndarray:
        if self.partitioning.num_partitions == 0:
            return np.zeros(0, dtype=np.float64)
        scores = hub_scores(self.graph)
        # Partitions tile the vertex range, so one segmented reduction over
        # the partition boundaries replaces the per-partition Python loop.
        return np.add.reduceat(scores, self.partitioning.vertex_boundaries[:-1])

    def residual_mass(self, residuals: np.ndarray) -> np.ndarray:
        """Per-partition Δ mass of each row of ``residuals`` (``rows x |V|``).

        Entry ``[r, p]`` equals ``residuals[r, first:last].sum()`` over
        partition ``p``'s vertices bit for bit (:func:`segment_sums`).
        """
        return segment_sums(residuals, self._spread, self._pads)

    # ------------------------------------------------------------------
    # Prioritisation
    # ------------------------------------------------------------------
    def prioritize(
        self, tasks: TaskBlock, residual_rows: np.ndarray, residual_mass: np.ndarray | None
    ) -> np.ndarray:
        """Set ``tasks.priority`` and return the tasks in execution order.

        The order runs group by group (row, then device); inside a group
        tasks run by ascending priority, ties in generation order.
        ``residual_rows`` flags the block's rows whose program is
        Δ-driven and ``residual_mass`` (``rows x P``, ``None`` without
        such rows) holds those rows' per-partition Δ masses
        (:meth:`residual_mass`).
        """
        base = _RANK_BASE[tasks.codes]
        if not self.enabled:
            tasks.priority = base + tasks.gen * 1e-6
        else:
            contributions = self._contributions(tasks, residual_rows, residual_mass)
            group_first = (tasks.gen == 0).nonzero()[0]
            largest = np.maximum.reduceat(contributions, group_first)
            # Each task divides by its own group's largest contribution.
            scale = np.where(largest > 0, largest, 1.0)[tasks.groups[group_first].searchsorted(tasks.groups)]
            # Larger contribution -> smaller priority value -> earlier.
            tasks.priority = base + (1.0 - contributions / scale)
        return np.lexsort((tasks.gen, tasks.priority, tasks.groups))

    def _contributions(
        self, tasks: TaskBlock, residual_rows: np.ndarray, residual_mass: np.ndarray | None
    ) -> np.ndarray:
        """Each task's hub mass, or its Δ mass on a Δ-driven row.

        A hub mass is numpy's ``sum`` of the task's partition masses; a Δ
        mass adds its partitions' masses left to right.
        """
        partitions = tasks.partitions
        hub = self._hub_mass[partitions]
        positions = np.arange(hub.size) + tasks.cell_tasks + 1
        contributions = segment_sums(hub, positions, tasks.starts + np.arange(tasks.size))
        if residual_mass is not None:
            cell_rows = tasks.rows[tasks.cell_tasks]
            delta = tasks.fold(np.where(residual_rows[cell_rows], residual_mass[cell_rows, partitions], 0.0))
            contributions = np.where(residual_rows[tasks.rows], delta, contributions)
        return contributions


def segment_sums(values: np.ndarray, positions: np.ndarray, pads: np.ndarray) -> np.ndarray:
    """numpy's ``sum`` of every segment of ``values``' last axis, bit for bit.

    Segment ``i`` holds the values between the zero pads ``pads[i]`` and
    ``pads[i + 1]`` of a padded copy in which value ``j`` sits at
    ``positions[j]``.  ``np.add.reduceat`` starts each segment from its
    first entry and adds the rest pairwise, and ``sum`` starts from
    ``0.0`` and adds every entry pairwise, so with the zero pad first a
    segment's reduction is its values' ``sum``; without it, three or more
    values would add in another order.
    """
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + pads.size,))
    padded[..., positions] = values
    return np.add.reduceat(padded, pads, axis=-1)
