"""Task combination (Section V-B, Algorithm 1 lines 15-24).

HyTGraph decouples *graph partitioning* (small 32 MB partitions so the
cost analysis is fine grained) from *task scheduling* (large tasks so the
per-kernel-launch and per-transfer overheads stay negligible):

* consecutive partitions that selected **ExpTM-filter** are merged into
  tasks of at most ``k`` partitions (k = 4 in the paper);
* every partition that selected **ExpTM-compaction** contributes its
  active vertices to one single compaction task whose packed output is
  shipped with one explicit copy;
* every partition that selected **ImpTM-zero-copy** contributes its
  active vertices to one single zero-copy kernel, which lets the implicit
  transfer overlap one big kernel instead of many tiny ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.selection import COMPACTION, ENGINE_OF_CODE, FILTER, ZERO_COPY, SelectionResult
from repro.graph.partition import Partitioning
from repro.transfer.base import ENGINE_LABEL, EngineKind

__all__ = ["ScheduledTask", "TaskCombiner"]

DEFAULT_COMBINE_FACTOR = 4


@dataclass(slots=True)
class ScheduledTask:
    """One unit of work handed to the asynchronous task scheduler.

    Attributes
    ----------
    engine:
        The transfer engine all member partitions selected.
    partition_indices:
        The partitions merged into this task (consecutive for filter
        tasks; arbitrary for the combined compaction / zero-copy tasks).
    active_vertices:
        Active vertex ids covered by the task, in ascending order.
    priority:
        Scheduling priority (lower runs earlier); filled in by the
        contribution-driven scheduler.
    combined:
        Whether this is an engine's single all-partitions task.
    """

    engine: EngineKind
    partition_indices: list[int]
    active_vertices: np.ndarray
    priority: float = 0.0
    combined: bool = False

    @property
    def label(self) -> str:
        """Display name, formatted on demand (also ``str(task)``)."""
        members = self.partition_indices
        listing = "combined:%d" % len(members) if self.combined else ",".join(map(str, members))
        return "%s[%s]" % (ENGINE_LABEL[self.engine], listing)

    __str__ = label.fget


class TaskCombiner:
    """Merges per-partition engine selections into scheduler tasks."""

    def __init__(self, combine_factor: int = DEFAULT_COMBINE_FACTOR, enabled: bool = True):
        if combine_factor <= 0:
            raise ValueError("combine_factor must be positive")
        self.combine_factor = combine_factor
        #: When disabled every partition becomes its own task — the
        #: "Hybrid" (no TC) configuration of the Figure 8 ablation.
        self.enabled = enabled

    def combine(
        self,
        partitioning: Partitioning,
        selection: SelectionResult,
        active_mask: np.ndarray,
        active_ids: np.ndarray | None = None,
    ) -> list[ScheduledTask]:
        """Build the task list for one iteration.

        ``active_mask`` is the frontier bitmap; callers that already hold
        the sorted active vertex ids can pass them as ``active_ids`` (the
        mask is then not scanned).
        """
        if active_ids is None:
            active_ids = np.flatnonzero(np.asarray(active_mask, dtype=bool))
        # Partitions hold consecutive vertex ranges and active_ids is
        # sorted, so one bisection of the partition boundaries splits the
        # frontier: partition i's actives are active_ids[cuts[i]:cuts[i+1]]
        # and a run of consecutive partitions is one plain slice.
        cuts = active_ids.searchsorted(partitioning.vertex_boundaries).tolist()
        codes = selection.codes
        selected = codes.nonzero()[0]
        selected_codes = codes[selected].tolist()
        selected = selected.tolist()

        if not self.enabled:
            return [
                ScheduledTask(ENGINE_OF_CODE[code], [index], active_ids[cuts[index] : cuts[index + 1]])
                for index, code in zip(selected, selected_codes)
            ]

        #: Ascending partition indices per selection code.
        members: tuple[list[int], ...] = ([], [], [], [])
        for index, code in zip(selected, selected_codes):
            members[code].append(index)
        tasks: list[ScheduledTask] = []

        # --- ExpTM-filter: merge up to k consecutive partitions -----------
        run = members[FILTER]
        start = 0
        while start < len(run):
            end = start + 1
            while end < len(run) and end - start < self.combine_factor and run[end] == run[end - 1] + 1:
                end += 1
            tasks.append(
                ScheduledTask(
                    EngineKind.EXP_FILTER,
                    run[start:end],
                    active_ids[cuts[run[start]] : cuts[run[end - 1] + 1]],
                )
            )
            start = end

        # --- ExpTM-compaction / ImpTM-zero-copy: one combined task each ----
        for code in (COMPACTION, ZERO_COPY):
            if members[code]:
                # Partition indices ascend and partitions hold consecutive
                # vertex ranges, so the concatenation is already sorted.
                vertices = np.concatenate(
                    [active_ids[cuts[index] : cuts[index + 1]] for index in members[code]]
                )
                tasks.append(ScheduledTask(ENGINE_OF_CODE[code], members[code], vertices, combined=True))
        return tasks
