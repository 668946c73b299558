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

Each device combines the partitions of its own shard.  The combiner
works on a block of rows at once — the stacked ``K x P`` selection of
the queries of a batch super-iteration, one row for a solo iteration —
and returns the tasks as columns (:class:`TaskBlock`), not as a record
per task: a run of filter partitions, a segment boundary and a chunk of
``k`` are array comparisons over the selected cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import FILTER, SelectionResult
from repro.graph.partition import ShardedPartitioning
from repro.transfer.base import ENGINE_LABEL, EngineKind

__all__ = ["ScheduledTask", "TaskBlock", "TaskCombiner"]

DEFAULT_COMBINE_FACTOR = 4


@dataclass(slots=True)
class ScheduledTask:
    """The name of one scheduled task: its engine and partitions.

    Attributes
    ----------
    engine:
        The transfer engine all member partitions selected.
    partition_indices:
        The partitions merged into this task (consecutive for filter
        tasks; arbitrary for the combined compaction / zero-copy tasks).
    combined:
        Whether this is an engine's single all-partitions task.

    The label is formatted on first use and kept.
    """

    engine: EngineKind
    partition_indices: list[int]
    combined: bool = False
    _label: str | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        if self._label is None:
            members = self.partition_indices
            listing = "combined:%d" % len(members) if self.combined else ",".join(map(str, members))
            self._label = "%s[%s]" % (ENGINE_LABEL[self.engine], listing)
        return self._label

    @property
    def label(self) -> str:
        """Display name, formatted on demand (also ``str(task)``)."""
        return str(self)


@dataclass(slots=True)
class TaskBlock:
    """The tasks of a block of rows, one array entry per task.

    Tasks are numbered in generation order: by row, then by device
    (``group = row * devices + device``), then — with combining on —
    the shard's filter tasks in partition order, its compaction task and
    its zero-copy task; with combining off, one task per partition in
    partition order.  ``gen`` is a task's position in its group.

    ``cells`` lists the member partitions of every task end to end, as
    block-flat ids ``row * P + partition`` in ascending order within a
    task: task ``t`` owns ``cells[starts[t] : starts[t] + counts[t]]``,
    and member cell ``i`` is member ``slots[i]`` of task
    ``cell_tasks[i]``.  ``priority`` is filled by the contribution
    scheduler.
    """

    rows: np.ndarray
    devices: np.ndarray
    codes: np.ndarray
    groups: np.ndarray
    gen: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    cells: np.ndarray
    partitions: np.ndarray
    cell_tasks: np.ndarray
    slots: np.ndarray
    widest: int
    combined: bool
    priority: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of tasks."""
        return self.codes.size

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Each task's left-to-right sum of its member cells' ``values``.

        ``((v0 + v1) + v2) + ...`` in member order, the sum a Python loop
        over the members forms: one ``np.add.accumulate`` along the rows
        of a ``tasks x widest`` matrix padded with ``0.0`` (adding zero
        is exact).
        """
        matrix = np.zeros((self.size, self.widest))
        matrix[self.cell_tasks, self.slots] = values
        return np.add.accumulate(matrix, axis=1)[:, -1]


class _CellTable:
    """Per block-flat cell id ``row * P + partition``: its partition, row, group and sort key."""

    def __init__(self, sharding: ShardedPartitioning, num_rows: int, num_partitions: int):
        self.sharding = sharding
        self.num_rows = num_rows
        num_devices = sharding.num_devices
        self.partition = np.tile(np.arange(num_partitions), num_rows)
        self.row = np.arange(num_rows).repeat(num_partitions)
        self.group = self.row * num_devices + sharding.device_of[self.partition]
        self.device = self.group % num_devices
        # Generation order inside a group: filter, compaction, zero-copy.
        self.key = self.group * 4


class TaskCombiner:
    """Merges per-partition engine selections into scheduler tasks."""

    def __init__(self, combine_factor: int = DEFAULT_COMBINE_FACTOR, enabled: bool = True):
        if combine_factor <= 0:
            raise ValueError("combine_factor must be positive")
        self.combine_factor = combine_factor
        #: When disabled every partition becomes its own task — the
        #: "Hybrid" (no TC) configuration of the Figure 8 ablation.
        self.enabled = enabled
        self._table: _CellTable | None = None

    def _cells(self, sharding: ShardedPartitioning, num_rows: int, num_partitions: int) -> _CellTable:
        """The cell table for at least ``num_rows`` rows of ``sharding``, built on first need."""
        table = self._table
        if table is None or table.sharding is not sharding or table.num_rows < num_rows:
            table = self._table = _CellTable(sharding, num_rows, num_partitions)
        return table

    def combine(self, selection: SelectionResult, sharding: ShardedPartitioning) -> TaskBlock:
        """Build the tasks of every row of ``selection`` (``rows x P`` codes).

        Each device's tasks cover only its shard's partitions.
        """
        codes = selection.codes
        num_rows, num_partitions = codes.shape
        table = self._cells(sharding, num_rows, num_partitions)
        flat = codes.reshape(-1)
        cells = flat.nonzero()[0]
        cell_codes = flat[cells]
        count = cells.size
        positions = np.arange(count)
        starts = np.empty(count, dtype=bool)
        starts[:1] = True
        if self.enabled:
            # Shards are contiguous partition ranges, so the cells are in
            # (row, device, partition) order already: move each group's
            # filter partitions ahead of its compaction and zero-copy ones.
            segments = table.key[cells] + cell_codes
            order = segments.argsort(kind="stable")
            cells, cell_codes, segments = cells[order], cell_codes[order], segments[order]
            # A run goes on inside one (group, engine) segment while its
            # links count up by one: a filter run's partitions must be
            # consecutive, compaction and zero-copy segments never break.
            # A segment's links sit apart from every other segment's.
            filters = cell_codes == FILTER
            links = segments * (flat.size + count + 1) + np.where(filters, cells, positions)
            starts[1:] = links[1:] != links[:-1] + 1
            # ... and a filter run splits every k partitions.
            runs = starts.cumsum()
            offsets = positions - runs.searchsorted(runs)
            starts |= filters & (offsets % self.combine_factor == 0)
        else:
            starts[1:] = True
        cell_tasks = starts.cumsum() - 1
        starts = starts.nonzero()[0]
        counts = np.bincount(cell_tasks, minlength=starts.size)
        first_cells = cells[starts]
        groups = table.group[first_cells]
        return TaskBlock(
            rows=table.row[first_cells],
            devices=table.device[first_cells],
            codes=cell_codes[starts],
            groups=groups,
            gen=np.arange(starts.size) - groups.searchsorted(groups),
            starts=starts,
            counts=counts,
            cells=cells,
            partitions=table.partition[cells],
            cell_tasks=cell_tasks,
            slots=positions - starts[cell_tasks],
            widest=int(counts.max(initial=1)),
            combined=self.enabled,
        )
