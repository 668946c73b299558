"""The HyTGraph planner (Figure 5).

Each iteration runs two stages:

1. **Cost-aware task generation** — estimate the three engine costs for
   every partition containing active edges (:mod:`repro.core.cost_model`),
   select the cheapest engine per partition (:mod:`repro.core.selection`)
   and merge the selections into scheduler tasks
   (:mod:`repro.core.combiner`).
2. **Asynchronous task scheduling** — order the tasks by contribution
   (:mod:`repro.core.priority`), execute them (vertex-program semantics
   plus transfer-engine accounting) and hand the resulting stage
   durations to the execution runtime (:mod:`repro.runtime`), which
   turns them into the iteration's simulated wall-clock time.

Within an iteration execution is asynchronous: a task sees every value
update made by the tasks scheduled before it, and the loaded subgraph is
re-processed once (Section VI-A, "recomputes the loaded subgraph only
once") so cheap extra GPU work replaces future transfers.

Every behavioural feature is switchable through :class:`HyTGraphOptions`
so the ablation benchmarks (Figure 8) can turn task combining and
contribution-driven scheduling on and off independently.

Execution runtime
-----------------
The planner owns no runtime.
:class:`~repro.systems.hytgraph.HyTGraphSystem` hub-sorts the graph,
builds the one :class:`~repro.runtime.context.ExecutionContext` and
:class:`~repro.runtime.driver.IterationDriver` over the sorted copy like
every other :class:`~repro.systems.base.GraphSystem`, and plans through
:meth:`HyTGraphEngine._plan`.  A plan is device-count agnostic: per-device
task lists over the context's contiguous partition-range shards.  One
device is the trivial case (one shard, no residency, no boundary
exchange), so there is no separate single-device code path;
multi-device sessions add per-device shard residency and the
per-iteration boundary-delta synchronisation.  One planning call serves
solo runs (K = 1) and the concurrent multi-query batch runner (K
sessions at once).  Whether a partition is already on a device —
cache-resident, or shipped earlier in the transfer window by a peer
query — is the context's decision
(:attr:`~repro.runtime.context.ExecutionContext.claim`); every filter
task is priced from the context's per-partition tables for what it
leaves billable.

Performance architecture
------------------------
A batch super-iteration is planned as one K-row call (:meth:`HyTGraphEngine._plan`),
the batch analogue of task combining: many small per-query pushes become
a few large ones.  The K frontiers are stacked into one ``K x |V|``
bitmap, scanned once and priced by one
:meth:`~repro.core.cost_model.CostModel.estimate` (whose frontier
totals are one ``bincount`` each on ``row * P + partition``).  Stage 1
is one columnar pass over a block of rows
(:meth:`HyTGraphEngine._generate`): selection over the stacked
``rows x P`` costs, filter-run combining into a
:class:`~repro.core.combiner.TaskBlock` (one array entry per task),
contribution priorities and order, and the compaction and zero-copy
prices of every task, from the frontier totals the estimate priced.  Only
the window claims of the filter tasks run one task at a time, row by
row in planning order and step by step, so the window dedup and the
cache counters see the per-query sequence.  Rows couple only through an
adaptive cache, so with one a block is a single row; otherwise it is
every row.  The kernel times of all of a plan's tasks are one array
expression.  Execution is fused per program (class and parameters):
each query's tasks run in its devices' round-robin order, and step ``s``
of every query runs as one ``process`` call over stacked ``K x |V|``
state with flat ids ``r * |V| + v``, its pending vertices found by one
``rows x |V|`` task mask.  No call carries more than ``|E|`` messages,
the most one solo sweep pushes; a larger step splits at query
boundaries, which bounds the per-edge temporaries.  Queries never share
a destination and each keeps its message order, so every scatter fold,
value and simulated number is the one per-query planning produces; K = 1
views the session's own arrays and copies nothing.

Between engine selection and the batch fold an iteration is columns and
plain tuples, not a record per task.  The selection is an ``int8`` code
per partition (:class:`~repro.core.selection.SelectionResult`): the
residency pin, the per-shard combining and the per-engine counts are
array operations.  Static tables are built once, on the context (edge
bytes and explicit-copy time per partition, zero-copy requests per
vertex), and a task's name (:class:`~repro.core.combiner.ScheduledTask`)
is its engine and partitions.  Each scheduled task becomes one row of the
:class:`~repro.sim.events.Timeline`, which maintains makespan, busy time
per resource and finish time per owning query while it places; a merged
co-schedule names each task's owner and class offset next to the task
instead of copying it.

Materialised on demand only: task labels, ``SelectionResult.choices``
and ``Timeline.entries`` (the records the tests read; the tracer walks
``Timeline.task_stages()``) — one scheduling path, traced or not.
Simulated numbers stay bitwise because every float comes from the same
operations in the same order: a busy total adds one ``end - start`` per
span in placement order, a filter transfer adds the tabulated
per-partition copy times left to right, a compaction or zero-copy task
adds its partitions' prices left to right (``TaskBlock.fold``), and the
tables hold the very values the per-call formulas returned.
``benchmarks/layers/run.py`` measures every layer's host time;
``tests/test_call_budget.py`` gates the call count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.algorithms.base import ProgramState
from repro.core.combiner import ScheduledTask, TaskCombiner
from repro.core.cost_model import CostModel, PartitionCosts
from repro.core.priority import ContributionScheduler
from repro.core.selection import (
    COMPACTION,
    ENGINE_OF_CODE,
    FILTER,
    INACTIVE,
    ZERO_COPY,
    EngineSelector,
    SelectionResult,
    SelectionThresholds,
)
from repro.metrics.results import IterationStats
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamTask
from repro.transfer.base import ENGINE_LABEL

__all__ = ["HyTGraphOptions", "HyTGraphEngine"]


@dataclass
class HyTGraphOptions:
    """Tunable behaviour of the HyTGraph engine.

    The defaults reproduce the full system of the paper; the ablation
    benchmarks flip individual switches.

    Partitioning granularity, the iteration bound and the device cache
    are not options: they are the constructor arguments every
    :class:`~repro.systems.base.GraphSystem` takes.  The compute backend
    is process-wide (:func:`~repro.core.backends.use_backend`).

    Attributes
    ----------
    combine_factor:
        ``k`` — how many consecutive ExpTM-filter partitions merge into
        one task (4 in the paper).
    task_combining:
        Disable to schedule every partition as its own task (Figure 8's
        plain "Hybrid" bar).
    contribution_scheduling:
        Disable to drop hub-/Δ-driven priorities (Figure 8's "+TC" bar
        keeps task combining but no CDS).
    hub_sorting / hub_fraction:
        Whether to hub-sort the graph during preprocessing and how many
        vertices count as hubs (8 %).
    recompute_loaded:
        Re-process each loaded subgraph once with fresh values.
    thresholds:
        The α/β engine-selection thresholds.
    """

    combine_factor: int = 4
    task_combining: bool = True
    contribution_scheduling: bool = True
    hub_sorting: bool = True
    hub_fraction: float = 0.08
    recompute_loaded: bool = True
    thresholds: SelectionThresholds = field(default_factory=SelectionThresholds)


class HyTGraphEngine:
    """HyTGraph's planner: both stages of one iteration of K sessions.

    :class:`~repro.systems.hytgraph.HyTGraphSystem` builds it over its
    execution context — the hub-sorted graph, its partitioning and the
    device runtime — and plans every iteration through :meth:`_plan`.
    """

    def __init__(self, context: ExecutionContext, kernel_model: KernelModel, options: HyTGraphOptions):
        self.context = context
        self.kernel_model = kernel_model
        self.options = options
        self.graph = graph = context.graph
        self.partitioning = partitioning = context.partitioning
        # Sink detection runs every iteration; the degree==0 mask is static.
        self._sink_mask = graph.out_degrees == 0
        self.cost_model = CostModel(context)
        self.selector = EngineSelector(options.thresholds)
        self.combiner = TaskCombiner(options.combine_factor, enabled=options.task_combining)
        self.priority = ContributionScheduler(graph, partitioning, enabled=options.contribution_scheduling)
        #: Names of the tasks of consecutive partitions, by (code, first, count).
        self._task_names: dict[tuple[int, int, int], ScheduledTask] = {}
        # Static per-partition vertex counts: the fused steps expand
        # partition masks to vertex masks with them.
        self._partition_sizes = np.diff(partitioning.vertex_boundaries)

    def _plan(self, sessions: Sequence[QuerySession]) -> list[IterationPlan]:
        """Plan one iteration of K sessions: task generation, execution, accounting.

        Task generation, contribution scheduling and stream scheduling
        operate per device over the context's shards (one trivial shard
        on single-device sessions); the frontier and value arrays stay
        global — every device reads and writes the same program state,
        mirroring how real sharded runtimes keep vertex values consistent
        through the boundary exchange.  The host CPU and PCIe are shared;
        multi-device iterations end with the boundary-vertex delta
        exchange over the interconnect.

        The K frontiers are stacked as one ``K x |V|`` bitmap (K = 1
        views the session's own), grouped by program so that each group
        (a :class:`_Wave`) is contiguous.  Stage 1 — selection,
        combining, prioritising and pricing — runs as array operations
        over a block of rows (:meth:`_generate`); only the window claims
        of the filter tasks run one task at a time, row by row in the
        given order and step by step within a row, so the window dedup
        and the cache counters see exactly the per-query sequence.  Rows
        couple only through an adaptive cache (the filter discount, the
        resident pin and admissions), so there a block is one row;
        otherwise it is every row.  Stage 2 runs each wave's task steps
        fused (:meth:`_execute_wave`).
        """
        graph = self.graph
        context = self.context
        num_vertices = graph.num_vertices
        num_rows = len(sessions)
        groups = self._program_groups(sessions)
        stack = [row for rows in groups for row in rows]
        if num_rows == 1:
            pending = sessions[0].pending.reshape(1, num_vertices)
        else:
            pending = np.stack([sessions[row].pending for row in stack])
        # One frontier scan for every row (flat ids r * |V| + v): the ids
        # feed the stats and the cost model.
        active = np.flatnonzero(pending)
        row_cuts = active.searchsorted(np.arange(num_rows + 1) * num_vertices).tolist()
        costs = self.cost_model.estimate(pending, active_ids=active)
        active_edges = costs.totals.active_edges.sum(axis=1).tolist()

        waves: list[_Wave] = []
        position = [0] * num_rows
        residual_rows = np.zeros(num_rows, dtype=bool)
        residual_mass = None
        top = 0
        for rows in groups:
            wave = _Wave(sessions, rows, pending, top)
            for offset, row in enumerate(rows):
                position[row] = top + offset
            # Active vertices without out-edges generate no tasks (their
            # partitions carry no active edges), so handle them directly:
            # the push is a no-op for traversal algorithms and simply
            # folds the residual for accumulative ones.
            sinks = np.flatnonzero(wave.pending & self._sink_mask)
            if sinks.size:
                wave.flat_pending[sinks] = False
                wave.program.process(graph, wave.state, sinks)
            residual = wave.program.residual
            if residual is not None and self.priority.enabled:
                # Claims never touch program state: one Δ mass per plan.
                if residual_mass is None:
                    residual_mass = np.zeros((num_rows, self.partitioning.num_partitions))
                residual_rows[wave.tops] = True
                residual_mass[wave.tops] = self.priority.residual_mass(wave.state[residual].reshape(len(rows), -1))
            waves.append(wave)
            top += len(rows)

        # ----- Stage 1: columnar task generation, sequential claims -------
        cache = context.cache
        blocks = [[top] for top in position] if cache is not None and cache.adaptive else [position]
        claim = context.claim
        copy_bytes, copy_time = context.partition_bytes, context.partition_copy_time
        steps = _Steps(num_rows)
        stats: list = [None] * num_rows
        generated: list[_Block] = []
        for block in blocks:
            first = min(block)
            tasks = self._generate(costs, slice(first, first + len(block)), residual_rows, residual_mass)
            generated.append(tasks)
            cuts, codes, members, transfer, moved = tasks.row_cuts, tasks.codes, tasks.members, tasks.transfer, tasks.moved
            for top in block:
                # Claim in the order the tasks will run: a filter task pays
                # for what the context leaves billable.
                mark = context.cache_mark()
                start, end = cuts[top - first], cuts[top - first + 1]
                row_bytes = 0
                filter_steps = steps.filter_steps[top]
                for task in range(start, end):
                    if codes[task] == FILTER:
                        filter_steps.append(task - start)
                        seconds = 0.0
                        for index in claim(members[task]):
                            row_bytes += copy_bytes[index]
                            seconds += copy_time[index]
                        transfer[task] = seconds
                    else:
                        row_bytes += moved[task]
                steps.task_counts[top] = end - start
                stats[top] = IterationStats(
                    index=sessions[stack[top]].iteration,
                    time=0.0,
                    active_vertices=row_cuts[top + 1] - row_cuts[top],
                    active_edges=active_edges[top],
                    transfer_bytes=row_bytes,
                    processed_edges=0,
                    engine_partitions=tasks.engine_partitions[top - first],
                    engine_tasks={},
                )
                context.stamp_cache(stats[top], mark)
        steps.lay_out(generated, self.partitioning.num_partitions, context.num_devices)
        # Each device scans only its own shard's partitions, concurrently.
        shard_bounds = context.sharding.partition_bounds.tolist()
        widest_shard = max(last - first for first, last in zip(shard_bounds, shard_bounds[1:]))
        generation_overhead = self.kernel_model.device_scan_time(widest_shard)

        # ----- Stage 2: fused asynchronous task execution, per wave --------
        for wave in waves:
            self._execute_wave(wave, steps)
            wave.write_back(sessions)
        if num_rows > 1:
            for top, row in enumerate(stack):
                sessions[row].pending[...] = pending[top]

        # Every task's processed edges and kernel seconds, in stage-1 order.
        edges = steps.processed[steps.task_steps, steps.task_tops]
        kernel_times = iter(self.kernel_model.kernel_times(edges).tolist())
        edges = iter(edges.tolist())
        task_lists = [context.empty_device_lists() for _ in range(num_rows)]
        processed = [0] * num_rows
        for tasks in generated:
            combined, cuts, first, names = tasks.combined, tasks.row_cuts, tasks.first, self._task_names
            for offset, (start, end) in enumerate(zip(cuts, cuts[1:])):
                top = first + offset
                device_lists = task_lists[top]
                engine_tasks = stats[top].engine_tasks
                row_edges = 0
                for step, (device, code, members, transfer, cpu) in enumerate(zip(
                    tasks.devices[start:end], tasks.codes[start:end], tasks.members[start:end],
                    tasks.transfer[start:end], tasks.cpu[start:end],
                )):
                    engine = ENGINE_OF_CODE[code]
                    label = ENGINE_LABEL[engine]
                    # The task itself is the name: its label is formatted
                    # only if a trace or a fault event reads it.  A task of
                    # consecutive partitions is named by its range, so its
                    # name is made once and reused.
                    if combined and code != FILTER:
                        task = ScheduledTask(engine, members, True)
                    else:
                        task = names.get((code, members[0], len(members)))
                        if task is None:
                            task = names[code, members[0], len(members)] = ScheduledTask(engine, members)
                    device_lists[device].append(
                        StreamTask(task, label, cpu, transfer, next(kernel_times), code == ZERO_COPY, float(step))
                    )
                    engine_tasks[label] = engine_tasks.get(label, 0) + 1
                    row_edges += next(edges)
                stats[top].processed_edges = row_edges

        remote = steps.remote.tolist()
        return [
            IterationPlan(
                stats=stats[top],
                device_tasks=task_lists[top],
                remote_updates=remote[top],
                overhead_time=generation_overhead,
            )
            for top in position
        ]

    @staticmethod
    def _program_groups(sessions: Sequence[QuerySession]) -> list[list[int]]:
        """Session indices grouped by program (class and parameters), in order."""
        groups: dict[tuple, list[int]] = {}
        for row, session in enumerate(sessions):
            program = session.program
            key = (type(program), tuple(sorted(vars(program).items())))
            groups.setdefault(key, []).append(row)
        return list(groups.values())

    def _generate(
        self,
        costs: PartitionCosts,
        rows: slice,
        residual_rows: np.ndarray,
        residual_mass: np.ndarray | None,
    ) -> "_Block":
        """Stage 1 of the stacked rows ``rows``: their tasks in execution order, priced.

        Selection, combining and prioritising run over the block's
        ``rows x P`` columns; a compaction or zero-copy task adds its
        partitions' context prices (``compaction_prices`` /
        ``zero_copy_prices`` of the frontier totals the cost model priced
        from) left to right.  Filter tasks are left for the
        caller's claims.
        """
        context = self.context
        cache = context.cache
        block = costs.rows(rows)
        if cache is not None and cache.adaptive:
            # The frontier observation feeds the eviction policy (committed
            # at the next iteration boundary), and the cost model learns
            # what is already on a device: resident partitions — and
            # partitions another query shipped earlier in this transfer
            # window — price the filter engine at zero, so queries B..K
            # select the free path query A paid for.
            for row_edges in block.totals.active_edges:
                cache.observe_frontier(row_edges)
            block = self._discount_on_device_filter(block, cache.resident, context.shipped)
        selection = self._force_resident_filter(self.selector.select(block))
        tasks = self.combiner.combine(selection, context.sharding)
        order = self.priority.prioritize(
            tasks, residual_rows[rows], None if residual_mass is None else residual_mass[rows]
        )
        positions = np.arange(tasks.size)
        if context.num_devices > 1:
            # Devices drain their queues concurrently; interleaving the
            # per-device priority orders round-robin, (depth, device)
            # within a row, keeps the global value updates deterministic
            # while modelling parallel progress.  A task's depth is its
            # place in its group's order; its group starts at ``t - gen[t]``.
            depth = positions - (order - tasks.gen[order])
            order = order[np.lexsort((tasks.devices[order], depth, tasks.rows[order]))]
        task_rows = tasks.rows[order]
        row_cuts = task_rows.searchsorted(np.arange(rows.stop - rows.start + 1))
        task_steps = positions - row_cuts[task_rows]

        # Compaction and zero-copy prices: per member partition, then each
        # task's left-to-right sums (the filter tasks' go unused).
        cells, totals = tasks.cells, block.totals
        edges = totals.active_edges.reshape(-1)[cells]
        moved, seconds = context.zero_copy_prices(totals.zero_copy_requests.reshape(-1)[cells], edges)
        compacted = tasks.codes[tasks.cell_tasks] == COMPACTION
        if np.count_nonzero(compacted):
            packed, compact_s, copy_s = context.compaction_prices(
                edges, totals.active_vertices.reshape(-1)[cells]
            )
            moved = np.where(compacted, packed, moved)
            seconds = np.where(compacted, copy_s, seconds)
            cpu = tasks.fold(np.where(compacted, compact_s, 0.0))[order].tolist()
        else:
            cpu = [0.0] * tasks.size
        transfer = tasks.fold(seconds)[order].tolist()
        # Integer byte counts add exactly in any order.
        moved = np.add.reduceat(moved, tasks.starts)[order].tolist()
        steps_by_task = np.empty_like(task_steps)
        steps_by_task[order] = task_steps
        listed = tasks.partitions.tolist()
        return _Block(
            first=rows.start,
            task_tops=task_rows + rows.start,
            task_steps=task_steps,
            devices=tasks.devices[order].tolist(),
            codes=tasks.codes[order].tolist(),
            members=[
                listed[start : start + size]
                for start, size in zip(tasks.starts[order].tolist(), tasks.counts[order].tolist())
            ],
            transfer=transfer,
            cpu=cpu,
            moved=moved,
            row_cuts=row_cuts.tolist(),
            engine_partitions=selection.row_counts(),
            combined=tasks.combined,
            cell_tops=tasks.rows[tasks.cell_tasks] + rows.start,
            cell_steps=steps_by_task[tasks.cell_tasks],
            cell_partitions=tasks.partitions,
        )

    @staticmethod
    def _discount_on_device_filter(costs, resident: np.ndarray, shipped: set[int]):
        """Zero the filter cost of partitions already in device memory.

        The cache-aware cost-model hook (adaptive policies only): a
        cache-resident partition — or one already shipped in this
        transfer window by a peer query — costs nothing to read through
        the filter path, so the selector sees a zero filter cost and
        never pays compaction or zero-copy for bytes a device already
        holds.  This is the batch-aware pricing: query A's ship makes
        the filter engine free for queries B..K planning later in the
        same super-iteration.
        """
        free_mask = resident.copy()
        if shipped:
            free_mask[list(shipped)] = True
        if not free_mask.any():
            return costs
        return replace(costs, filter_cost=np.where(free_mask, 0.0, costs.filter_cost))

    def _force_resident_filter(self, selection: SelectionResult) -> SelectionResult:
        """Pin resident partitions to the filter engine.

        A partition resident in its device's memory needs no per-iteration
        transfer at all; compacting or zero-copy-reading it would move
        bytes it already holds.  The filter path prices it correctly:
        one whole-partition copy on first touch (a miss under adaptive
        policies), free afterwards (the claims of :meth:`_plan`).
        Cacheless sessions make this the identity.
        """
        cache = self.context.cache
        if cache is None or not cache.resident.any():
            return selection
        codes = selection.codes.copy()
        codes[cache.resident & (codes != INACTIVE)] = FILTER
        return SelectionResult(codes=codes)

    # ------------------------------------------------------------------
    # Fused task execution
    # ------------------------------------------------------------------
    def _execute_wave(self, wave: "_Wave", steps: "_Steps") -> None:
        """Run every row's tasks, step by step, as fused pushes.

        Step ``s`` runs each row's ``s``-th task: one push over every
        row's pending vertices inside that task's partitions, then one
        push re-processing what the tasks loaded.  The rows' task
        partitions form one ``rows x P`` mask per step, so the first
        round is one bitmap AND and one scan, and the second reads what
        the first activated.  Records the edges each row's tasks
        processed and each row's remote-activation messages per device
        in ``steps``.
        """
        tops = wave.tops
        task_counts = steps.task_counts[tops]
        num_steps = max(task_counts)
        # Per step: how many rows run a task, and which rows a filter task.
        tasks_at = [0] * num_steps
        for count in task_counts:
            for step in range(count):
                tasks_at[step] += 1
        whole: list[list[int]] = [[] for _ in range(num_steps)]
        for offset, filter_steps in enumerate(steps.filter_steps[tops]):
            for step in filter_steps:
                whole[step].append(offset)
        members, devices = steps.members[:, tops], steps.devices[:, tops]
        processed, remote = steps.processed[:, tops], steps.remote[tops]
        pending, flat_pending, push = wave.pending, wave.flat_pending, self._push
        partition_sizes = self._partition_sizes
        recompute = self.options.recompute_loaded
        for step in range(num_steps):
            # Asynchronous semantics: process whatever is pending in each
            # row's task partitions *now*, including activations produced
            # by the row's tasks scheduled earlier in the same iteration.
            loaded = members[step].repeat(partition_sizes, axis=1)
            first_mask = pending & loaded
            first_round = first_mask.reshape(-1).nonzero()[0]
            if first_round.size == 0:
                continue
            flat_pending[first_round] = False
            processed[step], newly_active = push(wave, first_round, devices[step], remote)
            if newly_active.size == 0 or not recompute:
                continue
            # Re-process the loaded subgraph once (Section VI-A): for
            # filter tasks the whole partition is resident on the GPU, for
            # compaction and zero-copy only the originally active
            # vertices' edges are.  The first round cleared everything
            # pending there, so what is pending again is what it activated.
            if not whole[step]:
                reloaded = first_mask
            elif len(whole[step]) == tasks_at[step]:
                reloaded = loaded
            else:
                rows = np.zeros(len(task_counts), dtype=bool)
                rows[whole[step]] = True
                reloaded = np.where(rows[:, None], loaded, first_mask)
            second_round = newly_active[reloaded.reshape(-1)[newly_active]]
            if second_round.size:
                flat_pending[second_round] = False
                processed[step] += push(wave, second_round, devices[step], remote)[0]

    def _push(
        self, wave: "_Wave", vertices: np.ndarray, devices: np.ndarray, remote: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Push a wave's flat ``vertices``: the edges processed per row, and the activated ids.

        No call carries more than ``|E|`` messages — the most one solo
        full sweep pushes — so a step over many rows splits at row
        boundaries and the per-edge temporaries stay within one sweep's.
        Activations land in the wave's pending bitmap; on multi-device
        sessions those owned by another shard than the pushing task's
        device (``devices[row]``) are counted into ``remote``.
        """
        graph = self.graph
        num_vertices = graph.num_vertices
        num_rows = len(wave.rows)
        if num_rows == 1:
            # One row pushes at most one sweep.
            edges = graph.out_degrees[vertices].sum(keepdims=True)
            calls = [vertices]
        else:
            rows, local = np.divmod(vertices, num_vertices)
            edges = np.bincount(rows, weights=graph.out_degrees[local], minlength=num_rows).astype(np.int64)
            calls = [vertices] if edges.sum() <= graph.num_edges else self._split_at_rows(vertices, edges)
        process = wave.program.process
        newly_active = process(graph, wave.state, calls[0])
        if len(calls) > 1:
            newly_active = np.concatenate([newly_active] + [process(graph, wave.state, call) for call in calls[1:]])
        if newly_active.size:
            wave.flat_pending[newly_active] = True
            if self.context.num_devices > 1:
                # Remote updates are activation messages for vertices owned
                # by another shard — each becomes one (index entry, value)
                # delta in the iteration's boundary exchange.
                new_rows, new_local = np.divmod(newly_active, num_vertices)
                owners = devices[new_rows]
                starts = self.context.sharding.vertex_bounds[owners]
                ends = self.context.sharding.vertex_bounds[owners + 1]
                outside = (new_local < starts) | (new_local >= ends)
                remote[np.arange(num_rows), devices] += np.bincount(new_rows[outside], minlength=num_rows)
        return edges, newly_active

    def _split_at_rows(self, vertices: np.ndarray, edges: np.ndarray) -> list[np.ndarray]:
        """Cut flat ``vertices`` at row boundaries into pushes of at most ``|E|`` edges.

        Greedy in row order; one row alone never exceeds ``|E|``.
        """
        num_edges = self.graph.num_edges
        cuts = vertices.searchsorted(np.arange(edges.size + 1) * self.graph.num_vertices).tolist()
        calls = []
        start = load = 0
        for row, row_edges in enumerate(edges.tolist()):
            if load and load + row_edges > num_edges:
                calls.append(vertices[cuts[start] : cuts[row]])
                start, load = row, 0
            load += row_edges
        calls.append(vertices[cuts[start] :])
        return calls


@dataclass(slots=True)
class _Block:
    """Stage 1 of a block of rows: its tasks in execution order, priced.

    Tasks run row by row and step by step: block row ``r`` (stacked row
    ``first + r``) owns tasks ``row_cuts[r]`` to ``row_cuts[r + 1]``, and
    a task's step is its place among them.  ``members`` are each task's
    partitions; ``transfer``, ``cpu`` and ``moved`` hold the compaction
    and zero-copy prices (the claims set the filter tasks' seconds).
    ``task_*`` place every task and ``cell_*`` every member partition at
    its (step, stacked row) for stage 2.
    """

    first: int
    task_tops: np.ndarray
    task_steps: np.ndarray
    devices: list[int]
    codes: list[int]
    members: list[list[int]]
    transfer: list[float]
    cpu: list[float]
    moved: list[int]
    row_cuts: list[int]
    engine_partitions: list[dict[str, int]]
    combined: bool
    cell_tops: np.ndarray
    cell_steps: np.ndarray
    cell_partitions: np.ndarray


class _Steps:
    """A plan's tasks laid out by (step, stacked row) for the fused stage 2.

    Stage 1 records each row's task count and filter-task steps;
    :meth:`lay_out` then masks ``members[s, r]``, the partitions of row
    ``r``'s ``s``-th task, and ``devices[s, r]``, its device.  Stage 2
    fills ``processed`` (edges per task) and ``remote`` (each row's
    remote activations per device).
    """

    def __init__(self, num_rows: int):
        self.task_counts = [0] * num_rows
        self.filter_steps: list[list[int]] = [[] for _ in range(num_rows)]

    def lay_out(self, blocks: list[_Block], num_partitions: int, num_devices: int) -> None:
        num_rows = len(self.task_counts)
        self.task_tops = _joined([block.task_tops for block in blocks])
        self.task_steps = _joined([block.task_steps for block in blocks])
        shape = (max(self.task_counts), num_rows)
        self.members = np.zeros(shape + (num_partitions,), dtype=bool)
        self.members[
            _joined([block.cell_steps for block in blocks]),
            _joined([block.cell_tops for block in blocks]),
            _joined([block.cell_partitions for block in blocks]),
        ] = True
        self.devices = np.zeros(shape, dtype=np.int64)
        if num_devices > 1:
            self.devices[self.task_steps, self.task_tops] = [
                device for block in blocks for device in block.devices
            ]
        self.processed = np.zeros(shape, dtype=np.int64)
        self.remote = np.zeros((num_rows, num_devices), dtype=np.int64)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end (the one array itself when there is one)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Wave:
    """The sessions of one program in a K-row plan, stacked for fused pushes.

    ``rows`` are the member sessions' indices in planning order; their
    pending bitmaps are one contiguous block of rows of the plan's stacked
    ``K x |V|`` bitmap (``pending`` is that block, stacked rows ``tops``), and ``state``
    lays their program states end to end, so flat ids ``i * |V| + v``
    address member ``i``.  A one-row wave uses the session's own state,
    so a solo plan copies nothing; ``row_states`` are each member's view.
    """

    def __init__(self, sessions: Sequence[QuerySession], rows: list[int], pending: np.ndarray, top: int):
        self.rows = rows
        self.tops = slice(top, top + len(rows))
        self.pending = pending[self.tops]
        self.flat_pending = self.pending.reshape(-1)
        self.program = sessions[rows[0]].program
        if len(rows) == 1:
            self.state = sessions[rows[0]].state
            self.row_states = [self.state]
            return
        names = sessions[rows[0]].state.arrays
        self.state = ProgramState(
            {name: np.concatenate([sessions[row].state[name] for row in rows]) for name in names}
        )
        matrices = {name: array.reshape(len(rows), -1) for name, array in self.state.arrays.items()}
        self.row_states = [
            ProgramState({name: matrix[offset] for name, matrix in matrices.items()})
            for offset in range(len(rows))
        ]

    def write_back(self, sessions: Sequence[QuerySession]) -> None:
        """Copy stacked state back into the member sessions' own arrays."""
        if len(self.rows) == 1:
            return
        for row, row_state in zip(self.rows, self.row_states):
            for name, array in sessions[row].state.arrays.items():
                array[...] = row_state[name]
