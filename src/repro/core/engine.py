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
:meth:`~repro.core.cost_model.CostModel.estimate` (one ``bincount`` on
``row * P + partition``).  Selection, combining, prioritising, transfer
pricing and claims then run per query in planning order, so the window
dedup and the cache counters see the per-query sequence.  Execution is
fused per program (class and parameters): each query's tasks run in its
devices' round-robin order, and step ``s`` of every query runs as one
``process`` call over stacked ``K x |V|`` state with flat ids
``r * |V| + v``, its pending vertices found by one ``rows x |V|``
task mask.  No call carries more than ``|E|`` messages, the most one
solo sweep pushes; a larger step splits at query boundaries, which
bounds the per-edge temporaries.  Queries never share a destination and
each keeps its message order, so every scatter fold, value and simulated
number is the one per-query planning produces; K = 1 views the
session's own arrays and copies nothing.

Between engine selection and the batch fold an iteration is columns and
plain tuples, not a record per task.  The selection is an ``int8`` code
per partition (:class:`~repro.core.selection.SelectionResult`): the
residency pin, the per-shard mask and the per-engine counts are array
operations, and a run of consecutive filter partitions takes its actives
as one slice of the iteration's single sorted frontier scan.  Static
tables are built once (vertex ranges per engine, edge bytes and
explicit-copy time per context, zero-copy requests per vertex), and a
compaction or zero-copy task is priced by one ``transfer_task`` call.
Each scheduled task becomes one row of the
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
per-partition copy times left to right, and the tables hold the very
values the per-call formulas returned.
``benchmarks/layers/run.py`` measures every layer's host time;
``tests/test_call_budget.py`` gates the call count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Sequence

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.combiner import ScheduledTask, TaskCombiner
from repro.core.cost_model import CostModel, PartitionCosts
from repro.core.priority import ContributionScheduler
from repro.core.selection import (
    FILTER,
    INACTIVE,
    EngineSelector,
    SelectionResult,
    SelectionThresholds,
)
from repro.metrics.results import IterationStats
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamTask
from repro.transfer.base import ENGINE_LABEL, EngineKind, TransferEngine
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.zero_copy import ZeroCopyEngine

__all__ = ["HyTGraphOptions", "HyTGraphEngine"]

_FILTER = EngineKind.EXP_FILTER


@dataclass
class HyTGraphOptions:
    """Tunable behaviour of the HyTGraph engine.

    The defaults reproduce the full system of the paper; the ablation
    benchmarks flip individual switches.

    Partitioning granularity, the iteration bound, the device cache and
    the compute backend are not options: they are the constructor
    arguments every :class:`~repro.systems.base.GraphSystem` takes.

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
        config = context.config
        # Sink detection runs every iteration; the degree==0 mask is static.
        self._sink_mask = graph.out_degrees == 0
        self.cost_model = CostModel(graph, partitioning, config)
        self.selector = EngineSelector(options.thresholds)
        self.combiner = TaskCombiner(options.combine_factor, enabled=options.task_combining)
        self.priority = ContributionScheduler(graph, partitioning, enabled=options.contribution_scheduling)
        # Filter tasks are priced from the context's per-partition tables.
        self.engines: dict[EngineKind, TransferEngine] = {
            EngineKind.EXP_COMPACTION: ExplicitCompactionEngine(graph, config),
            EngineKind.IMP_ZERO_COPY: ZeroCopyEngine(graph, config),
        }
        # Static per-partition vertex bounds (a plain list: transfer
        # pricing indexes it one partition at a time) and sizes (the
        # fused steps expand partition masks to vertex masks with them).
        self._vertex_bounds = partitioning.vertex_boundaries.tolist()
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
        (a :class:`_Wave`) is contiguous.  Stage 1 — cost analysis,
        selection, combining, prioritising and every task's transfer
        price and :attr:`~repro.runtime.context.ExecutionContext.claim`
        — runs per session in the given order, so the window dedup and
        the cache counters see exactly the per-query sequence.  Stage 2
        runs each wave's task steps fused (:meth:`_execute_wave`).
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
        # feed the stats, the cost model and the task combiner.
        active = np.flatnonzero(pending)
        row_cuts = active.searchsorted(np.arange(num_rows + 1) * num_vertices).tolist()
        costs = self.cost_model.estimate(pending, active_ids=active)

        waves: list[_Wave] = []
        position = [0] * num_rows
        row_states: list[ProgramState | None] = [None] * num_rows
        top = 0
        for rows in groups:
            wave = _Wave(sessions, rows, pending[top : top + len(rows)])
            for offset, row in enumerate(rows):
                position[row] = top + offset
                row_states[row] = wave.row_states[offset]
            # Active vertices without out-edges generate no tasks (their
            # partitions carry no active edges), so handle them directly:
            # the push is a no-op for traversal algorithms and simply
            # folds the residual for accumulative ones.
            sinks = np.flatnonzero(wave.pending & self._sink_mask)
            if sinks.size:
                wave.flat_pending[sinks] = False
                wave.program.process(graph, wave.state, sinks)
            waves.append(wave)
            top += len(rows)

        # ----- Stage 1: per-query, per-device cost-aware task generation ---
        row_plans: list[_RowPlan] = []
        for row, session in enumerate(sessions):
            top = position[row]
            active_ids = active[row_cuts[top] : row_cuts[top + 1]]
            if top:
                active_ids = active_ids - top * num_vertices
            mark = context.cache_mark()
            row_plan = self._plan_row(session, costs.row(top), active_ids, pending[top], row_states[row])
            context.stamp_cache(row_plan.stats, mark)
            row_plans.append(row_plan)
        # Each device scans only its own shard's partitions, concurrently.
        shard_bounds = context.sharding.partition_bounds.tolist()
        widest_shard = max(last - first for first, last in zip(shard_bounds, shard_bounds[1:]))
        generation_overhead = self.kernel_model.device_scan_time(widest_shard)

        # ----- Stage 2: fused asynchronous task execution, per wave --------
        processed: list = [None] * num_rows
        remote: list = [None] * num_rows
        for wave in waves:
            wave_processed, wave_remote = self._execute_wave(wave, [row_plans[row] for row in wave.rows])
            for offset, row in enumerate(wave.rows):
                processed[row] = wave_processed[:, offset].tolist()
                remote[row] = wave_remote[offset].tolist()
            wave.write_back(sessions)
        if num_rows > 1:
            for top, row in enumerate(stack):
                sessions[row].pending[...] = pending[top]

        kernel_time = self.kernel_model.kernel_time
        plans = []
        for row, row_plan in enumerate(row_plans):
            stream_task_lists: list[list[StreamTask]] = context.empty_device_lists()
            edges = processed[row]
            # The task itself is the name: its label is formatted only if a
            # trace or a fault event reads it.
            for order, (device, task, label, transfer_time, cpu_time, overlapped) in enumerate(row_plan.steps):
                stream_task_lists[device].append(
                    StreamTask(
                        task, label, cpu_time, transfer_time,
                        kernel_time(edges[order], num_kernels=1), overlapped, float(order),
                    )
                )
            stats = row_plan.stats
            stats.processed_edges = sum(edges)
            plans.append(
                IterationPlan(
                    stats=stats,
                    device_tasks=stream_task_lists,
                    remote_updates=remote[row],
                    overhead_time=generation_overhead,
                )
            )
        return plans

    @staticmethod
    def _program_groups(sessions: Sequence[QuerySession]) -> list[list[int]]:
        """Session indices grouped by program (class and parameters), in order."""
        groups: dict[tuple, list[int]] = {}
        for row, session in enumerate(sessions):
            program = session.program
            key = (type(program), tuple(sorted(vars(program).items())))
            groups.setdefault(key, []).append(row)
        return list(groups.values())

    def _plan_row(
        self,
        session: QuerySession,
        costs: PartitionCosts,
        active_ids: np.ndarray,
        pending: np.ndarray,
        state: ProgramState,
    ) -> "_RowPlan":
        """Stage 1 of one query: its tasks in execution order, priced and claimed."""
        context = self.context
        cache = context.cache
        if cache is not None and cache.adaptive:
            # The frontier observation feeds the eviction policy (committed
            # at the next iteration boundary), and the cost model learns
            # what is already on a device: resident partitions — and
            # partitions another query shipped earlier in this transfer
            # window — price the filter engine at zero, so queries B..K
            # select the free path query A paid for.
            cache.observe_frontier(costs.active_edges)
            costs = self._discount_on_device_filter(costs, cache.resident, context.shipped)
        selection = self._force_resident_filter(self.selector.select(costs))
        shard_bounds = context.sharding.partition_bounds.tolist()
        device_task_lists: list[list[ScheduledTask]] = [
            self._device_tasks(first, last, selection, pending, active_ids, session.program, state)
            for first, last in zip(shard_bounds, shard_bounds[1:])
        ]

        # Devices drain their task queues concurrently; interleaving the
        # per-device priority orders round-robin keeps the global value
        # updates deterministic while modelling parallel progress.  Claims
        # never depend on execution, so every task is priced here, in the
        # order it will run.
        row_plan = _RowPlan()
        steps, partitions, partition_steps, whole_steps = (
            row_plan.steps, row_plan.partitions, row_plan.partition_steps, row_plan.whole_steps
        )
        transfer_bytes = 0
        engine_task_counts: dict[str, int] = {}
        longest = max((len(tasks) for tasks in device_task_lists), default=0)
        for depth in range(longest):
            for device, tasks in enumerate(device_task_lists):
                if depth >= len(tasks):
                    continue
                task = tasks[depth]
                moved_bytes, transfer_time, cpu_time, overlapped = self._account_task_transfer(task)
                engine_label = ENGINE_LABEL[task.engine]
                step = len(steps)
                if task.engine is _FILTER:
                    whole_steps.append(step)
                partition_steps += [step] * len(task.partition_indices)
                partitions += task.partition_indices
                steps.append((device, task, engine_label, transfer_time, cpu_time, overlapped))
                transfer_bytes += moved_bytes
                engine_task_counts[engine_label] = engine_task_counts.get(engine_label, 0) + 1
        row_plan.stats = IterationStats(
            index=session.iteration,
            time=0.0,
            active_vertices=active_ids.size,
            active_edges=int(costs.active_edges.sum()),
            transfer_bytes=transfer_bytes,
            processed_edges=0,
            engine_partitions=selection.counts(),
            engine_tasks=engine_task_counts,
        )
        return row_plan

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
        policies), free afterwards (:meth:`_account_task_transfer`).
        Cacheless sessions make this the identity.
        """
        cache = self.context.cache
        if cache is None or not cache.resident.any():
            return selection
        codes = selection.codes.copy()
        codes[cache.resident & (codes != INACTIVE)] = FILTER
        return SelectionResult(codes=codes)

    def _device_tasks(
        self,
        first: int,
        last: int,
        selection: SelectionResult,
        pending: np.ndarray,
        active_ids: np.ndarray,
        program: VertexProgram,
        state: ProgramState,
    ) -> list[ScheduledTask]:
        """Combine and prioritise the tasks of one device's shard, partitions ``[first, last)``."""
        if first == last:
            return []
        if last - first != self.partitioning.num_partitions:
            # Multi-device: mask the selection and the frontier down to
            # this shard (a single shard spans everything already).
            codes = np.zeros_like(selection.codes)
            codes[first:last] = selection.codes[first:last]
            selection = SelectionResult(codes=codes)
            bounds = self._vertex_bounds
            active_ids = active_ids[active_ids.searchsorted(bounds[first]) : active_ids.searchsorted(bounds[last])]
        tasks = self.combiner.combine(self.partitioning, selection, pending, active_ids=active_ids)
        return self.priority.prioritize(tasks, program, state)

    # ------------------------------------------------------------------
    # Fused task execution
    # ------------------------------------------------------------------
    def _execute_wave(self, wave: "_Wave", row_plans: list["_RowPlan"]) -> tuple[np.ndarray, np.ndarray]:
        """Run every row's tasks, step by step, as fused pushes.

        Step ``s`` runs each row's ``s``-th task: one push over every
        row's pending vertices inside that task's partitions, then one
        push re-processing what the tasks loaded.  The rows' task
        partitions form one ``rows x |V|`` mask per step, so the first
        round is one bitmap AND and one scan, and the second reads what
        the first activated.  Returns the edges each row's tasks
        processed (``steps x rows``) and each row's remote-activation
        messages per device (``rows x devices``).
        """
        num_rows = len(row_plans)
        tasks_per_row = [len(row_plan.steps) for row_plan in row_plans]
        num_steps = max(tasks_per_row)
        processed = np.zeros((num_steps, num_rows), dtype=np.int64)
        remote = np.zeros((num_rows, self.context.num_devices), dtype=np.int64)
        if num_steps == 0:
            return processed, remote
        # Per (step, row): the task's partitions and the device it runs on.
        members = np.zeros((num_steps, num_rows, self.partitioning.num_partitions), dtype=bool)
        members[
            list(chain.from_iterable(row_plan.partition_steps for row_plan in row_plans)),
            _row_ids([row_plan.partitions for row_plan in row_plans]),
            list(chain.from_iterable(row_plan.partitions for row_plan in row_plans)),
        ] = True
        devices = np.zeros((num_steps, num_rows), dtype=np.int64)
        if self.context.num_devices > 1:
            for offset, row_plan in enumerate(row_plans):
                devices[: len(row_plan.steps), offset] = [step[0] for step in row_plan.steps]
        # Per step: how many rows run a task, and how many a filter task.
        tasks_at = [0] * num_steps
        filters_at = [0] * num_steps
        for row_plan in row_plans:
            for step in range(len(row_plan.steps)):
                tasks_at[step] += 1
            for step in row_plan.whole_steps:
                filters_at[step] += 1

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
            if filters_at[step] == 0:
                reloaded = first_mask
            elif filters_at[step] == tasks_at[step]:
                reloaded = loaded
            else:
                whole = np.zeros(num_rows, dtype=bool)
                whole[[offset for offset, row_plan in enumerate(row_plans) if step in row_plan.whole_steps]] = True
                reloaded = np.where(whole[:, None], loaded, first_mask)
            second_round = newly_active[reloaded.reshape(-1)[newly_active]]
            if second_round.size:
                flat_pending[second_round] = False
                processed[step] += push(wave, second_round, devices[step], remote)[0]
        return processed, remote

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

    # ------------------------------------------------------------------
    # Transfer accounting
    # ------------------------------------------------------------------
    def _account_task_transfer(self, task: ScheduledTask) -> tuple[int, float, float, bool]:
        """Price one task's data movement, skipping already-on-device data.

        Returns ``(bytes moved, transfer seconds, cpu seconds, overlapped)``.

        A filter task pays one explicit copy per partition the context's
        claim leaves billable: cache-resident partitions are free reads
        (a one-off first-touch copy under the static policy, an
        admission after a billed miss under the adaptive ones) and so
        are partitions a peer query already shipped this transfer
        window.  Every partition inside a task holds at least one active
        vertex, so the billable cost is simply the sum of the context's
        per-partition copy table (whole-partition pricing).  Compaction
        and zero-copy transfers are query-specific and never shareable;
        resident partitions never choose them
        (:meth:`_force_resident_filter`).
        """
        indices = task.partition_indices
        if task.engine is _FILTER:
            context = self.context
            edge_bytes, copy_time = context.partition_bytes, context.partition_copy_time
            bytes_total = 0
            transfer_time = 0.0
            for index in self.context.claim(indices):
                bytes_total += edge_bytes[index]
                transfer_time += copy_time[index]
            return bytes_total, transfer_time, 0.0, False
        # Priced by the task's transfer engine.  active_vertices is
        # sorted, so each partition's slice is found by bisection.
        bounds = self._vertex_bounds
        boundaries = [bounds[index] for index in indices]
        boundaries.append(bounds[indices[-1] + 1])
        active = task.active_vertices
        outcome = self.engines[task.engine].transfer_task(active, active.searchsorted(boundaries))
        return outcome.bytes_transferred, outcome.transfer_time, outcome.cpu_time, outcome.overlapped


def _row_ids(per_row: list[list]) -> list[int]:
    """The row index of every item of ``per_row``'s lists, end to end."""
    return list(chain.from_iterable([row] * len(items) for row, items in enumerate(per_row)))


@dataclass(slots=True)
class _RowPlan:
    """Stage 1 of one query's K-row plan: its tasks in execution order, priced.

    ``steps`` holds one ``(device, task, engine label, transfer seconds,
    cpu seconds, overlapped)`` tuple per task in the devices' round-robin
    order, so a task's step is its index.  ``partitions`` lists every
    task's partition indices end to end and ``partition_steps`` the step
    of each; ``whole_steps`` are the steps of filter tasks (their second
    round re-reads whole partitions).  ``stats`` lacks only the
    processed-edge count, which stage 2 fills.
    """

    stats: IterationStats | None = None
    steps: list[tuple] = field(default_factory=list)
    partitions: list[int] = field(default_factory=list)
    partition_steps: list[int] = field(default_factory=list)
    whole_steps: list[int] = field(default_factory=list)


class _Wave:
    """The sessions of one program in a K-row plan, stacked for fused pushes.

    ``rows`` are the member sessions' indices in planning order; their
    pending bitmaps are one contiguous block of rows of the plan's stacked
    ``K x |V|`` bitmap (``pending`` is that block), and ``state``
    lays their program states end to end, so flat ids ``i * |V| + v``
    address member ``i``.  A one-row wave uses the session's own state,
    so a solo plan copies nothing; ``row_states`` are each member's view.
    """

    def __init__(self, sessions: Sequence[QuerySession], rows: list[int], pending: np.ndarray):
        self.rows = rows
        self.pending = pending
        self.flat_pending = pending.reshape(-1)
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
