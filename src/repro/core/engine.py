"""The HyTGraph runtime (Figure 5).

The engine alternates two stages until the algorithm converges:

1. **Cost-aware task generation** — estimate the three engine costs for
   every partition containing active edges (:mod:`repro.core.cost_model`),
   select the cheapest engine per partition (:mod:`repro.core.selection`)
   and merge the selections into scheduler tasks
   (:mod:`repro.core.combiner`).
2. **Asynchronous task scheduling** — order the tasks by contribution
   (:mod:`repro.core.priority`), execute them (vertex-program semantics
   plus transfer-engine accounting) and run the resulting stage durations
   through the execution runtime (:mod:`repro.runtime`) to obtain the
   iteration's simulated wall-clock time.

Within an iteration execution is asynchronous: a task sees every value
update made by the tasks scheduled before it, and the loaded subgraph is
re-processed once (Section VI-A, "recomputes the loaded subgraph only
once") so cheap extra GPU work replaces future transfers.

Every behavioural feature is switchable through :class:`HyTGraphOptions`
so the ablation benchmarks (Figure 8) can turn task combining and
contribution-driven scheduling on and off independently.

Execution runtime
-----------------
The engine is device-count agnostic: it plans every iteration as one
:class:`~repro.runtime.driver.IterationPlan` — per-device task lists over
the contiguous partition-range shards of its
:class:`~repro.runtime.context.ExecutionContext` — and the shared
:class:`~repro.runtime.driver.IterationDriver` schedules it.  One device
is the trivial case (one shard, no residency, no boundary exchange), so
there is no separate single-device code path; multi-device sessions add
per-device shard residency and the per-iteration boundary-delta
synchronisation.  The same ``plan_iteration(session)`` serves solo runs
and the concurrent multi-query batch runner: whether a partition is
already on a device — cache-resident, or shipped earlier in the transfer
window by a peer query — is the context's decision
(:attr:`~repro.runtime.context.ExecutionContext.claim`); every filter
task is priced from the per-partition tables for what it leaves billable.

Performance architecture
------------------------
Between engine selection and the batch fold an iteration is columns and
plain tuples, not a record per task.  The selection is an ``int8`` code
per partition (:class:`~repro.core.selection.SelectionResult`): the
residency pin, the per-shard mask and the per-engine counts are array
operations, and a run of consecutive filter partitions takes its actives
as one slice of the iteration's single sorted frontier scan.  Static
per-partition tables (vertex range, edge bytes, explicit-copy time) are
built once per engine; pending vertices are found with slice views +
``nonzero``, never an O(|V|) per-task mask.  Each scheduled task becomes
one row of the :class:`~repro.sim.events.Timeline`, which maintains
makespan, busy time per resource and finish time per owning query while
it places; a merged co-schedule names each task's owner and class offset
next to the task instead of copying it.

Materialised on demand only: task labels, ``SelectionResult.choices``
and ``Timeline.entries`` (the records the tracer and the tests read) —
one scheduling path, traced or not.  Simulated numbers stay bitwise
because every float comes from the same operations in the same order: a
busy total adds one ``end - start`` per span in placement order, a filter
transfer adds the tabulated per-partition copy times left to right, and
the tables hold the very values the per-call formulas returned.
``benchmarks/layers/run.py`` measures every layer's host time;
``tests/test_call_budget.py`` gates the call count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.combiner import ScheduledTask, TaskCombiner
from repro.core.cost_model import CostModel
from repro.core.priority import ContributionScheduler
from repro.core.selection import (
    FILTER,
    INACTIVE,
    EngineSelector,
    SelectionResult,
    SelectionThresholds,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import DeviceShard, build_partitioning
from repro.graph.reorder import ReorderedGraph, hub_sort
from repro.metrics.results import IterationStats, RunResult
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import IterationDriver, IterationPlan, QuerySession
from repro.sim.config import HardwareConfig, default_config
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamTask
from repro.transfer.base import EngineKind, TransferEngine
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.explicit_filter import ExplicitFilterEngine
from repro.transfer.zero_copy import ZeroCopyEngine

__all__ = ["HyTGraphOptions", "HyTGraphEngine"]

_FILTER = EngineKind.EXP_FILTER
#: ``EngineKind.value`` without the enum descriptor (read once per task).
_ENGINE_LABEL = {kind: kind.value for kind in EngineKind}


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
    """Hybrid-transfer-management graph processing engine."""

    name = "HyTGraph"

    def __init__(
        self,
        graph: CSRGraph,
        config: HardwareConfig | None = None,
        options: HyTGraphOptions | None = None,
        num_partitions: int | None = None,
        partition_bytes: int | None = None,
        max_iterations: int = 10_000,
        cache_policy: str = "static-prefix",
        cache_budget: int | None = None,
        backend: str | None = None,
    ):
        self.original_graph = graph
        self.config = config or default_config()
        self.options = options or HyTGraphOptions()
        #: Outer-iteration bound (shared protocol with the systems).
        self.max_iterations = max_iterations

        self.preprocessing_time = 0.0
        self.reordering: ReorderedGraph | None = None
        if self.options.hub_sorting and graph.num_vertices > 0:
            self.reordering = hub_sort(graph, self.options.hub_fraction)
            self.graph = self.reordering.graph
            # Hub sorting reads and rewrites the edge arrays once on the
            # host; charge it at the CPU compaction throughput.  It is a
            # one-off cost shared by all subsequent runs (Section VI-A).
            self.preprocessing_time = 2 * graph.edge_data_bytes / self.config.cpu_compaction_throughput
        else:
            self.graph = graph

        self.partitioning = build_partitioning(self.graph, num_partitions, partition_bytes)
        # Sink detection runs every iteration; the degree==0 mask is static.
        self._sink_mask = self.graph.out_degrees == 0
        self.cost_model = CostModel(self.graph, self.partitioning, self.config)
        self.selector = EngineSelector(self.options.thresholds)
        self.combiner = TaskCombiner(self.options.combine_factor, enabled=self.options.task_combining)
        self.priority = ContributionScheduler(
            self.graph, self.partitioning, enabled=self.options.contribution_scheduling
        )
        self.kernel_model = KernelModel(self.config)
        self.engines: dict[EngineKind, TransferEngine] = {
            EngineKind.EXP_FILTER: ExplicitFilterEngine(self.graph, self.config),
            EngineKind.EXP_COMPACTION: ExplicitCompactionEngine(self.graph, self.config),
            EngineKind.IMP_ZERO_COPY: ZeroCopyEngine(self.graph, self.config),
        }
        # Static per-partition tables (plain lists: the task loop indexes
        # them one partition at a time).
        partitions = self.partitioning.partitions
        copy_time = self.engines[_FILTER].pcie.explicit_copy_time
        self._vertex_start = [partition.vertex_start for partition in partitions]
        self._vertex_end = [partition.vertex_end for partition in partitions]
        self._edge_bytes = [partition.edge_bytes for partition in partitions]
        self._copy_time = [copy_time(partition.edge_bytes) for partition in partitions]

        # Device-agnostic execution runtime: shards, the device-memory
        # cache and the shared-host scheduler.  One device is the
        # trivial case — one shard spanning every partition, no static
        # residency, no boundary exchange — so default single-device
        # runs stay bitwise identical to the historical dedicated path.
        self.context = ExecutionContext(
            self.graph,
            self.partitioning,
            self.config,
            cache_policy=cache_policy,
            cache_budget=cache_budget,
            backend=backend,
        )
        self.driver = IterationDriver(self.context)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _translate_source(self, source: int | None) -> int | None:
        if source is None or self.reordering is None:
            return source
        return self.reordering.translate_to_new(source)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def reset_run_state(self) -> None:
        """Reset warm cross-run state (engine caches, residency flags)."""
        for engine in self.engines.values():
            engine.reset()
        self.context.reset()

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        """Initialise one query against the preprocessed (hub-sorted) graph."""
        program.check_graph(self.graph)
        internal_source = self._translate_source(program.validate_source(self.original_graph, source))
        state = program.create_state(self.graph, internal_source)
        frontier = program.initial_frontier(self.graph, state, internal_source)

        result = RunResult(
            system=self.name,
            algorithm=program.name,
            graph_name=self.original_graph.name,
            preprocessing_time=self.preprocessing_time,
            extra={
                "backend": self.context.backend_name,
                "num_partitions": self.partitioning.num_partitions,
                "hub_sorted": self.reordering is not None,
                "task_combining": self.options.task_combining,
                "contribution_scheduling": self.options.contribution_scheduling,
            },
        )
        if self.context.is_multi_device:
            result.extra["num_devices"] = self.config.num_devices
            result.extra["interconnect"] = self.config.interconnect_kind
            result.extra["resident_partitions"] = self.context.num_resident_partitions

        return QuerySession(
            program=program,
            source=internal_source,
            state=state,
            pending=frontier.mask.copy(),
            result=result,
        )

    def finish_session(self, session: QuerySession) -> RunResult:
        """Finalise one query: convergence flag plus original-order values."""
        result = session.result
        result.converged = not session.pending.any()
        values = session.program.vertex_result(session.state)
        if self.reordering is not None:
            values = self.reordering.values_in_original_order(values)
        result.values = values
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        """Run ``program`` to convergence and return the full result record."""
        self.reset_run_state()
        session = self.start_session(program, source)
        self.driver.drive(self, session, self.max_iterations)
        return self.finish_session(session)

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        """One planned iteration (the planner protocol)."""
        return self._plan(session)

    def _plan(self, session: QuerySession) -> IterationPlan:
        """Plan one iteration: task generation, execution and accounting.

        Task generation, contribution scheduling and stream scheduling
        operate per device over the context's shards (one trivial shard
        on single-device sessions); the frontier and value arrays stay
        global — every device reads and writes the same program state,
        mirroring how real sharded runtimes keep vertex values consistent
        through the boundary exchange.  The host CPU and PCIe are shared;
        multi-device iterations end with the boundary-vertex delta
        exchange over the interconnect.
        """
        graph = self.graph
        context = self.context
        program, state, pending = session.program, session.state, session.pending
        # One frontier scan per iteration: the id array feeds the stats,
        # the cost model and the task combiner.
        active_ids = pending.nonzero()[0]
        active_edge_count = int(graph.out_degrees[active_ids].sum())

        # Active vertices without out-edges generate no tasks (their
        # partitions carry no active edges), so handle them directly: the
        # push is a no-op for traversal algorithms and simply folds the
        # residual for accumulative ones.
        sinks = (pending & self._sink_mask).nonzero()[0]
        if sinks.size:
            pending[sinks] = False
            program.process(graph, state, sinks)

        # ----- Stage 1: per-device cost-aware task generation --------------
        costs = self.cost_model.estimate(pending, active_ids=active_ids)
        cache = context.cache
        if cache is not None and cache.adaptive:
            # Frontier observation feeds the eviction policy (committed
            # at the next iteration boundary), and the cost model learns
            # what is already on a device: resident partitions — and
            # partitions another query shipped earlier in this transfer
            # window — price the filter engine at zero, so queries B..K
            # select the free path query A paid for.
            cache.observe_frontier(costs.active_edges)
            costs = self._discount_on_device_filter(costs, cache.resident, context.shipped)
        selection = self._force_resident_filter(self.selector.select(costs))
        sharding = context.sharding
        device_task_lists: list[list[ScheduledTask]] = [
            self._device_tasks(shard, selection, pending, active_ids, program, state)
            for shard in sharding
        ]
        # Each device scans only its own shard's partitions, concurrently.
        widest_shard = max((shard.num_partitions for shard in sharding), default=0)
        generation_overhead = self.kernel_model.device_scan_time(widest_shard)

        # ----- Stage 2: per-device asynchronous task execution -------------
        stream_task_lists: list[list[StreamTask]] = context.empty_device_lists()
        remote_updates = [0] * context.num_devices
        total_transfer_bytes = 0
        total_processed_edges = 0
        engine_task_counts: dict[str, int] = {}
        kernel_time = self.kernel_model.kernel_time

        # Devices drain their task queues concurrently; interleaving the
        # per-device priority orders round-robin keeps the global value
        # updates deterministic while modelling parallel progress.
        order = 0
        longest = max((len(tasks) for tasks in device_task_lists), default=0)
        for step in range(longest):
            for device, tasks in enumerate(device_task_lists):
                if step >= len(tasks):
                    continue
                task = tasks[step]
                processed_edges, remote_count = self._execute_task(task, program, state, pending, sharding[device])
                moved_bytes, transfer_time, cpu_time, overlapped = self._account_task_transfer(task)
                engine_label = _ENGINE_LABEL[task.engine]
                # The task itself is the name: its label is formatted
                # only if a trace or a fault event reads it.
                stream_task_lists[device].append(
                    StreamTask(
                        task, engine_label, cpu_time, transfer_time,
                        kernel_time(processed_edges, num_kernels=1), overlapped, float(order),
                    )
                )
                order += 1
                remote_updates[device] += remote_count
                total_transfer_bytes += moved_bytes
                total_processed_edges += processed_edges
                engine_task_counts[engine_label] = engine_task_counts.get(engine_label, 0) + 1

        stats = IterationStats(
            index=session.iteration,
            time=0.0,
            active_vertices=active_ids.size,
            active_edges=active_edge_count,
            transfer_bytes=total_transfer_bytes,
            processed_edges=total_processed_edges,
            engine_partitions=selection.counts(),
            engine_tasks=engine_task_counts,
        )
        return IterationPlan(
            stats=stats,
            device_tasks=stream_task_lists,
            remote_updates=remote_updates,
            overhead_time=generation_overhead,
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
        shard: DeviceShard,
        selection: SelectionResult,
        pending: np.ndarray,
        active_ids: np.ndarray,
        program: VertexProgram,
        state: ProgramState,
    ) -> list[ScheduledTask]:
        """Combine and prioritise one device's shard-local tasks."""
        if shard.num_partitions == 0:
            return []
        if shard.num_partitions != self.partitioning.num_partitions:
            # Multi-device: mask the selection and the frontier down to
            # this shard (a single shard spans everything already).
            members = shard.partition_indices()
            codes = np.zeros_like(selection.codes)
            codes[members.start : members.stop] = selection.codes[members.start : members.stop]
            selection = SelectionResult(codes=codes)
            active_ids = active_ids[
                active_ids.searchsorted(shard.vertex_start) : active_ids.searchsorted(shard.vertex_end)
            ]
        tasks = self.combiner.combine(self.partitioning, selection, pending, active_ids=active_ids)
        return self.priority.prioritize(tasks, program, state)

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _task_vertex_ranges(self, task: ScheduledTask) -> list[tuple[int, int]]:
        """Contiguous ``[start, end)`` vertex ranges covered by the task.

        Partitions hold consecutive vertex ranges and ``partition_indices``
        is ascending, so adjacent partitions merge into one range.  Every
        frontier query below is then a slice view plus ``nonzero`` on the
        slice, i.e. O(range size) not O(|V|).
        """
        starts, ends = self._vertex_start, self._vertex_end
        ranges: list[tuple[int, int]] = []
        range_start = range_end = -1
        for index in task.partition_indices:
            if starts[index] != range_end:
                if range_end >= 0:
                    ranges.append((range_start, range_end))
                range_start = starts[index]
            range_end = ends[index]
        if range_end >= 0:
            ranges.append((range_start, range_end))
        return ranges

    @staticmethod
    def _pending_in_ranges(pending: np.ndarray, ranges: list[tuple[int, int]]) -> np.ndarray:
        """Sorted pending vertex ids inside the given ranges (slice-local scan)."""
        chunks = []
        for start, end in ranges:
            chunk = pending[start:end].nonzero()[0]
            chunk += start
            chunks.append(chunk)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def _execute_task(
        self,
        task: ScheduledTask,
        program: VertexProgram,
        state: ProgramState,
        pending: np.ndarray,
        shard: DeviceShard,
    ) -> tuple[int, int]:
        """Run one task's vertex program; returns (edges processed, remote updates).

        Remote updates are activation messages for vertices owned by
        another shard — each becomes one ``(index entry, value)`` delta in
        the iteration's boundary exchange (always zero on single-device
        sessions, where the one shard owns everything).
        """
        graph = self.graph
        out_degrees = graph.out_degrees
        count_remote = self.context.num_devices > 1
        ranges = self._task_vertex_ranges(task)

        # Asynchronous semantics: process whatever is pending in this
        # task's partitions *now*, including activations produced by tasks
        # scheduled earlier in the same iteration.
        first_round = self._pending_in_ranges(pending, ranges)
        if first_round.size == 0:
            return 0, 0
        pending[first_round] = False
        processed_edges = int(out_degrees[first_round].sum())
        newly_active = program.process(graph, state, first_round)
        # Nothing re-activated means nothing of this task is pending again.
        if newly_active.size == 0:
            return processed_edges, 0
        pending[newly_active] = True
        remote_count = shard.count_remote(newly_active) if count_remote else 0

        if not self.options.recompute_loaded:
            return processed_edges, remote_count

        # Re-process the loaded subgraph once (Section VI-A): for filter
        # tasks the whole partition is resident on the GPU, for compaction
        # and zero-copy only the originally active vertices' edges are.
        if task.engine is _FILTER:
            second_round = self._pending_in_ranges(pending, ranges)
        else:
            second_round = first_round[pending[first_round]]
        if second_round.size:
            pending[second_round] = False
            processed_edges += int(out_degrees[second_round].sum())
            newly_active = program.process(graph, state, second_round)
            if newly_active.size:
                pending[newly_active] = True
                if count_remote:
                    remote_count += shard.count_remote(newly_active)
        return processed_edges, remote_count

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
        vertex, so the billable cost is simply the tabulated
        per-partition copy sum — identical to
        :meth:`~repro.transfer.explicit_filter.ExplicitFilterEngine.transfer`'s
        whole-partition pricing.  Compaction and zero-copy transfers are
        query-specific and never shareable; resident partitions never
        choose them (:meth:`_force_resident_filter`).
        """
        indices = task.partition_indices
        if task.engine is _FILTER:
            edge_bytes, copy_time = self._edge_bytes, self._copy_time
            bytes_total = 0
            transfer_time = 0.0
            for index in self.context.claim(indices):
                bytes_total += edge_bytes[index]
                transfer_time += copy_time[index]
            return bytes_total, transfer_time, 0.0, False
        # Priced by the task's transfer engine.  active_vertices is
        # sorted, so each partition's slice is found by bisection.
        partitions = self.partitioning.partitions
        boundaries = [self._vertex_start[index] for index in indices]
        boundaries.append(self._vertex_end[indices[-1]])
        active = task.active_vertices
        outcome = self.engines[task.engine].transfer_task(
            [partitions[index] for index in indices], active, active.searchsorted(boundaries)
        )
        return outcome.bytes_transferred, outcome.transfer_time, outcome.cpu_time, outcome.overlapped
