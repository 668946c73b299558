"""The device-count-agnostic iteration driver.

Every system (and the HyTGraph engine) expresses one outer iteration as
an :class:`IterationPlan`: per-device :class:`~repro.sim.streams.StreamTask`
lists, per-device remote-activation counts and a prefilled
:class:`~repro.metrics.results.IterationStats` record.  The
:class:`IterationDriver` turns a plan into the iteration's timeline —
scheduling the device task lists over the shared host resources, pricing
the boundary-delta exchange and filling in the timing fields — without
ever branching on the device count: single-device sessions simply have
one device list and zero sync bytes.

Separating *planning* (which mutates program state and prices transfers)
from *scheduling* (which only consumes stream tasks) is what enables the
concurrent multi-query serving layer: the
:class:`~repro.runtime.batch.QueryBatchRunner` collects one plan per live
query, co-schedules the merged task lists on the shared devices, and
still charges each query its standalone statistics.

A planner is ``plan_iteration(session)`` and nothing more: what it may
skip shipping is decided by the context's transfer window, which
:meth:`IterationDriver.drive` opens once per solo iteration and the
batch runner once per super-iteration — the one difference between the
two, and not one a planner sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.core.backends import use_backend
from repro.metrics.results import IterationStats, RunResult
from repro.runtime.context import ExecutionContext
from repro.sim.streams import StreamTask

__all__ = ["FrontierSnapshot", "IterationPlan", "QuerySession", "IterationDriver"]

#: Timeline resource -> IterationStats field filled from its busy time.
_BUSY_FIELDS = {"cpu": "compaction_time", "pcie": "transfer_time", "gpu": "kernel_time"}


@dataclass
class FrontierSnapshot:
    """The frontier at the start of one iteration, split per device.

    ``per_device[d]`` is a sorted view of ``active_ids`` restricted to
    device ``d``'s shard; on single-device sessions it is the whole
    frontier.
    """

    active_ids: np.ndarray
    per_device: list[np.ndarray]
    active_vertices: int
    active_edges: int


@dataclass
class IterationPlan:
    """One iteration, planned but not yet scheduled.

    Attributes
    ----------
    stats:
        The iteration record with every *planning-time* field filled
        (frontier sizes, bytes, processed edges, engine mixes).  The
        driver fills the timing fields from the schedule.
    device_tasks:
        One stream-task list per device.
    remote_updates:
        Per-device remote-activation message counts (all zero on
        single-device sessions).
    overhead_time:
        Seconds charged on top of the schedule makespan (cost-analysis
        scans, one-off prefetches).
    busy_fields:
        Which timeline resources fill their stats field
        (``cpu``/``pcie``/``gpu``).  Planners that account a resource
        themselves (e.g. Grus folds its one-off prefetch into
        ``transfer_time``) drop it from the tuple.
    """

    stats: IterationStats
    device_tasks: list[list[StreamTask]]
    remote_updates: list[int]
    overhead_time: float = 0.0
    busy_fields: tuple[str, ...] = ("cpu", "pcie", "gpu")


@dataclass
class QuerySession:
    """Mutable state of one query (program + source) being executed."""

    program: VertexProgram
    source: int | None
    state: ProgramState
    pending: np.ndarray
    result: RunResult
    iteration: int = 0
    #: System-specific per-query scratch (e.g. Grus' pending-prefetch flag).
    scratch: dict = field(default_factory=dict)

    @property
    def live(self) -> bool:
        """Whether the query still has active vertices to process."""
        return bool(self.pending.any())


class IterationDriver:
    """Runs :class:`IterationPlan`s on an :class:`ExecutionContext`."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        #: Simulated elapsed seconds of the current solo run — where the
        #: next traced iteration's spans start.  Reset by :meth:`drive`;
        #: unused when the context's tracer is the no-op default.
        self._trace_elapsed = 0.0

    # ------------------------------------------------------------------
    # Pending-bitmap helpers
    # ------------------------------------------------------------------
    def snapshot(self, pending: np.ndarray) -> FrontierSnapshot:
        """One frontier scan: sorted ids, per-device views and counts."""
        active_ids = np.flatnonzero(pending)
        return FrontierSnapshot(
            active_ids=active_ids,
            per_device=self.context.split_frontier(active_ids),
            active_vertices=int(active_ids.size),
            active_edges=int(self.context.graph.out_degrees[active_ids].sum()),
        )

    def process_per_device(
        self,
        program: VertexProgram,
        state: ProgramState,
        pending: np.ndarray,
        per_device_active: list[np.ndarray],
        remote_updates: list[int],
    ) -> None:
        """Each device pushes its shard's frontier slice, in device order.

        The value arrays stay global (the boundary exchange is charged in
        time and bytes, not re-simulated in the semantics), so activations
        land directly in the shared pending bitmap; cross-shard ones are
        counted as the emitting device's outgoing delta messages.
        """
        graph = self.context.graph
        for device, device_active in enumerate(per_device_active):
            if device_active.size == 0:
                continue
            newly_active = program.process(graph, state, device_active)
            if newly_active.size:
                pending[newly_active] = True
                remote_updates[device] += self.context.count_remote(newly_active, device)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, planner, session: QuerySession, since=None) -> IterationPlan:
        """Run one planner iteration inside the already-open transfer window.

        The caller opened it
        (:meth:`~repro.runtime.context.ExecutionContext.begin_window`):
        :meth:`drive` per solo iteration, the batch runner per
        *super*-iteration before any query plans.  The plan's stats are
        stamped with the cache hit/miss/evicted bytes counted since
        ``since`` (a counter snapshot; default: one taken here).

        Planning is where ``program.process`` pushes messages, so a
        backend pinned on the context is scoped around the whole call —
        every kernel the iteration runs dispatches to it, while sessions
        without an explicit backend keep the ambient one.
        """
        context = self.context
        cache = context.cache
        if since is None and cache is not None:
            since = cache.snapshot_counters()
        if context.backend is None:
            plan = planner.plan_iteration(session)
        else:
            with use_backend(context.backend):
                plan = planner.plan_iteration(session)
        if cache is not None:
            delta = cache.delta(since)
            stats = plan.stats
            stats.cache_hit_bytes = delta["hit_bytes"]
            stats.cache_miss_bytes = delta["miss_bytes"]
            stats.cache_evicted_bytes = delta["evicted_bytes"]
        return plan

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def finish(self, plan: IterationPlan, trace_iteration: int | None = None) -> IterationStats:
        """Schedule one plan on its own and fill its timing fields.

        ``trace_iteration`` opts one *solo-run* iteration into span
        emission (its index names the span); batch-mode standalone
        finishes stay untraced — their merged timeline positions are the
        batch runner's to emit.
        """
        sync_bytes = self.context.sync_bytes(plan.remote_updates)
        timeline = self.context.schedule(plan.device_tasks, sync_bytes)
        stats = plan.stats
        stats.time = timeline.makespan * self.context.time_scale + plan.overhead_time
        for resource in plan.busy_fields:
            setattr(stats, _BUSY_FIELDS[resource], timeline.busy_time(resource))
        stats.interconnect_bytes = int(sum(sync_bytes))
        stats.sync_time = timeline.sync_time
        if trace_iteration is not None and self.context.tracer.enabled:
            self._emit_iteration_spans(stats, timeline, trace_iteration)
        return stats

    # ------------------------------------------------------------------
    # Tracing (solo runs; see repro.obs)
    # ------------------------------------------------------------------
    def _emit_iteration_spans(self, stats: IterationStats, timeline, iteration: int) -> None:
        """One iteration tile on the run's query lane + its device spans."""
        tracer = self.context.tracer
        scale = self.context.time_scale
        start = self._trace_elapsed
        end = start + stats.time
        tracer.span(
            "iteration", "iter%d" % iteration, "query:run", start, end,
            active_vertices=stats.active_vertices,
            active_edges=stats.active_edges,
            kernel_s=stats.kernel_time * scale,
            transfer_s=stats.transfer_time * scale,
            cpu_s=stats.compaction_time * scale,
            cache_hit_bytes=stats.cache_hit_bytes,
            cache_miss_bytes=stats.cache_miss_bytes,
        )
        for entry in timeline.entries:
            prefix = "dev%d:" % entry.device if entry.device >= 0 else ""
            for span in entry.spans:
                tracer.span(
                    "device", entry.name, prefix + span.resource,
                    start + span.start * scale, start + span.end * scale,
                    engine=entry.engine, stream=entry.stream,
                )
        self._trace_elapsed = end

    # ------------------------------------------------------------------
    # Checkpointing (fault recovery)
    # ------------------------------------------------------------------
    def capture_checkpoint(self, session: QuerySession):
        """Snapshot one query's state (values + frontier + residency)."""
        from repro.faults.checkpoint import QueryCheckpoint

        return QueryCheckpoint.capture(session, cache=self.context.cache)

    def restore_checkpoint(self, session: QuerySession, checkpoint) -> float:
        """Roll a query back; return the billed restore-transfer seconds."""
        return checkpoint.restore(session, config=self.context.config)

    def drive(self, planner, session: QuerySession, max_iterations: int) -> QuerySession:
        """Run ``planner`` to convergence (or the iteration bound).

        ``planner`` is anything exposing
        ``plan_iteration(session) -> IterationPlan`` — a
        :class:`~repro.systems.base.GraphSystem` or the HyTGraph engine.
        Every iteration is its own transfer window.
        """
        self._trace_elapsed = 0.0
        context = self.context
        cache = context.cache
        while session.pending.any() and session.iteration < max_iterations:
            # Snapshot before the window opens: the evictions committed
            # at the boundary belong to the iteration that triggered them.
            since = cache.snapshot_counters() if cache is not None else None
            context.begin_window()
            plan = self.plan(planner, session, since)
            session.result.iterations.append(self.finish(plan, trace_iteration=session.iteration))
            session.iteration += 1
        return session
