"""The device-count-agnostic iteration driver.

Every system expresses one outer iteration as
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

A planner is ``plan_iterations(sessions)``: one plan per session, in
order, from one call.  A solo iteration is the K = 1 call; the batch
runner passes every live query of a super-iteration, so a planner may
share work across them (HyTGraph's planner pushes every query of one
program in one fused call per task step), while a baseline simply plans
each session alone (:meth:`~repro.systems.base.GraphSystem.plan_iterations`).
A baseline planner starts from :meth:`IterationDriver.snapshot`: one
scan of the pending bitmap into sorted ids, per-device views, counts and
the frontier's per-partition totals
(:meth:`~repro.runtime.context.ExecutionContext.frontier_totals`), the
quantities every transfer price is a function of.
What a planner may skip shipping is decided by the context's transfer
window, which :meth:`IterationDriver.drive` opens once per solo
iteration and the batch runner once per super-iteration — the one
difference between the two, and not one a planner sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram
from repro.metrics.results import IterationStats, RunResult
from repro.runtime.context import ExecutionContext, FrontierTotals
from repro.sim.streams import StreamTask

__all__ = ["FrontierSnapshot", "IterationPlan", "QuerySession", "IterationDriver"]

#: Timeline resource -> IterationStats field filled from its busy time.
_BUSY_FIELDS = {"cpu": "compaction_time", "pcie": "transfer_time", "gpu": "kernel_time"}


@dataclass
class FrontierSnapshot:
    """The frontier at the start of one iteration, split per device.

    ``per_device[d]`` is a sorted view of ``active_ids`` restricted to
    device ``d``'s shard; on single-device sessions it is the whole
    frontier.  ``totals`` are its per-partition totals, which the
    baselines price from.
    """

    active_ids: np.ndarray
    per_device: list[np.ndarray]
    active_vertices: int
    active_edges: int
    totals: FrontierTotals


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
    #: System-specific per-query scratch (e.g. ImpTM-UM's per-query
    #: page-cache counters).
    scratch: dict = field(default_factory=dict)

    @property
    def live(self) -> bool:
        """Whether the query still has active vertices to process."""
        return bool(self.pending.any())


class IterationDriver:
    """Runs :class:`IterationPlan`s on an :class:`ExecutionContext`."""

    def __init__(self, context: ExecutionContext):
        self.context = context

    # ------------------------------------------------------------------
    # Pending-bitmap helpers
    # ------------------------------------------------------------------
    def snapshot(self, pending: np.ndarray) -> FrontierSnapshot:
        """One frontier scan: sorted ids, per-device views, counts and totals."""
        active_ids = np.flatnonzero(pending)
        totals = self.context.frontier_totals(pending, active_ids)
        return FrontierSnapshot(
            active_ids=active_ids,
            per_device=self.context.split_frontier(active_ids),
            active_vertices=int(active_ids.size),
            active_edges=int(totals.active_edges.sum()),
            totals=totals,
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
    def plan(self, planner, sessions: list[QuerySession], since=None) -> list[IterationPlan]:
        """Plan one iteration of every session, inside the open transfer window.

        One ``planner.plan_iterations(sessions)`` call returns one plan
        per session, in order.  The caller opened the window
        (:meth:`~repro.runtime.context.ExecutionContext.begin_window`):
        :meth:`drive` per solo iteration, the batch runner per
        *super*-iteration before any query plans.  Each plan's stats
        carry the cache bytes of its own query's claims; ``since`` (a
        counter snapshot, solo runs only) restamps the one plan from an
        earlier point, so it also owns the evictions committed when the
        window opened.
        """
        plans = planner.plan_iterations(sessions)
        if since is not None:
            self.context.stamp_cache(plans[0].stats, since)
        return plans

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def finish(self, plan: IterationPlan) -> IterationStats:
        """Schedule one plan on its own and fill its timing fields.

        Emits no spans: only the batch runner traces, from the merged
        timeline, so a solo run on a traced service's context leaves the
        service's trace untouched.
        """
        sync_bytes = self.context.sync_bytes(plan.remote_updates)
        timeline = self.context.schedule(plan.device_tasks, sync_bytes)
        stats = plan.stats
        stats.time = timeline.makespan * self.context.time_scale + plan.overhead_time
        for resource in plan.busy_fields:
            setattr(stats, _BUSY_FIELDS[resource], timeline.busy_time(resource))
        stats.interconnect_bytes = int(sum(sync_bytes))
        stats.sync_time = timeline.sync_time
        return stats

    def drive(self, planner, session: QuerySession, max_iterations: int) -> QuerySession:
        """Run ``planner`` to convergence (or the iteration bound).

        ``planner`` is anything exposing
        ``plan_iterations(sessions) -> list[IterationPlan]``: a
        :class:`~repro.systems.base.GraphSystem`.
        Every iteration is its own transfer window.
        """
        context = self.context
        while session.pending.any() and session.iteration < max_iterations:
            # Snapshot before the window opens: the evictions committed
            # at the boundary belong to the iteration that triggered them.
            since = context.cache_mark()
            context.begin_window()
            [plan] = self.plan(planner, [session], since)
            session.result.iterations.append(self.finish(plan))
            session.iteration += 1
        return session
