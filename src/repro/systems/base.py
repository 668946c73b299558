"""Shared machinery of the simulated graph processing systems.

Every system runs on the device-agnostic execution runtime
(:mod:`repro.runtime`): the base class builds one
:class:`~repro.runtime.context.ExecutionContext` (shards, residency,
schedulers — trivial at ``num_devices == 1``) and one
:class:`~repro.runtime.driver.IterationDriver`, and implements the
``run`` loop once.  Subclasses only describe *one iteration* by
implementing :meth:`GraphSystem.plan_iteration`; the same method serves
1..N devices, solo runs and the concurrent multi-query batch runner
(whose K-query :meth:`GraphSystem.plan_iterations` call plans each query
alone) — what is already on a device is the business of the context's
transfer window, not a planning argument.  A synchronous baseline states
only its tasks (stream tasks, billed bytes, engine mix) and hands them to
:meth:`GraphSystem._synchronous_plan`, which pushes the frontier and
records the iteration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.graph.csr import CSRGraph
from repro.graph.partition import build_partitioning
from repro.metrics.results import IterationStats, RunResult
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import FrontierSnapshot, IterationDriver, IterationPlan, QuerySession
from repro.sim.config import HardwareConfig, default_config
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamTask

__all__ = ["GraphSystem"]

DEFAULT_MAX_ITERATIONS = 10_000


class GraphSystem(ABC):
    """Base class: one system bound to one graph and one hardware config.

    Subclasses implement :meth:`plan_iteration`; the base class provides
    the graph partitioning, the cost models, the execution runtime and
    the run loop every system shares.
    """

    #: Display name used in result tables.
    name: str = "system"

    #: Whether the system's transfer policy generalises to sharded
    #: multi-device execution.  Systems that don't refuse
    #: ``num_devices > 1`` configs instead of silently running
    #: single-device.
    supports_multi_device: bool = False

    def __init__(
        self,
        graph: CSRGraph,
        config: HardwareConfig | None = None,
        num_partitions: int | None = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        cache_policy: str = "static-prefix",
        cache_budget: int | None = None,
        backend: str | None = None,
    ):
        self.graph = graph
        self.config = config or default_config()
        self.max_iterations = max_iterations
        if self.config.num_devices > 1 and not self.supports_multi_device:
            raise ValueError(
                "%s has no multi-device execution path; run it with num_devices=1"
                % self.name
            )
        self.kernel_model = KernelModel(self.config)
        self.partitioning = build_partitioning(graph, num_partitions)
        # The context holds the live cache policy/budget
        # (:mod:`repro.cache`) and resolves the kernel backend, so an
        # unknown or unavailable backend fails construction, not mid-run.
        self.context = ExecutionContext(
            self.graph,
            self.partitioning,
            self.config,
            cache_policy=cache_policy,
            cache_budget=cache_budget,
            backend=backend,
        )
        self.driver = IterationDriver(self.context)

    @property
    def sharding(self):
        """The context's device shards (one trivial shard at 1 device)."""
        return self.context.sharding

    # ------------------------------------------------------------------
    # Session lifecycle (shared by run() and the batch runner)
    # ------------------------------------------------------------------
    def reset_run_state(self) -> None:
        """Reset warm cross-run state (residency flags, page caches).

        ``run`` calls this per run; the batch runner calls it once per
        batch so the warm state is shared across the batch's queries.
        """
        self.context.reset()

    def executed_id(self, vertex: int) -> int:
        """The id of the caller's ``vertex`` in the executed graph (``context.graph``)."""
        return vertex

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        """Initialise one query: program state, frontier and result record.

        ``source`` is a caller's vertex id; the state and the frontier
        live on the executed graph.
        """
        program.check_graph(self.graph)
        source = program.validate_source(self.graph, source)
        if source is not None:
            source = self.executed_id(source)
        graph = self.context.graph
        state = program.create_state(graph, source)
        result = RunResult(system=self.name, algorithm=program.name, graph_name=self.graph.name)
        result.extra["backend"] = self.context.backend_name
        if self.context.is_multi_device:
            result.extra["num_devices"] = self.config.num_devices
            result.extra["interconnect"] = self.config.interconnect_kind
        return QuerySession(
            program=program,
            source=source,
            state=state,
            pending=program.initial_frontier(graph, state, source),
            result=result,
        )

    def finish_session(self, session: QuerySession) -> RunResult:
        """Finalise one query's result record."""
        result = session.result
        result.converged = not session.pending.any()
        result.values = session.program.vertex_result(session.state)
        self._annotate_result(result, session)
        return result

    def _annotate_result(self, result: RunResult, session: QuerySession) -> None:
        """Hook: system-specific extras or value order (default: nothing)."""

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        """Execute ``program`` to convergence on this system."""
        self.reset_run_state()
        session = self.start_session(program, source)
        self.driver.drive(self, session, self.max_iterations)
        return self.finish_session(session)

    def plan_iterations(self, sessions: list[QuerySession]) -> list[IterationPlan]:
        """Plan one iteration of every session (the planner protocol).

        The default plans each session alone, in order, and stamps each
        plan with the cache bytes its own claims moved.
        """
        context = self.context
        plans = []
        for session in sessions:
            mark = context.cache_mark()
            plan = self.plan_iteration(session)
            context.stamp_cache(plan.stats, mark)
            plans.append(plan)
        return plans

    @abstractmethod
    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        """Plan (and semantically execute) one outer iteration.

        Implementations mutate ``session.state`` / ``session.pending``
        exactly as the iteration's kernels would and return the
        iteration's per-device stream tasks, remote-activation counts
        and prefilled statistics.  Whole-partition ships are billed
        through ``self.context.claim``, which skips what the cache or a
        peer query of the same transfer window already put on a device.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _synchronous_plan(
        self,
        session: QuerySession,
        frontier: FrontierSnapshot,
        device_tasks: list[list[StreamTask]],
        transfer_bytes: int,
        engine_partitions: dict[str, int],
        engine_tasks: dict[str, int] | None = None,
        **plan,
    ) -> IterationPlan:
        """Push the whole frontier once and record the iteration.

        The tail of every synchronous baseline: every active vertex
        pushes once, each device its own shard's slice, and the
        iteration's record counts exactly the frontier's edges as
        processed.  ``engine_tasks`` defaults to ``engine_partitions``;
        ``plan`` passes on to :class:`IterationPlan`.
        """
        pending = session.pending
        pending[frontier.active_ids] = False
        remote_updates = [0] * self.context.num_devices
        self.driver.process_per_device(
            session.program, session.state, pending, frontier.per_device, remote_updates
        )
        stats = IterationStats(
            index=session.iteration,
            time=0.0,
            active_vertices=frontier.active_vertices,
            active_edges=frontier.active_edges,
            transfer_bytes=transfer_bytes,
            processed_edges=frontier.active_edges,
            engine_partitions=engine_partitions,
            engine_tasks=dict(engine_partitions) if engine_tasks is None else engine_tasks,
        )
        return IterationPlan(stats=stats, device_tasks=device_tasks, remote_updates=remote_updates, **plan)

    def _active_edge_count(self, active_vertices: np.ndarray) -> int:
        if active_vertices.size == 0:
            return 0
        return int(self.graph.out_degrees[active_vertices].sum())
