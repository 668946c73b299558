"""Shared machinery of the simulated graph processing systems.

Every system runs on the device-agnostic execution runtime
(:mod:`repro.runtime`): the base class builds one
:class:`~repro.runtime.context.ExecutionContext` (shards, residency,
schedulers — trivial at ``num_devices == 1``) and one
:class:`~repro.runtime.driver.IterationDriver`, and implements the
``run`` loop once.  Subclasses only describe *one iteration* by
implementing :meth:`GraphSystem.plan_iteration`; the same method serves
1..N devices, solo runs and the concurrent multi-query batch runner —
what is already on a device is the business of the context's transfer
window, not a planning argument.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.algorithms.base import VertexProgram
from repro.graph.csr import CSRGraph
from repro.graph.partition import build_partitioning
from repro.metrics.results import RunResult
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import IterationDriver, IterationPlan, QuerySession
from repro.sim.config import HardwareConfig, default_config
from repro.sim.kernel import KernelModel
from repro.sim.pcie import PCIeModel

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

    #: Subclasses that adopt another component's runtime (the HyTGraph
    #: wrapper executes on its engine's hub-sorted partitioning) set
    #: this False and install ``partitioning``/``context``/``driver``
    #: themselves instead of having the base build a discarded set.
    builds_runtime: bool = True

    def __init__(
        self,
        graph: CSRGraph,
        config: HardwareConfig | None = None,
        num_partitions: int | None = None,
        partition_bytes: int | None = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        cache_policy: str = "static-prefix",
        cache_budget: int | None = None,
        backend: str | None = None,
    ):
        self.graph = graph
        self.config = config or default_config()
        self.max_iterations = max_iterations
        #: Device-memory cache policy/budget (:mod:`repro.cache`).
        #: Whole-partition transfer paths consult the context's cache;
        #: systems whose transfers are query-specific (compaction,
        #: zero-copy, UM paging) simply never hit it.
        self.cache_policy = cache_policy
        self.cache_budget = cache_budget
        #: Compute backend for the kernel layer (``None`` = ambient/default;
        #: see :mod:`repro.core.backends`).  Resolved by the context so an
        #: unknown or unavailable backend fails construction, not mid-run.
        self.backend = backend
        if self.config.num_devices > 1 and not self.supports_multi_device:
            raise ValueError(
                "%s has no multi-device execution path; run it with num_devices=1"
                % self.name
            )
        self.kernel_model = KernelModel(self.config)
        self.pcie = PCIeModel(self.config)
        if self.builds_runtime:
            self.partitioning = build_partitioning(graph, num_partitions, partition_bytes)
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

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        """Initialise one query: program state, frontier and result record."""
        program.check_graph(self.graph)
        source = program.validate_source(self.graph, source)
        state = program.create_state(self.graph, source)
        frontier = program.initial_frontier(self.graph, state, source)
        result = RunResult(system=self.name, algorithm=program.name, graph_name=self.graph.name)
        result.extra["backend"] = self.context.backend_name
        if self.context.is_multi_device:
            result.extra["num_devices"] = self.config.num_devices
            result.extra["interconnect"] = self.config.interconnect_kind
        session = QuerySession(
            program=program,
            source=source,
            state=state,
            pending=frontier.mask.copy(),
            result=result,
        )
        self._prepare_session(session)
        return session

    def _prepare_session(self, session: QuerySession) -> None:
        """Hook: populate per-query scratch state (default: nothing)."""

    def finish_session(self, session: QuerySession) -> RunResult:
        """Finalise one query's result record."""
        result = session.result
        result.converged = not session.pending.any()
        result.values = session.program.vertex_result(session.state)
        self._annotate_result(result, session)
        return result

    def _annotate_result(self, result: RunResult, session: QuerySession) -> None:
        """Hook: attach system-specific extras (default: nothing)."""

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        """Execute ``program`` to convergence on this system."""
        self.reset_run_state()
        session = self.start_session(program, source)
        self.driver.drive(self, session, self.max_iterations)
        return self.finish_session(session)

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
    def _active_edge_count(self, active_vertices: np.ndarray) -> int:
        if active_vertices.size == 0:
            return 0
        return int(self.graph.out_degrees[active_vertices].sum())
