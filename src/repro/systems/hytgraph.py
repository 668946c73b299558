"""HyTGraph wrapped in the common :class:`GraphSystem` interface.

The actual runtime lives in :mod:`repro.core.engine`; this wrapper exists
so the benchmark harness can instantiate the paper's system exactly like
the baselines and collect identical :class:`~repro.metrics.results.RunResult`
records.  The wrapper adopts the engine's execution context and driver
(built over the hub-sorted graph's partitioning), so the session/plan
protocol — including the concurrent multi-query batch runner — drives
the engine directly.
"""

from __future__ import annotations

from repro.algorithms.base import VertexProgram
from repro.core.engine import HyTGraphEngine, HyTGraphOptions
from repro.graph.csr import CSRGraph
from repro.metrics.results import RunResult
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.config import HardwareConfig
from repro.systems.base import GraphSystem

__all__ = ["HyTGraphSystem"]


class HyTGraphSystem(GraphSystem):
    """The paper's hybrid-transfer-management system."""

    name = "HyTGraph"
    supports_multi_device = True
    builds_runtime = False

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
        super().__init__(
            graph,
            config=config,
            num_partitions=num_partitions,
            partition_bytes=partition_bytes,
            max_iterations=max_iterations,
            cache_policy=cache_policy,
            cache_budget=cache_budget,
            backend=backend,
        )
        self.options = options or HyTGraphOptions()
        if num_partitions is not None:
            self.options.num_partitions = num_partitions
        if partition_bytes is not None:
            self.options.partition_bytes = partition_bytes
        self.options.max_iterations = max_iterations
        # The engine builds the runtime, so the cache and backend knobs
        # ride in through its options (explicit arguments win over an
        # options object carrying the defaults).
        if cache_policy != "static-prefix":
            self.options.cache_policy = cache_policy
        if cache_budget is not None:
            self.options.cache_budget = cache_budget
        if backend is not None:
            self.options.backend = backend
        self.engine = HyTGraphEngine(graph, config=self.config, options=self.options)
        # Execute on the engine's runtime, built over the hub-sorted
        # graph's partitioning (builds_runtime=False skips the base build).
        self.partitioning = self.engine.partitioning
        self.context = self.engine.context
        self.driver = self.engine.driver

    def reset_run_state(self) -> None:
        self.engine.reset_run_state()

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        session = self.engine.start_session(program, source)
        session.result.system = self.name
        return session

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        return self.engine.plan_iteration(session)

    def finish_session(self, session: QuerySession) -> RunResult:
        result = self.engine.finish_session(session)
        result.system = self.name
        return result

    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        result = self.engine.run(program, source=source)
        result.system = self.name
        return result
