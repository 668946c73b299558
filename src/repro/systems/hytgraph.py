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
        **shared,
    ):
        # ``shared``: the knobs of the GraphSystem signature (partitioning,
        # iteration bound, cache, backend); the engine builds the runtime,
        # so it takes them as the same keyword arguments.
        super().__init__(graph, config=config, **shared)
        self.options = options or HyTGraphOptions()
        self.engine = HyTGraphEngine(graph, config=self.config, options=self.options, **shared)
        # Execute on the engine's runtime, built over the hub-sorted
        # graph's partitioning (builds_runtime=False skips the base build).
        self.partitioning = self.engine.partitioning
        self.context = self.engine.context
        self.driver = self.engine.driver

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        return self.engine.start_session(program, source)

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        return self.engine.plan_iteration(session)

    def plan_iterations(self, sessions: list[QuerySession]) -> list[IterationPlan]:
        return self.engine.plan_iterations(sessions)

    def finish_session(self, session: QuerySession) -> RunResult:
        return self.engine.finish_session(session)

    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        return self.engine.run(program, source=source)
