"""The paper's system: HyTGraph as one :class:`GraphSystem`.

Preprocessing hub-sorts the graph (Section VI-A); the base class then
builds the one partitioning, execution context and driver over the
sorted copy, and :class:`~repro.core.engine.HyTGraphEngine` plans every
iteration over them (Figure 5).  Callers keep their own vertex ids:
``graph`` is the caller's graph, a source is translated on the way in
(:meth:`HyTGraphSystem.executed_id`) and values are restored to the
caller's order on the way out.
"""

from __future__ import annotations

from repro.algorithms.base import VertexProgram
from repro.core.engine import HyTGraphEngine, HyTGraphOptions
from repro.graph.csr import CSRGraph
from repro.graph.reorder import ReorderedGraph, hub_sort
from repro.metrics.results import RunResult
from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.config import HardwareConfig
from repro.systems.base import GraphSystem

__all__ = ["HyTGraphSystem"]


class HyTGraphSystem(GraphSystem):
    """The paper's hybrid-transfer-management system."""

    name = "HyTGraph"
    supports_multi_device = True

    def __init__(
        self,
        graph: CSRGraph,
        config: HardwareConfig | None = None,
        options: HyTGraphOptions | None = None,
        **shared,
    ):
        self.options = options or HyTGraphOptions()
        self.reordering: ReorderedGraph | None = None
        executed = graph
        if self.options.hub_sorting and graph.num_vertices > 0:
            self.reordering = hub_sort(graph, self.options.hub_fraction)
            executed = self.reordering.graph
        # ``shared``: the knobs of the GraphSystem signature.  The base
        # builds the runtime over the graph it is given — the sorted
        # copy — and ``graph`` then goes back to being the caller's.
        super().__init__(executed, config=config, **shared)
        self.graph = graph
        # Hub sorting reads and rewrites the edge arrays once on the
        # host; charge it at the CPU compaction throughput.  It is a
        # one-off cost shared by all subsequent runs (Section VI-A).
        self.preprocessing_time = 0.0
        if self.reordering is not None:
            self.preprocessing_time = 2 * graph.edge_data_bytes / self.config.cpu_compaction_throughput
        self.engine = HyTGraphEngine(self.context, self.kernel_model, self.options)

    def executed_id(self, vertex: int) -> int:
        if self.reordering is None:
            return vertex
        return self.reordering.translate_to_new(vertex)

    def start_session(self, program: VertexProgram, source: int | None = None) -> QuerySession:
        session = super().start_session(program, source)
        result = session.result
        result.preprocessing_time = self.preprocessing_time
        # HyTGraph's keys sit between the backend and the multi-device ones.
        extra = result.extra
        result.extra = {
            "backend": extra.pop("backend"),
            "num_partitions": self.partitioning.num_partitions,
            "hub_sorted": self.reordering is not None,
            "task_combining": self.options.task_combining,
            "contribution_scheduling": self.options.contribution_scheduling,
            **extra,
        }
        if self.context.is_multi_device:
            result.extra["resident_partitions"] = self.context.num_resident_partitions
        return session

    def _annotate_result(self, result: RunResult, session: QuerySession) -> None:
        if self.reordering is not None:
            result.values = self.reordering.values_in_original_order(result.values)

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        return self.engine._plan([session])[0]

    def plan_iterations(self, sessions: list[QuerySession]) -> list[IterationPlan]:
        return self.engine._plan(sessions)

    def run(self, program: VertexProgram, source: int | None = None) -> RunResult:
        # Defined here for two consumers: the layer ledger's solo root
        # probe, and the perf harness's ``_SEED_SWAPS``, which swaps
        # HyTGraph's run loop for the seed one.
        return super().run(program, source)
