"""Single-source shortest paths (push-based, value replacement).

Figure 1 of the paper walks through exactly this computation: starting
from the source the current shortest distance is pushed along out-edges,
receivers keep the minimum, and a vertex whose distance improved becomes
active for the next iteration.  SSSP's active-vertex curve (grow, peak,
shrink) is one of the two workload patterns the motivating study is built
around.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram, gather_edge_indices
from repro.core.backends import active_backend
from repro.graph.csr import CSRGraph
from repro.graph.frontier import Frontier

__all__ = ["SSSP"]


class SSSP(VertexProgram):
    """Bellman-Ford style single-source shortest paths."""

    name = "SSSP"
    needs_weights = True
    needs_source = True

    def create_state(self, graph: CSRGraph, source: int | None = None) -> ProgramState:
        source = self.validate_source(graph, source)
        self.check_graph(graph)
        distances = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        distances[source] = 0.0
        return ProgramState({"dist": distances})

    def initial_frontier(self, graph: CSRGraph, state: ProgramState, source: int | None = None) -> Frontier:
        source = self.validate_source(graph, source)
        return Frontier.single(graph.num_vertices, source)

    def process(self, graph: CSRGraph, state: ProgramState, active_vertices: np.ndarray) -> np.ndarray:
        distances = state["dist"]
        edge_indices, sources = gather_edge_indices(graph, active_vertices)
        if edge_indices.size == 0:
            return np.zeros(0, dtype=np.int64)
        destinations = graph.column_index[edge_indices]
        weights = graph.edge_value[edge_indices]
        candidates = distances[sources] + weights
        # Fused min-combine scatter: relaxes all edges and returns the
        # destinations whose distance improved (repro.core.backends).
        return active_backend().push_and_activate(distances, destinations, candidates, combine="min")

    def vertex_result(self, state: ProgramState) -> np.ndarray:
        return state["dist"]
