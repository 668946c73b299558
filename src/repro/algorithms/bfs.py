"""Breadth-first search (level computation, value replacement).

BFS is the lightest of the paper's four workloads: every vertex is
activated at most a handful of times and the frontier burns through the
graph in few iterations, which is why the task-combining and
contribution-driven-scheduling optimisations barely help it (Figure 8
discussion).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram, gather_edge_indices
from repro.core.backends import active_backend
from repro.graph.csr import CSRGraph
from repro.graph.frontier import Frontier

__all__ = ["BFS"]


class BFS(VertexProgram):
    """Single-source BFS computing hop distances (levels)."""

    name = "BFS"
    needs_weights = False
    needs_source = True

    def create_state(self, graph: CSRGraph, source: int | None = None) -> ProgramState:
        source = self.validate_source(graph, source)
        levels = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        levels[source] = 0.0
        return ProgramState({"level": levels})

    def initial_frontier(self, graph: CSRGraph, state: ProgramState, source: int | None = None) -> Frontier:
        source = self.validate_source(graph, source)
        return Frontier.single(graph.num_vertices, source)

    def process(self, graph: CSRGraph, state: ProgramState, active_vertices: np.ndarray) -> np.ndarray:
        levels = state["level"]
        edge_indices, sources = gather_edge_indices(graph, active_vertices)
        if edge_indices.size == 0:
            return np.zeros(0, dtype=np.int64)
        destinations = graph.column_index[edge_indices]
        candidates = levels[sources] + 1.0
        # Fused min-combine scatter: applies the level updates and returns
        # the destinations whose level dropped (repro.core.backends).
        return active_backend().push_and_activate(levels, destinations, candidates, combine="min")

    def vertex_result(self, state: ProgramState) -> np.ndarray:
        return state["level"]
