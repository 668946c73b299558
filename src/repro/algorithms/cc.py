"""Connected components via label propagation (value replacement).

Every vertex starts with its own id as its label and repeatedly adopts the
minimum label among its in-coming messages.  On an undirected
(symmetrized) graph the fixed point labels each connected component with
its smallest vertex id.  On a directed graph the propagation follows
out-edges only, so callers that want weakly connected components should
symmetrize the graph first (the paper's CC runs treat the inputs this
way; :mod:`repro.bench.workloads` does the symmetrization).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram, gather_edge_indices
from repro.core.backends import active_backend
from repro.graph.csr import CSRGraph

__all__ = ["ConnectedComponents"]


class ConnectedComponents(VertexProgram):
    """Min-label propagation connected components."""

    name = "CC"
    needs_weights = False
    needs_source = False
    needs_symmetric = True

    def create_state(self, graph: CSRGraph, source: int | None = None) -> ProgramState:
        labels = np.arange(graph.num_vertices, dtype=np.float64)
        return ProgramState({"label": labels})

    def initial_frontier(self, graph: CSRGraph, state: ProgramState, source: int | None = None) -> np.ndarray:
        return np.ones(graph.num_vertices, dtype=bool)

    def process(self, graph: CSRGraph, state: ProgramState, active_vertices: np.ndarray) -> np.ndarray:
        labels = state["label"]
        edge_indices, sources = gather_edge_indices(graph, active_vertices)
        if edge_indices.size == 0:
            return np.zeros(0, dtype=np.int64)
        destinations = graph.column_index[edge_indices]
        candidates = labels[sources]
        # Fused min-combine scatter: propagates the labels and returns the
        # destinations whose label shrank (repro.core.backends).
        return active_backend().push_and_activate(labels, destinations, candidates, combine="min")

    def vertex_result(self, state: ProgramState) -> np.ndarray:
        return state["label"]
