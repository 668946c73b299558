"""Penalized hitting probability (PHP), an accumulative proximity measure.

PHP [Zhang et al., TPDS 2014 — the Maiter paper the HyTGraph authors cite
for Δ-driven scheduling] measures the proximity of every vertex to a query
source: the source holds probability 1 and every other vertex accumulates
penalised probability mass flowing along edges,

    php[v] = c * sum_{u -> v, u != source}  w(u, v) / W(u) * php[u],
    php[source] = 1,

where ``W(u)`` is the total out-weight of ``u`` and ``c < 1`` the penalty
factor.  Like Δ-PageRank it is computed accumulatively: residual mass is
pushed along out-edges and folded into the vertex value, so it slots into
the same Δ-driven priority machinery.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram, gather_edge_indices
from repro.core.backends import active_backend
from repro.graph.csr import CSRGraph
from repro.graph.frontier import Frontier

__all__ = ["PHP"]


class PHP(VertexProgram):
    """Penalized hitting probability from a query source."""

    name = "PHP"
    needs_weights = False
    needs_source = True
    accumulative = True

    def __init__(self, penalty: float = 0.8, tolerance: float = 1e-4):
        if not 0.0 < penalty < 1.0:
            raise ValueError("penalty must be in (0, 1)")
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        self.penalty = penalty
        self.tolerance = tolerance

    def create_state(self, graph: CSRGraph, source: int | None = None) -> ProgramState:
        source = self.validate_source(graph, source)
        values = np.zeros(graph.num_vertices, dtype=np.float64)
        deltas = np.zeros(graph.num_vertices, dtype=np.float64)
        deltas[source] = 1.0
        return ProgramState({"php": values, "delta": deltas, "source": np.array([source], dtype=np.int64)})

    def initial_frontier(self, graph: CSRGraph, state: ProgramState, source: int | None = None) -> Frontier:
        source = self.validate_source(graph, source)
        return Frontier.single(graph.num_vertices, source)

    def process(self, graph: CSRGraph, state: ProgramState, active_vertices: np.ndarray) -> np.ndarray:
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return np.zeros(0, dtype=np.int64)
        values = state["php"]
        deltas = state["delta"]
        source = int(state["source"][0])

        outgoing = deltas[active_vertices].copy()
        values[active_vertices] += outgoing
        deltas[active_vertices] = 0.0

        degrees = graph.out_degrees[active_vertices]
        has_edges = degrees > 0
        senders = active_vertices[has_edges]
        if senders.size == 0:
            return np.zeros(0, dtype=np.int64)
        per_edge_share = self.penalty * outgoing[has_edges] / degrees[has_edges]

        edge_indices, _ = gather_edge_indices(graph, senders)
        destinations = graph.column_index[edge_indices]
        # gather_edge_indices emits each sender's edges contiguously, so the
        # per-sender share can simply be repeated by out-degree.
        shares = np.repeat(per_edge_share, degrees[has_edges])
        # The source absorbs mass without re-emitting it (penalised hitting).
        keep = destinations != source
        destinations = destinations[keep]
        shares = shares[keep]
        if destinations.size == 0:
            return np.zeros(0, dtype=np.int64)
        # Fused add-combine scatter: accumulates the penalised mass and
        # returns the destinations above tolerance (repro.core.backends).
        return active_backend().push_and_activate(deltas, destinations, shares, combine="add", threshold=self.tolerance)

    def vertex_result(self, state: ProgramState) -> np.ndarray:
        result = state["php"] + state["delta"]
        result[int(state["source"][0])] = 1.0
        return result

    def partition_delta(self, graph: CSRGraph, state: ProgramState, vertex_start: int, vertex_end: int) -> float:
        return float(state["delta"][vertex_start:vertex_end].sum())
