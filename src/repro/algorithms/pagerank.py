"""Δ-based (accumulative) PageRank.

The paper runs PageRank as a value-accumulation algorithm (Section VI-A,
"Δ-driven priority scheduling", following Maiter): every vertex keeps a
``rank`` and a pending residual ``delta``.  Processing an active vertex v

1. folds its residual into its rank (``rank[v] += delta[v]``),
2. pushes ``damping * delta[v] / out_degree(v)`` to every out-neighbor's
   residual, and
3. clears ``delta[v]``.

A vertex whose residual exceeds the tolerance becomes active.  The fixed
point satisfies the classic non-normalised PageRank recurrence

    rank[v] = (1 - damping) + damping * sum_{u -> v} rank[u] / Do(u)

which the reference implementation in :mod:`repro.algorithms.reference`
computes by power iteration for validation.  PageRank's monotonically
shrinking active set is the second workload pattern of the motivating
study, and its residual mass is exactly what the Δ-driven priority
scheduler ranks partitions by.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ProgramState, VertexProgram, gather_edge_indices
from repro.core.backends import active_backend
from repro.graph.csr import CSRGraph
from repro.graph.frontier import Frontier

__all__ = ["DeltaPageRank"]


class DeltaPageRank(VertexProgram):
    """Accumulative PageRank with per-vertex residuals.

    Parameters
    ----------
    damping:
        The damping factor (0.85 by default).
    tolerance:
        A vertex stays inactive while its residual is below this value.
    """

    name = "PR"
    needs_weights = False
    needs_source = False
    accumulative = True

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-3):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        self.damping = damping
        self.tolerance = tolerance

    def create_state(self, graph: CSRGraph, source: int | None = None) -> ProgramState:
        ranks = np.zeros(graph.num_vertices, dtype=np.float64)
        deltas = np.full(graph.num_vertices, 1.0 - self.damping, dtype=np.float64)
        return ProgramState({"rank": ranks, "delta": deltas})

    def initial_frontier(self, graph: CSRGraph, state: ProgramState, source: int | None = None) -> Frontier:
        return Frontier.from_mask(state["delta"] > self.tolerance)

    def process(self, graph: CSRGraph, state: ProgramState, active_vertices: np.ndarray) -> np.ndarray:
        active_vertices = np.asarray(active_vertices, dtype=np.int64)
        if active_vertices.size == 0:
            return np.zeros(0, dtype=np.int64)
        ranks = state["rank"]
        deltas = state["delta"]

        # Fold residuals into ranks and capture the outgoing contribution.
        outgoing = deltas[active_vertices].copy()
        ranks[active_vertices] += outgoing
        deltas[active_vertices] = 0.0

        degrees = graph.out_degrees[active_vertices]
        has_edges = degrees > 0
        senders = active_vertices[has_edges]
        if senders.size == 0:
            return np.zeros(0, dtype=np.int64)
        per_edge_share = self.damping * outgoing[has_edges] / degrees[has_edges]

        edge_indices, _ = gather_edge_indices(graph, senders)
        destinations = graph.column_index[edge_indices]
        # gather_edge_indices emits each sender's edges contiguously, so the
        # per-sender share can simply be repeated by out-degree.
        shares = np.repeat(per_edge_share, degrees[has_edges])
        # Fused add-combine scatter: accumulates the shares and returns every
        # destination whose residual now exceeds the tolerance — destinations
        # that were already above it stay on the frontier, so no separate
        # "newly crossed" bookkeeping is needed (repro.core.backends).
        return active_backend().push_and_activate(deltas, destinations, shares, combine="add", threshold=self.tolerance)

    def vertex_result(self, state: ProgramState) -> np.ndarray:
        # Remaining residual mass is part of the final rank estimate.
        return state["rank"] + state["delta"]

    def partition_delta(self, graph: CSRGraph, state: ProgramState, vertex_start: int, vertex_end: int) -> float:
        return float(state["delta"][vertex_start:vertex_end].sum())
