"""CPU reference implementations used to validate the vertex programs.

Every simulated system must produce exactly the answers these references
produce — that is the correctness contract of the whole reproduction.  The
references use SciPy / straightforward dense iteration and are independent
of the vertex-centric code paths they check.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "sssp_distances",
    "bfs_levels",
    "connected_component_labels",
    "pagerank_values",
    "php_values",
]


def _to_scipy_csr(graph: CSRGraph, weighted: bool):
    from scipy.sparse import csr_matrix

    data = graph.edge_value if (weighted and graph.is_weighted) else np.ones(graph.num_edges)
    return csr_matrix(
        (data, graph.column_index, graph.row_offset),
        shape=(graph.num_vertices, graph.num_vertices),
    )


def sssp_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Exact shortest-path distances from ``source`` (Dijkstra via SciPy)."""
    from scipy.sparse.csgraph import dijkstra

    matrix = _to_scipy_csr(graph, weighted=True)
    return dijkstra(matrix, directed=True, indices=source)


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Exact hop counts from ``source`` (unweighted shortest paths)."""
    from scipy.sparse.csgraph import dijkstra

    matrix = _to_scipy_csr(graph, weighted=False)
    return dijkstra(matrix, directed=True, indices=source, unweighted=True)


def connected_component_labels(graph: CSRGraph) -> np.ndarray:
    """Min-vertex-id label of each vertex's weakly connected component.

    Matches the fixed point of min-label propagation on the symmetrized
    graph: each component is labelled by its smallest member id.
    """
    from scipy.sparse.csgraph import connected_components

    matrix = _to_scipy_csr(graph, weighted=False)
    _, component_of = connected_components(matrix, directed=True, connection="weak")
    labels = np.empty(graph.num_vertices, dtype=np.float64)
    for component in np.unique(component_of):
        members = np.nonzero(component_of == component)[0]
        labels[members] = members.min()
    return labels


def pagerank_values(graph: CSRGraph, damping: float = 0.85, tolerance: float = 1e-12, max_iterations: int = 10_000) -> np.ndarray:
    """Fixed point of the non-normalised PageRank recurrence.

    ``rank[v] = (1 - damping) + damping * sum_{u->v} rank[u] / Do(u)``,
    with dangling vertices simply retaining their mass (the same
    formulation the Δ-based program converges to).
    """
    out_degrees = graph.out_degrees.astype(np.float64)
    safe_degrees = np.where(out_degrees > 0, out_degrees, 1.0)
    ranks = np.full(graph.num_vertices, 1.0 - damping, dtype=np.float64)
    sources = graph.edge_sources()
    destinations = graph.column_index
    for _ in range(max_iterations):
        contributions = np.zeros(graph.num_vertices, dtype=np.float64)
        per_edge = ranks[sources] / safe_degrees[sources]
        np.add.at(contributions, destinations, per_edge)
        new_ranks = (1.0 - damping) + damping * contributions
        if np.max(np.abs(new_ranks - ranks)) < tolerance:
            ranks = new_ranks
            break
        ranks = new_ranks
    return ranks


def php_values(graph: CSRGraph, source: int, penalty: float = 0.8, tolerance: float = 1e-12, max_iterations: int = 10_000) -> np.ndarray:
    """Fixed point of the penalized-hitting-probability recurrence.

    ``php[v] = penalty * sum_{u->v, u != source} php[u] / Do(u)`` with
    ``php[source]`` pinned to 1.
    """
    out_degrees = graph.out_degrees.astype(np.float64)
    safe_degrees = np.where(out_degrees > 0, out_degrees, 1.0)
    values = np.zeros(graph.num_vertices, dtype=np.float64)
    values[source] = 1.0
    sources = graph.edge_sources()
    destinations = graph.column_index
    for _ in range(max_iterations):
        contributions = np.zeros(graph.num_vertices, dtype=np.float64)
        per_edge = values[sources] / safe_degrees[sources]
        np.add.at(contributions, destinations, per_edge)
        new_values = penalty * contributions
        new_values[source] = 1.0
        if np.max(np.abs(new_values - values)) < tolerance:
            values = new_values
            break
        values = new_values
    return values
