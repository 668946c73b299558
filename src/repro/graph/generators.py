"""Synthetic graph generators.

The paper evaluates on billion-edge web and social graphs plus RMAT
synthetic graphs (Table IV).  Neither fits a laptop reproduction, so this
module provides scaled-down generators whose *structural* properties match
what the evaluation actually exercises:

* **RMAT** (:func:`rmat_graph`) — the recursive-matrix generator the paper
  uses for the Figure 9 scaling sweep.  Produces power-law in/out degrees
  and community-like structure.
* **Chung-Lu power law** (:func:`power_law_graph`) — degree-sequence
  controlled power-law graphs used as stand-ins for the social networks
  (TW/FK/FS) where the degree exponent matters for Figure 3(f).
* **Uniform random, grid, path, star, complete** — small structured graphs
  used by unit tests and edge-case property tests.

All generators are deterministic given a ``seed`` and return
:class:`~repro.graph.csr.CSRGraph` instances.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "rmat_graph",
    "power_law_graph",
    "uniform_random_graph",
    "grid_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "random_weights",
]


def random_weights(
    num_edges: int,
    low: float = 1.0,
    high: float = 64.0,
    seed: int = 0,
) -> np.ndarray:
    """Uniform random integer-valued edge weights in ``[low, high]``.

    SSSP in the paper runs on integer-weighted graphs; integer weights also
    make reference comparisons exact.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(int(low), int(high) + 1, size=num_edges).astype(np.float64)


def rmat_graph(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = False,
    name: str | None = None,
) -> CSRGraph:
    """Generate an RMAT graph (Chakrabarti et al., SDM 2004).

    Each edge is placed by recursively descending a 2x2 partition of the
    adjacency matrix with probabilities ``(a, b, c, d)`` where
    ``d = 1 - a - b - c``.  The defaults are the Graph500 parameters, which
    produce the heavy-tailed degree distributions the paper's Figure 9
    relies on.

    Parameters
    ----------
    num_vertices:
        Number of vertices; rounded up to the next power of two internally
        and then truncated back, matching common RMAT implementations.
    num_edges:
        Number of directed edges to sample (duplicates allowed, then
        deduplicated, so the final count can be slightly lower).
    """
    if num_vertices <= 0:
        return CSRGraph.empty(0, name=name or "rmat")
    d = 1.0 - a - b - c
    if d < -1e-9:
        raise ValueError("RMAT probabilities must sum to at most 1")
    rng = np.random.default_rng(seed)
    scale = max(1, int(np.ceil(np.log2(num_vertices))))

    sources = np.zeros(num_edges, dtype=np.int64)
    destinations = np.zeros(num_edges, dtype=np.int64)
    draw = np.empty(num_edges, dtype=np.float64)
    src_bit = np.empty(num_edges, dtype=bool)
    dst_bit = np.empty(num_edges, dtype=bool)
    in_bottom = np.empty(num_edges, dtype=bool)
    top_threshold, bottom_threshold = a / max(a + b, 1e-12), c / max(c + d, 1e-12)
    # Descend bit by bit; vectorised over all edges, every level reusing the
    # same buffers (two uniform draws per level: row half, then column half).
    for _ in range(scale):
        rng.random(out=draw)
        np.greater_equal(draw, a + b, out=src_bit)
        rng.random(out=draw)
        # dst_bit = in_bottom where src_bit else dst_bit, as three bool ops:
        # a masked ufunc or np.where costs more than both draws together.
        np.greater_equal(draw, top_threshold, out=dst_bit)
        np.greater_equal(draw, bottom_threshold, out=in_bottom)
        in_bottom ^= dst_bit
        in_bottom &= src_bit
        dst_bit ^= in_bottom
        sources <<= 1
        sources |= src_bit
        destinations <<= 1
        destinations |= dst_bit

    sources %= num_vertices
    destinations %= num_vertices
    keep = sources != destinations
    graph = CSRGraph.from_endpoints(
        sources[keep], destinations[keep], num_vertices, name=name or "rmat-%d" % num_edges, deduplicate=True
    )
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed + 1))
    return graph


def power_law_graph(
    num_vertices: int,
    average_degree: float,
    exponent: float = 2.1,
    seed: int = 0,
    weighted: bool = False,
    directed: bool = True,
    name: str | None = None,
) -> CSRGraph:
    """Generate a Chung-Lu style power-law graph.

    Vertex ``i`` receives an expected degree proportional to
    ``(i + 1) ** (-1 / (exponent - 1))``; edges are then sampled by picking
    endpoints with probability proportional to expected degree.  The result
    has a power-law out-degree distribution with the requested average
    degree, which is what Figure 3(f) (74.7 % of vertices under degree 32)
    and the zero-copy saturation analysis depend on.

    Setting ``directed=False`` symmetrizes the edge set, mirroring the
    undirected friendster datasets (FK, FS); the requested average degree
    then refers to the symmetrized graph.
    """
    if num_vertices <= 0:
        return CSRGraph.empty(0, name=name or "power-law")
    rng = np.random.default_rng(seed)
    # For undirected graphs each generated edge contributes two directed
    # entries after symmetrization.
    per_direction_degree = average_degree if directed else average_degree / 2.0
    target_edges = int(round(num_vertices * per_direction_degree))

    # Zipf-like expected out-degrees: vertex at rank i gets mass i^(-1/(α-1)).
    # Randomized rounding keeps the total close to the target while leaving
    # most vertices with single-digit degrees and a handful of huge hubs —
    # the skew Figure 3(f) documents for the paper's social graphs.
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    mass = ranks ** (-1.0 / (exponent - 1.0))
    expected = mass / mass.sum() * target_edges
    # Hubs cannot exceed the vertex count; rescale the remaining mass
    # proportionally (preserving the shape of the distribution) so the
    # average degree stays near the target.
    for _ in range(3):
        expected = np.minimum(expected, num_vertices - 1)
        total_expected = expected.sum()
        if total_expected <= 0 or total_expected >= target_edges:
            break
        expected = expected * (target_edges / total_expected)
    expected = np.minimum(expected, num_vertices - 1)
    out_degrees = np.floor(expected).astype(np.int64)
    out_degrees += (rng.random(num_vertices) < (expected - out_degrees)).astype(np.int64)
    out_degrees = np.clip(out_degrees, 0, num_vertices - 1)

    total = int(out_degrees.sum())
    sources = np.repeat(np.arange(num_vertices, dtype=np.int64), out_degrees)
    # Destinations follow almost the same skew so in-degrees are heavy
    # tailed too (hub scores and the low-degree tail both need it).
    dst_mass = ranks ** (-0.9 / (exponent - 1.0))
    destinations = rng.choice(num_vertices, size=total, p=dst_mass / dst_mass.sum())
    keep = sources != destinations
    # Random relabeling so that "hub" vertices are not trivially the lowest
    # ids: hub sorting must actually do work.
    relabel = rng.permutation(num_vertices)
    graph = CSRGraph.from_endpoints(
        relabel[sources[keep]], relabel[destinations[keep]], num_vertices, name=name or "power-law", deduplicate=True
    )
    if not directed:
        graph = graph.symmetrize()
        graph = CSRGraph(graph.row_offset, graph.column_index, None, name=name or "power-law")
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed + 1))
    return graph


def uniform_random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    weighted: bool = False,
    name: str | None = None,
) -> CSRGraph:
    """Erdos-Renyi-style graph: each edge picks both endpoints uniformly."""
    if num_vertices <= 0:
        return CSRGraph.empty(0, name=name or "uniform")
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_vertices, size=num_edges)
    destinations = rng.integers(0, num_vertices, size=num_edges)
    keep = sources != destinations
    graph = CSRGraph.from_endpoints(
        sources[keep], destinations[keep], num_vertices, name=name or "uniform", deduplicate=True
    )
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed + 1))
    return graph


def grid_graph(rows: int, cols: int, weighted: bool = False, seed: int = 0) -> CSRGraph:
    """A 2-D lattice with edges to the right and downward neighbors.

    Grids have uniformly tiny degrees and very long diameters: the opposite
    regime from power-law graphs, useful for exercising the traversal
    algorithms' long-tail iterations.
    """
    num_vertices = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            vertex = r * cols + c
            if c + 1 < cols:
                edges.append((vertex, vertex + 1))
                edges.append((vertex + 1, vertex))
            if r + 1 < rows:
                edges.append((vertex, vertex + cols))
                edges.append((vertex + cols, vertex))
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, name="grid-%dx%d" % (rows, cols))
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed))
    return graph


def path_graph(num_vertices: int, weighted: bool = False, seed: int = 0) -> CSRGraph:
    """A directed path ``0 -> 1 -> ... -> n-1`` (worst case for frontiers)."""
    edges = [(i, i + 1) for i in range(num_vertices - 1)]
    graph = CSRGraph.from_edges(edges, num_vertices=max(num_vertices, 0), name="path-%d" % num_vertices)
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed))
    return graph


def star_graph(num_leaves: int, weighted: bool = False, seed: int = 0) -> CSRGraph:
    """A star: vertex 0 points to every leaf (single extreme hub)."""
    edges = [(0, i) for i in range(1, num_leaves + 1)]
    graph = CSRGraph.from_edges(edges, num_vertices=num_leaves + 1, name="star-%d" % num_leaves)
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed))
    return graph


def complete_graph(num_vertices: int, weighted: bool = False, seed: int = 0) -> CSRGraph:
    """A complete directed graph without self loops."""
    edges = [(i, j) for i in range(num_vertices) for j in range(num_vertices) if i != j]
    graph = CSRGraph.from_edges(edges, num_vertices=num_vertices, name="complete-%d" % num_vertices)
    if weighted:
        graph = graph.with_weights(random_weights(graph.num_edges, seed=seed))
    return graph
