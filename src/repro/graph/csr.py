"""Compressed sparse row (CSR) graph storage.

The paper organises the input graph into CSR (Figure 1): a ``row_offset``
array of length ``|V| + 1`` giving each vertex's slice into the
``column_index`` (neighbor) array, plus an optional ``edge_value`` array of
edge weights.  The neighbor-index array is small and lives in GPU memory;
the neighbor and weight arrays are the large *edge-associated data* that
live in host memory and must be moved across PCIe on demand.

:class:`CSRGraph` is an immutable value object shared by the simulator, the
transfer engines and the algorithms.  All arrays are NumPy arrays so that
vertex-centric kernels can be evaluated with vectorised operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["CSRGraph"]

# Byte sizes used throughout the cost model (Section V-A): a neighbor id and
# an edge weight each occupy four bytes, matching the paper's d1 = 4.
VERTEX_ID_BYTES = 4
EDGE_WEIGHT_BYTES = 4


@dataclass(frozen=True)
class CSRGraph:
    """A directed graph in compressed sparse row form.

    Parameters
    ----------
    row_offset:
        ``int64`` array of length ``num_vertices + 1``.  The out-neighbors
        of vertex ``v`` are ``column_index[row_offset[v]:row_offset[v + 1]]``.
    column_index:
        ``int64`` array of destination vertex ids, length ``num_edges``.
    edge_value:
        Optional ``float64`` array of edge weights, length ``num_edges``.
        ``None`` means the graph is unweighted (BFS/CC/PageRank workloads).
    name:
        Optional human-readable name used in benchmark reports.
    """

    row_offset: np.ndarray
    column_index: np.ndarray
    edge_value: np.ndarray | None = None
    name: str = "graph"
    _out_degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _in_degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _edge_sources: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        row_offset = np.ascontiguousarray(self.row_offset, dtype=np.int64)
        column_index = np.ascontiguousarray(self.column_index, dtype=np.int64)
        object.__setattr__(self, "row_offset", row_offset)
        object.__setattr__(self, "column_index", column_index)
        if self.edge_value is not None:
            edge_value = np.ascontiguousarray(self.edge_value, dtype=np.float64)
            object.__setattr__(self, "edge_value", edge_value)
        self._validate()
        object.__setattr__(self, "_out_degrees", np.diff(row_offset))
        object.__setattr__(self, "_in_degrees", None)
        object.__setattr__(self, "_edge_sources", None)

    def _validate(self) -> None:
        if self.row_offset.ndim != 1 or self.row_offset.size < 1:
            raise ValueError("row_offset must be a 1-D array with at least one entry")
        if self.row_offset[0] != 0:
            raise ValueError("row_offset must start at 0")
        if np.any(np.diff(self.row_offset) < 0):
            raise ValueError("row_offset must be non-decreasing")
        if self.row_offset[-1] != self.column_index.size:
            raise ValueError(
                "row_offset[-1] (%d) must equal the number of edges (%d)"
                % (self.row_offset[-1], self.column_index.size)
            )
        if self.column_index.size and (
            self.column_index.min() < 0 or self.column_index.max() >= self.num_vertices
        ):
            raise ValueError("column_index contains vertex ids outside [0, num_vertices)")
        if self.edge_value is not None and self.edge_value.size != self.column_index.size:
            raise ValueError("edge_value must have one entry per edge")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self.row_offset.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return int(self.column_index.size)

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries per-edge weights."""
        return self.edge_value is not None

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64`` array of length ``|V|``)."""
        return self._out_degrees

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, computed lazily and cached."""
        if self._in_degrees is None:
            counts = np.bincount(self.column_index, minlength=self.num_vertices)
            object.__setattr__(self, "_in_degrees", counts.astype(np.int64))
        return self._in_degrees

    @property
    def average_degree(self) -> float:
        """Average out-degree ``|E| / |V|``."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    @property
    def edge_bytes_per_edge(self) -> int:
        """Bytes of edge-associated data per edge (neighbor id + weight)."""
        per_edge = VERTEX_ID_BYTES
        if self.is_weighted:
            per_edge += EDGE_WEIGHT_BYTES
        return per_edge

    @property
    def edge_data_bytes(self) -> int:
        """Total bytes of host-resident edge-associated data."""
        return self.num_edges * self.edge_bytes_per_edge

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def out_degree(self, vertex: int) -> int:
        """Out-degree of a single vertex."""
        return int(self.row_offset[vertex + 1] - self.row_offset[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbors of ``vertex`` as a view into ``column_index``."""
        start, end = self.row_offset[vertex], self.row_offset[vertex + 1]
        return self.column_index[start:end]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of the out-edges of ``vertex`` (all 1.0 if unweighted)."""
        start, end = self.row_offset[vertex], self.row_offset[vertex + 1]
        if self.edge_value is None:
            return np.ones(int(end - start), dtype=np.float64)
        return self.edge_value[start:end]

    def edge_slice(self, vertex: int) -> tuple[int, int]:
        """Half-open ``[start, end)`` slice of ``vertex`` in the edge arrays."""
        return int(self.row_offset[vertex]), int(self.row_offset[vertex + 1])

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(src, dst, weight)`` triples.  Weight is 1.0 if unweighted."""
        for src in range(self.num_vertices):
            start, end = self.edge_slice(src)
            for idx in range(start, end):
                weight = 1.0 if self.edge_value is None else float(self.edge_value[idx])
                yield src, int(self.column_index[idx]), weight

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with ``column_index``.

        Computed lazily with one ``np.repeat`` and cached: ``reverse()``,
        ``symmetrize()``, ``permute()`` (and through it hub sorting) and the
        reference PageRank/PHP fixed-point solvers all consume it, so the
        per-vertex Python loop it replaces was a preprocessing hot spot.
        Treat the returned array as read-only.
        """
        if self._edge_sources is None:
            sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._out_degrees)
            # The cache is shared across callers; writes must fail loudly.
            sources.setflags(write=False)
            object.__setattr__(self, "_edge_sources", sources)
        return self._edge_sources

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        num_vertices: int | None = None,
        weights: Sequence[float] | np.ndarray | None = None,
        name: str = "graph",
        deduplicate: bool = False,
    ) -> "CSRGraph":
        """:meth:`from_endpoints` for ``(src, dst)`` pairs or an ``(m, 2)`` array."""
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of (src, dst) pairs")
        return cls.from_endpoints(
            edge_array[:, 0], edge_array[:, 1], num_vertices, weights, name, deduplicate
        )

    @classmethod
    def from_endpoints(
        cls,
        sources: Sequence[int] | np.ndarray,
        destinations: Sequence[int] | np.ndarray,
        num_vertices: int | None = None,
        weights: Sequence[float] | np.ndarray | None = None,
        name: str = "graph",
        deduplicate: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from aligned source / destination id columns.

        One sort of the key ``src * |V| + dst`` orders edges by source and
        each adjacency list by destination; the edge arrays come out fresh
        and contiguous, never views into the caller's input.

        ``num_vertices`` defaults to ``max id + 1``; ``weights`` align with the
        columns; ``deduplicate`` drops repeated ``(src, dst)`` pairs, keeping
        the first weight.
        """
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if sources.ndim != 1 or sources.shape != destinations.shape:
            raise ValueError("sources and destinations must be aligned 1-D arrays")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.size != sources.size:
                raise ValueError("weights must align with edges")
        largest = int(max(sources.max(), destinations.max())) if sources.size else -1
        num_vertices = largest + 1 if num_vertices is None else int(num_vertices)
        if largest >= num_vertices or (sources.size and min(sources.min(), destinations.min()) < 0):
            raise ValueError("edge endpoints outside [0, num_vertices)")
        if num_vertices**2 >= 2**63:
            raise ValueError("num_vertices**2 must fit in int64 for the (src, dst) sort key")

        keys = sources * np.int64(num_vertices)
        keys += destinations
        if weights is None:
            keys.sort()
        else:
            # Stable, so equal (src, dst) pairs keep input order: "first weight wins".
            order = np.argsort(keys, kind="stable")
            keys, weights = keys[order], weights[order]
        if deduplicate:
            first = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            keys = keys[first]
            if weights is not None:
                weights = weights[first]
        row_starts = np.arange(num_vertices + 1, dtype=np.int64) * num_vertices
        row_offset = np.searchsorted(keys, row_starts)
        keys -= np.repeat(row_starts[:-1], np.diff(row_offset))
        return cls(row_offset, keys, weights, name=name)

    @classmethod
    def from_adjacency(
        cls,
        adjacency: dict[int, Iterable[int]],
        num_vertices: int | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from a ``{src: [dst, ...]}`` adjacency mapping."""
        edges = [(src, dst) for src, neighbors in adjacency.items() for dst in neighbors]
        if num_vertices is None:
            max_id = -1
            for src, neighbors in adjacency.items():
                max_id = max(max_id, src, *(list(neighbors) or [-1]))
            num_vertices = max_id + 1
        return cls.from_edges(edges, num_vertices=num_vertices, name=name)

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "CSRGraph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls(np.zeros(num_vertices + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), name=name)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_weights(self, weights: np.ndarray | float) -> "CSRGraph":
        """Return a copy with the given per-edge weights (scalar broadcasts)."""
        if np.isscalar(weights):
            weight_array = np.full(self.num_edges, float(weights), dtype=np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64)
        return CSRGraph(self.row_offset, self.column_index, weight_array, name=self.name)

    def without_weights(self) -> "CSRGraph":
        """Return an unweighted copy (drops ``edge_value``)."""
        return CSRGraph(self.row_offset, self.column_index, None, name=self.name)

    def reverse(self) -> "CSRGraph":
        """Return the transpose graph (every edge reversed)."""
        return CSRGraph.from_endpoints(
            self.column_index, self.edge_sources(), self.num_vertices, self.edge_value, self.name + "-rev"
        )

    def symmetrize(self) -> "CSRGraph":
        """Return an undirected version: each edge present in both directions."""
        sources, weights = self.edge_sources(), self.edge_value
        return CSRGraph.from_endpoints(
            np.concatenate([sources, self.column_index]),
            np.concatenate([self.column_index, sources]),
            num_vertices=self.num_vertices,
            weights=None if weights is None else np.concatenate([weights, weights]),
            name=self.name + "-sym",
            deduplicate=True,
        )

    def permute(self, order: np.ndarray) -> "CSRGraph":
        """Relabel vertices so that old vertex ``order[i]`` becomes new vertex ``i``.

        ``order`` must be a permutation of ``range(num_vertices)``.  This is
        the primitive behind hub sorting (Section VI-A): reordering changes
        the physical layout of the edge-associated arrays, which is what the
        partitioner and the transfer engines operate on.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.size != self.num_vertices or np.any(np.sort(order) != np.arange(self.num_vertices)):
            raise ValueError("order must be a permutation of range(num_vertices)")
        # new_id[old_vertex] = new label
        new_id = np.empty(self.num_vertices, dtype=np.int64)
        new_id[order] = np.arange(self.num_vertices)
        return CSRGraph.from_endpoints(
            new_id[self.edge_sources()], new_id[self.column_index], self.num_vertices, self.edge_value, self.name
        )

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (testing / validation only)."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(self.num_vertices))
        for src, dst, weight in self.iter_edges():
            nx_graph.add_edge(src, dst, weight=weight)
        return nx_graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CSRGraph(name=%r, |V|=%d, |E|=%d, weighted=%s)" % (
            self.name,
            self.num_vertices,
            self.num_edges,
            self.is_weighted,
        )
