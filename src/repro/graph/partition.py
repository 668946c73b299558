"""Chunk-based edge-balanced partitioning of the edge-associated data.

HyTGraph logically partitions the host-resident edge arrays into N
edge-balanced partitions ``{P0, ..., P_{N-1}}``, each holding the out-edges
of a *consecutive* range of vertices (Section IV).  The default partition
size is 32 MB of edge data (Section V-B), chosen small so that the
cost-aware engine selection (Section V-A) can be fine grained; the task
combiner later merges partitions that picked the same engine.

A partition never splits a vertex's adjacency list: the vertex boundary is
placed at the first vertex whose edges would overflow the byte budget.  A
single vertex whose adjacency list alone exceeds the budget gets a
partition of its own (real web graphs have such vertices).

The systems call :func:`build_partitioning`: a partition count, or else
1/64 of the edge data per partition (the scaled stand-in for 32 MB).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "Partitioning",
    "ShardedPartitioning",
    "partition_by_bytes",
    "partition_by_count",
    "build_partitioning",
]

DEFAULT_PARTITION_BYTES = 32 * 1024 * 1024
# With the paper's billion-edge graphs a 32 MB partition yields on the
# order of a hundred partitions; for arbitrary (scaled-down) graphs the
# default keeps that partition *count* rather than the absolute size.
DEFAULT_PARTITION_DIVISOR = 64


class Partitioning:
    """The partition table of a graph, one ``int64`` column per field.

    Partition ``p`` holds the out-edges of the vertices
    ``[vertex_boundaries[p], vertex_boundaries[p + 1])``, which are the
    CSR edge slice ``[edge_boundaries[p], edge_boundaries[p + 1])``.
    Every per-partition table the runtime needs is built here, once;
    consumers index these arrays (or take one ``.tolist()`` of them when
    a loop reads one partition at a time) instead of deriving their own.

    Attributes
    ----------
    vertex_boundaries, edge_boundaries:
        ``P + 1`` ascending bounds, from 0 to ``|V|`` and ``|E|``.
    edges, edge_bytes:
        Per partition: its edge count and its bytes of edge-associated
        data (neighbors + weights).
    partition_of:
        Per vertex: the partition holding its adjacency list.
    """

    def __init__(self, graph: CSRGraph, vertex_boundaries):
        bounds = np.asarray(vertex_boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size == 0 or bounds[0] != 0 or bounds[-1] != graph.num_vertices:
            raise ValueError(
                "vertex boundaries must run from 0 to num_vertices (%d)" % graph.num_vertices
            )
        sizes = np.diff(bounds)
        if np.any(sizes <= 0):
            raise ValueError("vertex boundaries must rise strictly: every partition holds a vertex")
        self.graph = graph
        self.vertex_boundaries = bounds
        self.edge_boundaries = graph.row_offset[bounds]
        self.edges = np.diff(self.edge_boundaries)
        self.edge_bytes = self.edges * graph.edge_bytes_per_edge
        self.partition_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)

    @property
    def num_partitions(self) -> int:
        """Number of partitions."""
        return self.edges.size

    def active_counts(self, active_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-partition counts of active vertices and active edges.

        Parameters
        ----------
        active_mask:
            Boolean array of length ``num_vertices`` marking active vertices.

        Returns
        -------
        (active_vertices, active_edges):
            Two ``int64`` arrays of length ``num_partitions``.
        """
        active_mask = np.asarray(active_mask, dtype=bool)
        active_vertex_ids = np.nonzero(active_mask)[0]
        partition_ids = self.partition_of[active_vertex_ids]
        active_vertices = np.bincount(partition_ids, minlength=self.num_partitions)
        degrees = self.graph.out_degrees[active_vertex_ids]
        active_edges = np.bincount(partition_ids, weights=degrees, minlength=self.num_partitions)
        return active_vertices.astype(np.int64), active_edges.astype(np.int64)


class ShardedPartitioning:
    """A :class:`Partitioning` split across ``num_devices`` GPUs, as columns.

    Device ``d`` owns the partitions
    ``[partition_bounds[d], partition_bounds[d + 1])``; because partitions
    tile the vertex range, that is also the vertex range
    ``[vertex_bounds[d], vertex_bounds[d + 1])``, so vertex ownership
    resolves with one bisection.  Shards are
    byte-balanced, placed with the same bisection-over-prefix-sums
    approach as :func:`partition_by_bytes` (one ``searchsorted`` per device
    boundary over the cumulative partition bytes).  When the graph has
    fewer partitions than devices the trailing devices simply receive
    empty shards, pinned to the vertex position of their boundary so the
    vertex bounds still tile.

    Attributes
    ----------
    partition_bounds, vertex_bounds:
        ``num_devices + 1`` ascending bounds of every device's shard.
    device_of:
        Per partition: its owning device.
    """

    def __init__(self, partitioning: Partitioning, num_devices: int):
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.num_devices = num_devices
        num_partitions = partitioning.num_partitions
        cumulative = np.cumsum(partitioning.edge_bytes)
        total = int(cumulative[-1]) if num_partitions else 0
        bounds = [0]
        for device in range(1, num_devices):
            threshold = device * total / num_devices
            boundary = int(np.searchsorted(cumulative, threshold, side="left"))
            bounds.append(min(max(boundary, bounds[-1]), num_partitions))
        bounds.append(num_partitions)
        self.partition_bounds = np.array(bounds, dtype=np.int64)
        self.vertex_bounds = partitioning.vertex_boundaries[self.partition_bounds]
        self.device_of = np.repeat(
            np.arange(num_devices, dtype=np.int64), np.diff(self.partition_bounds)
        )

    def split_sorted_vertices(self, vertices: np.ndarray) -> list[np.ndarray]:
        """Slice a sorted vertex-id array into one view per device."""
        vertices = np.asarray(vertices, dtype=np.int64)
        cuts = np.searchsorted(vertices, self.vertex_bounds)
        return [vertices[cuts[d] : cuts[d + 1]] for d in range(self.num_devices)]


def partition_by_bytes(graph: CSRGraph, partition_bytes: int = DEFAULT_PARTITION_BYTES) -> Partitioning:
    """Partition the edge data into chunks of at most ``partition_bytes`` bytes.

    This mirrors HyTGraph's default 32 MB partitions (Section V-B).  Vertex
    adjacency lists are never split; an adjacency list larger than the
    budget gets its own partition.
    """
    if partition_bytes <= 0:
        raise ValueError("partition_bytes must be positive")
    per_edge = graph.edge_bytes_per_edge
    budget_edges = max(1, partition_bytes // per_edge)

    # Greedy boundary placement, one bisection per partition instead of a
    # Python loop over every vertex.  A partition extends to the last
    # vertex whose cumulative edge count still fits the budget, but always
    # covers at least one vertex AND at least one edge (when edges remain):
    # an oversized adjacency list — optionally preceded by zero-degree
    # vertices — gets a partition of its own, and trailing zero-degree
    # vertices attach to the partition in front of them, exactly as the
    # sequential scan did.
    row_offset = graph.row_offset
    num_vertices = graph.num_vertices
    boundaries = [0]
    while boundaries[-1] < num_vertices:
        start = boundaries[-1]
        fits = int(np.searchsorted(row_offset, row_offset[start] + budget_edges, side="right")) - 1
        nonempty = int(np.searchsorted(row_offset, row_offset[start], side="right"))
        boundaries.append(min(max(fits, nonempty, start + 1), num_vertices))
    return Partitioning(graph, boundaries)


def partition_by_count(graph: CSRGraph, num_partitions: int) -> Partitioning:
    """Partition into (approximately) ``num_partitions`` edge-balanced chunks.

    Used where the paper fixes the partition count instead of the byte
    budget (e.g. the 256-partition analysis of Figure 3a).
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if graph.num_vertices == 0:
        return Partitioning(graph, [0])
    num_partitions = min(num_partitions, graph.num_vertices)
    target = graph.num_edges / num_partitions

    # Boundaries rise strictly: each is at least one past the previous,
    # and one that reaches |V| is dropped in favour of the closing bound.
    boundaries = [0]
    for index in range(1, num_partitions):
        threshold = index * target
        # First vertex whose cumulative edge count reaches the threshold.
        boundary = int(np.searchsorted(graph.row_offset[1:], threshold, side="left")) + 1
        boundary = min(max(boundary, boundaries[-1] + 1), graph.num_vertices)
        if boundary < graph.num_vertices:
            boundaries.append(boundary)
    boundaries.append(graph.num_vertices)
    return Partitioning(graph, boundaries)


def build_partitioning(graph: CSRGraph, num_partitions: int | None = None) -> Partitioning:
    """The partitioning every system and the HyTGraph engine execute on.

    An explicit count wins; without one, the graph is split into
    ``DEFAULT_PARTITION_DIVISOR`` edge-balanced partitions (the scaled
    equivalent of the paper's 32 MB chunks).
    """
    if num_partitions is not None:
        return partition_by_count(graph, num_partitions)
    partition_bytes = max(
        graph.edge_bytes_per_edge, graph.edge_data_bytes // DEFAULT_PARTITION_DIVISOR
    )
    return partition_by_bytes(graph, partition_bytes)
