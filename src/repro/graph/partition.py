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

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "EdgePartition",
    "Partitioning",
    "DeviceShard",
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


@dataclass(frozen=True)
class EdgePartition:
    """One contiguous vertex-range partition of the edge-associated data.

    Attributes
    ----------
    index:
        Position of this partition in the partitioning (0-based).
    vertex_start, vertex_end:
        Half-open vertex-id range ``[vertex_start, vertex_end)`` whose
        out-edges belong to this partition.
    edge_start, edge_end:
        Half-open slice of the CSR edge arrays covered by the partition.
    edge_bytes:
        Bytes of edge-associated data (neighbors + weights) in the slice.
    """

    index: int
    vertex_start: int
    vertex_end: int
    edge_start: int
    edge_end: int
    edge_bytes: int

    @property
    def num_vertices(self) -> int:
        """Number of vertices whose adjacency lists live in this partition."""
        return self.vertex_end - self.vertex_start

    @property
    def num_edges(self) -> int:
        """Number of edges stored in this partition."""
        return self.edge_end - self.edge_start

    def vertices(self) -> np.ndarray:
        """The vertex ids covered by this partition."""
        return np.arange(self.vertex_start, self.vertex_end, dtype=np.int64)


class Partitioning:
    """An ordered list of :class:`EdgePartition` covering a graph.

    Provides vectorised helpers the runtime needs every iteration: mapping
    vertices to partitions and summing active vertices / edges per
    partition given a frontier.
    """

    def __init__(self, graph: CSRGraph, partitions: Sequence[EdgePartition]):
        self.graph = graph
        self.partitions = list(partitions)
        self._validate()
        # vertex -> partition index lookup, used for per-partition reductions.
        boundaries = np.array([p.vertex_start for p in self.partitions] + [graph.num_vertices])
        self._vertex_boundaries = boundaries
        self._vertex_starts = boundaries[:-1]
        self._partition_of_vertex = np.zeros(graph.num_vertices, dtype=np.int64)
        for partition in self.partitions:
            self._partition_of_vertex[partition.vertex_start : partition.vertex_end] = partition.index

    def _validate(self) -> None:
        if not self.partitions:
            if self.graph.num_vertices != 0:
                raise ValueError("non-empty graph requires at least one partition")
            return
        expected_vertex = 0
        expected_edge = 0
        for index, partition in enumerate(self.partitions):
            if partition.index != index:
                raise ValueError("partition indices must be consecutive from 0")
            if partition.vertex_start != expected_vertex:
                raise ValueError("partitions must tile the vertex range without gaps")
            if partition.edge_start != expected_edge:
                raise ValueError("partitions must tile the edge range without gaps")
            expected_vertex = partition.vertex_end
            expected_edge = partition.edge_end
        if expected_vertex != self.graph.num_vertices:
            raise ValueError("partitions must cover all vertices")
        if expected_edge != self.graph.num_edges:
            raise ValueError("partitions must cover all edges")

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator[EdgePartition]:
        return iter(self.partitions)

    def __getitem__(self, index: int) -> EdgePartition:
        return self.partitions[index]

    @property
    def num_partitions(self) -> int:
        """Number of partitions."""
        return len(self.partitions)

    @property
    def vertex_starts(self) -> np.ndarray:
        """``vertex_start`` of every partition (ascending ``int64`` array)."""
        return self._vertex_starts

    @property
    def vertex_boundaries(self) -> np.ndarray:
        """:attr:`vertex_starts` plus the closing ``num_vertices`` bound."""
        return self._vertex_boundaries

    def partition_of_vertex(self, vertex: int) -> int:
        """Index of the partition holding ``vertex``'s adjacency list."""
        return int(self._partition_of_vertex[vertex])

    def partition_of_vertices(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`partition_of_vertex`."""
        return self._partition_of_vertex[np.asarray(vertices, dtype=np.int64)]

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
        partition_ids = self._partition_of_vertex[active_vertex_ids]
        active_vertices = np.bincount(partition_ids, minlength=self.num_partitions)
        degrees = self.graph.out_degrees[active_vertex_ids]
        active_edges = np.bincount(partition_ids, weights=degrees, minlength=self.num_partitions)
        return active_vertices.astype(np.int64), active_edges.astype(np.int64)

    def edges_per_partition(self) -> np.ndarray:
        """Total edge count of every partition."""
        return np.array([p.num_edges for p in self.partitions], dtype=np.int64)

    def bytes_per_partition(self) -> np.ndarray:
        """Total edge-data bytes of every partition."""
        return np.array([p.edge_bytes for p in self.partitions], dtype=np.int64)


@dataclass(frozen=True)
class DeviceShard:
    """The contiguous run of partitions owned by one device.

    Sharding keeps the single-device layout intact: a shard is a
    half-open partition range ``[partition_start, partition_end)``,
    which — because partitions tile the vertex range — is also a
    contiguous vertex-id range.  Vertex ownership therefore resolves
    with one bisection, and the per-device task generation reuses the
    existing per-partition machinery unchanged.
    """

    device: int
    partition_start: int
    partition_end: int
    vertex_start: int
    vertex_end: int
    edge_bytes: int

    @property
    def num_partitions(self) -> int:
        """Number of partitions in this shard."""
        return self.partition_end - self.partition_start

    @property
    def num_vertices(self) -> int:
        """Number of vertices owned by this shard's device."""
        return self.vertex_end - self.vertex_start

    def partition_indices(self) -> range:
        """The partition indices belonging to this shard."""
        return range(self.partition_start, self.partition_end)

    def count_remote(self, vertices: np.ndarray) -> int:
        """How many of ``vertices`` are owned by a different shard.

        Each remote vertex is one activation message of the boundary-delta
        exchange; the execution runtime charges
        ``config.boundary_update_bytes`` per message.
        """
        return int(((vertices < self.vertex_start) | (vertices >= self.vertex_end)).sum())


class ShardedPartitioning:
    """A :class:`Partitioning` split across ``num_devices`` GPUs.

    Shards are byte-balanced contiguous partition ranges, placed with the
    same bisection-over-prefix-sums approach as :func:`partition_by_bytes`
    (one ``searchsorted`` per device boundary over the cumulative
    partition bytes).  When the graph has fewer partitions than devices
    the trailing devices simply receive empty shards.
    """

    def __init__(self, partitioning: Partitioning, num_devices: int):
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.partitioning = partitioning
        self.num_devices = num_devices
        self.shards = self._build_shards()
        self._device_of_partition = np.zeros(partitioning.num_partitions, dtype=np.int64)
        for shard in self.shards:
            self._device_of_partition[shard.partition_start : shard.partition_end] = shard.device

    def _build_shards(self) -> list[DeviceShard]:
        partitioning = self.partitioning
        num_partitions = partitioning.num_partitions
        bytes_per_partition = partitioning.bytes_per_partition()
        cumulative = np.cumsum(bytes_per_partition) if num_partitions else np.zeros(0, dtype=np.int64)
        total = int(cumulative[-1]) if num_partitions else 0

        boundaries = [0]
        for device in range(1, self.num_devices):
            threshold = device * total / self.num_devices
            boundary = int(np.searchsorted(cumulative, threshold, side="left"))
            boundary = min(max(boundary, boundaries[-1]), num_partitions)
            boundaries.append(boundary)
        boundaries.append(num_partitions)

        shards = []
        num_vertices = partitioning.graph.num_vertices
        for device in range(self.num_devices):
            start, end = boundaries[device], boundaries[device + 1]
            if start < end:
                vertex_start = partitioning[start].vertex_start
                vertex_end = partitioning[end - 1].vertex_end
                edge_bytes = int(bytes_per_partition[start:end].sum())
            else:
                # Empty shard: pin it to the vertex position of the
                # boundary so the shard vertex ranges still tile.
                vertex_start = partitioning[start].vertex_start if start < num_partitions else num_vertices
                vertex_end = vertex_start
                edge_bytes = 0
            shards.append(
                DeviceShard(
                    device=device,
                    partition_start=start,
                    partition_end=end,
                    vertex_start=vertex_start,
                    vertex_end=vertex_end,
                    edge_bytes=edge_bytes,
                )
            )
        return shards

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[DeviceShard]:
        return iter(self.shards)

    def __getitem__(self, device: int) -> DeviceShard:
        return self.shards[device]

    def device_of_partition(self, index: int) -> int:
        """Owning device of partition ``index``."""
        return int(self._device_of_partition[index])

    def split_sorted_vertices(self, vertices: np.ndarray) -> list[np.ndarray]:
        """Slice a sorted vertex-id array into one view per device."""
        vertices = np.asarray(vertices, dtype=np.int64)
        boundary_ids = [shard.vertex_start for shard in self.shards]
        boundary_ids.append(self.shards[-1].vertex_end if self.shards else 0)
        cuts = np.searchsorted(vertices, boundary_ids)
        return [vertices[cuts[d] : cuts[d + 1]] for d in range(self.num_devices)]


def _build_partitions(graph: CSRGraph, boundaries: list[int]) -> Partitioning:
    """Build a :class:`Partitioning` from vertex boundaries (including 0 and |V|)."""
    per_edge = graph.edge_bytes_per_edge
    partitions = []
    for index in range(len(boundaries) - 1):
        vertex_start, vertex_end = boundaries[index], boundaries[index + 1]
        edge_start = int(graph.row_offset[vertex_start])
        edge_end = int(graph.row_offset[vertex_end])
        partitions.append(
            EdgePartition(
                index=index,
                vertex_start=vertex_start,
                vertex_end=vertex_end,
                edge_start=edge_start,
                edge_end=edge_end,
                edge_bytes=(edge_end - edge_start) * per_edge,
            )
        )
    return Partitioning(graph, partitions)


def partition_by_bytes(graph: CSRGraph, partition_bytes: int = DEFAULT_PARTITION_BYTES) -> Partitioning:
    """Partition the edge data into chunks of at most ``partition_bytes`` bytes.

    This mirrors HyTGraph's default 32 MB partitions (Section V-B).  Vertex
    adjacency lists are never split; an adjacency list larger than the
    budget gets its own partition.
    """
    if partition_bytes <= 0:
        raise ValueError("partition_bytes must be positive")
    if graph.num_vertices == 0:
        return Partitioning(graph, [])
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
    return _build_partitions(graph, boundaries)


def partition_by_count(graph: CSRGraph, num_partitions: int) -> Partitioning:
    """Partition into (approximately) ``num_partitions`` edge-balanced chunks.

    Used where the paper fixes the partition count instead of the byte
    budget (e.g. the 256-partition analysis of Figure 3a).
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if graph.num_vertices == 0:
        return Partitioning(graph, [])
    num_partitions = min(num_partitions, graph.num_vertices)
    target = graph.num_edges / num_partitions if num_partitions else 0

    boundaries = [0]
    for index in range(1, num_partitions):
        threshold = index * target
        # First vertex whose cumulative edge count reaches the threshold.
        boundary = int(np.searchsorted(graph.row_offset[1:], threshold, side="left")) + 1
        boundary = min(max(boundary, boundaries[-1] + 1), graph.num_vertices)
        if boundary > boundaries[-1] and boundary < graph.num_vertices:
            boundaries.append(boundary)
    boundaries.append(graph.num_vertices)
    deduped = [boundaries[0]]
    for boundary in boundaries[1:]:
        if boundary != deduped[-1]:
            deduped.append(boundary)
    return _build_partitions(graph, deduped)


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
