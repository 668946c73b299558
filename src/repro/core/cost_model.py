"""Per-partition transfer cost estimation (Section V-A, Formulas 1-3).

Each iteration HyTGraph estimates, for every partition containing active
edges, what each candidate engine would cost:

* ``Tef_i`` — ExpTM-filter ships the whole partition in saturated TLPs
  (Formula 1):  ``ceil(sum_{v in P_i} Do(v) * d1 / m / MR) * RTT``.
* ``Tec_i`` — ExpTM-compaction ships only the active edges plus a fresh
  index (Formula 2); the CPU-compaction term is deliberately left out of
  the comparison because its throughput is hard to model (Section V-A,
  "Transfer engine selection", and Section VIII), so only the transfer
  term is estimated.
* ``Tiz_i`` — ImpTM-zero-copy issues one or more memory requests per
  active vertex, with a damped round trip for unsaturated TLPs
  (Formula 3).

All estimates are vectorised over partitions (the tests evaluate the
formulas one partition at a time as their oracle); RTT is an arbitrary
common factor during comparison so the absolute value never matters, but
the model keeps real seconds so the estimates can also be validated
against the engines' actual execution in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import Partitioning
from repro.sim.config import HardwareConfig
from repro.sim.pcie import PCIeModel

__all__ = ["PartitionCosts", "CostModel"]


@dataclass(frozen=True)
class PartitionCosts:
    """Estimated per-partition costs for one iteration.

    All arrays have one entry per partition; partitions with no active
    edge have zero cost in every column and are never scheduled.
    ``zero_copy_requests`` holds the zero-copy memory requests of each
    partition's active vertices (exact integers, as ``float64``): with
    ``active_edges`` and ``active_vertices`` they are the totals the
    compaction and zero-copy engines price a partition from.
    """

    filter_cost: np.ndarray
    compaction_cost: np.ndarray
    zero_copy_cost: np.ndarray
    active_vertices: np.ndarray
    active_edges: np.ndarray
    zero_copy_requests: np.ndarray

    def rows(self, block: slice) -> "PartitionCosts":
        """Rows ``block`` of a stacked (``K x P``) estimate, as views."""
        return PartitionCosts(
            self.filter_cost[block],
            self.compaction_cost[block],
            self.zero_copy_cost[block],
            self.active_vertices[block],
            self.active_edges[block],
            self.zero_copy_requests[block],
        )


class CostModel:
    """Formula 1-3 estimator bound to a graph, a partitioning and hardware."""

    def __init__(self, graph: CSRGraph, partitioning: Partitioning, config: HardwareConfig):
        self.graph = graph
        self.partitioning = partitioning
        self.config = config
        self.pcie = PCIeModel(config)
        self._partition_edges_safe = np.maximum(partitioning.edges, 1)
        self._d1 = graph.edge_bytes_per_edge
        self._payload_bytes = config.tlp_payload_bytes
        self._rtt = config.tlp_round_trip_time
        # Formula 1 depends only on the (static) partition sizes, and a
        # vertex's zero-copy request count only on the CSR layout.
        self._static_filter_cost = self._filter_cost_from_edges(partitioning.edges)
        # Per-vertex bincount weights (out-degree, zero-copy requests),
        # kept as the float64 that bincount sums in anyway; exact, since
        # every count is far below 2**53.
        self._degrees = graph.out_degrees.astype(np.float64)
        self._requests = self.pcie.vertex_requests(graph).astype(np.float64)

    # ------------------------------------------------------------------
    # Vectorised per-iteration estimation
    # ------------------------------------------------------------------
    def _filter_cost_from_edges(self, partition_edges: np.ndarray) -> np.ndarray:
        num_bytes = partition_edges.astype(np.float64) * self._d1
        tlps = np.ceil(num_bytes / self._payload_bytes)
        return tlps * self._rtt

    def _compaction_cost_from_counts(
        self, active_edges: np.ndarray, active_vertices: np.ndarray
    ) -> np.ndarray:
        # Integer byte counts: exact, as the float64 the division makes of them.
        num_bytes = active_edges * self._d1 + active_vertices * self.config.index_entry_bytes
        tlps = np.ceil(num_bytes / self._payload_bytes)
        return tlps * self._rtt

    def estimate(self, active_mask: np.ndarray, active_ids: np.ndarray | None = None) -> PartitionCosts:
        """Estimate all three engine costs for every partition.

        ``active_mask`` is the frontier bitmap at the start of the
        iteration — one ``|V|`` bitmap, or ``K`` of them stacked as a
        ``K x |V|`` matrix (one per query of a batch super-iteration).
        Callers that already hold its flat sorted nonzero ids
        (``r * |V| + v`` for stacked rows) can pass them as
        ``active_ids`` (the mask is then not scanned).  A stacked mask
        yields ``K x P`` cost arrays whose row ``r`` equals the estimate
        of bitmap ``r`` alone: every reduction is one ``bincount`` over
        ``row * P + partition``, which folds each row's vertices in the
        same order as a one-row call.  The returned arrays are what the
        :class:`~repro.core.selection.EngineSelector` compares.
        """
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_ids is None:
            active_ids = np.flatnonzero(active_mask)
        num_partitions = self.partitioning.num_partitions
        num_rows = 1 if active_mask.ndim == 1 else active_mask.shape[0]
        shape = active_mask.shape[:-1] + (num_partitions,)

        # Per-partition frontier reductions share one key array: counts,
        # degrees and (below) zero-copy requests all bin by partition.
        if num_rows == 1:
            vertices = active_ids
            keys = self.partitioning.partition_of[vertices]
        else:
            # In place: a wave's frontiers can hold K x |V| ids.
            vertices = active_ids % self.graph.num_vertices
            keys = active_ids // self.graph.num_vertices
            keys *= num_partitions
            keys += self.partitioning.partition_of[vertices]
        num_bins = num_rows * num_partitions
        active_vertices = np.bincount(keys, minlength=num_bins).astype(np.int64, copy=False).reshape(shape)
        active_edges = (
            np.bincount(keys, weights=self._degrees[vertices], minlength=num_bins)
            .astype(np.int64)
            .reshape(shape)
        )

        touched = active_edges > 0
        filter_cost = np.where(touched, self._static_filter_cost, 0.0)
        compaction_cost = self._compaction_cost_from_counts(active_edges, active_vertices)
        compaction_cost = np.where(touched, compaction_cost, 0.0)

        # Zero-copy: per-vertex requests (a static table), grouped back
        # per partition.
        zero_copy_cost = np.zeros(shape, dtype=np.float64)
        requests_per_partition = zero_copy_cost
        if active_ids.size:
            requests_per_partition = np.bincount(
                keys, weights=self._requests[vertices], minlength=num_bins
            ).reshape(shape)
            tlps = np.ceil(requests_per_partition / self.config.pcie_max_outstanding)
            # Both counts are non-negative, so clipping to [0, 1] is a min.
            payload_fraction = np.minimum(active_edges / self._partition_edges_safe, 1.0)
            gamma = self.config.zero_copy_gamma
            rtt_zc = (gamma + (1.0 - gamma) * payload_fraction) * self._rtt
            # An untouched partition has no requests, so its cost is 0.0.
            zero_copy_cost = tlps * rtt_zc

        return PartitionCosts(
            filter_cost=filter_cost,
            compaction_cost=compaction_cost,
            zero_copy_cost=zero_copy_cost,
            active_vertices=active_vertices,
            active_edges=active_edges,
            zero_copy_requests=requests_per_partition,
        )
