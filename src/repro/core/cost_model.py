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
    """

    filter_cost: np.ndarray
    compaction_cost: np.ndarray
    zero_copy_cost: np.ndarray
    active_vertices: np.ndarray
    active_edges: np.ndarray


class CostModel:
    """Formula 1-3 estimator bound to a graph, a partitioning and hardware."""

    def __init__(self, graph: CSRGraph, partitioning: Partitioning, config: HardwareConfig):
        self.graph = graph
        self.partitioning = partitioning
        self.config = config
        self.pcie = PCIeModel(config)
        self._partition_edges = partitioning.edges_per_partition()
        self._d1 = graph.edge_bytes_per_edge
        # Formula 1 depends only on the (static) partition sizes.
        self._static_filter_cost = self._filter_cost_from_edges(self._partition_edges)

    # ------------------------------------------------------------------
    # Vectorised per-iteration estimation
    # ------------------------------------------------------------------
    def _filter_cost_from_edges(self, partition_edges: np.ndarray) -> np.ndarray:
        num_bytes = partition_edges.astype(np.float64) * self._d1
        tlps = np.ceil(num_bytes / self.config.tlp_payload_bytes)
        return tlps * self.config.tlp_round_trip_time

    def _compaction_cost_from_counts(
        self, active_edges: np.ndarray, active_vertices: np.ndarray
    ) -> np.ndarray:
        num_bytes = (
            active_edges.astype(np.float64) * self._d1
            + active_vertices.astype(np.float64) * self.config.index_entry_bytes
        )
        tlps = np.ceil(num_bytes / self.config.tlp_payload_bytes)
        return tlps * self.config.tlp_round_trip_time

    def estimate(self, active_mask: np.ndarray, active_ids: np.ndarray | None = None) -> PartitionCosts:
        """Estimate all three engine costs for every partition.

        ``active_mask`` is the frontier bitmap at the start of the
        iteration; callers that already hold the sorted active vertex ids
        can pass them as ``active_ids`` (the mask is then not scanned).
        The returned arrays are what the
        :class:`~repro.core.selection.EngineSelector` compares.
        """
        if active_ids is None:
            active_ids = np.flatnonzero(np.asarray(active_mask, dtype=bool))
        num_partitions = self.partitioning.num_partitions

        # Per-partition frontier reductions share one id array: counts,
        # degrees and (below) zero-copy requests all bin by partition.
        partition_of = self.partitioning.partition_of_vertices(active_ids)
        degrees = self.graph.out_degrees[active_ids]
        active_vertices = np.bincount(partition_of, minlength=num_partitions).astype(np.int64)
        active_edges = np.bincount(partition_of, weights=degrees, minlength=num_partitions).astype(np.int64)

        filter_cost = np.where(active_edges > 0, self._static_filter_cost, 0.0)
        compaction_cost = self._compaction_cost_from_counts(active_edges, active_vertices)
        compaction_cost = np.where(active_edges > 0, compaction_cost, 0.0)

        # Zero-copy: per-vertex requests, grouped back per partition.
        zero_copy_cost = np.zeros(num_partitions, dtype=np.float64)
        if active_ids.size:
            starts = self.graph.row_offset[active_ids] * self._d1
            requests = self.pcie.requests_for_vertices(degrees, starts, value_bytes=self._d1)
            requests_per_partition = np.bincount(
                partition_of, weights=requests, minlength=num_partitions
            )
            tlps = np.ceil(requests_per_partition / self.config.pcie_max_outstanding)
            partition_edges_safe = np.maximum(self._partition_edges, 1)
            payload_fraction = np.clip(active_edges / partition_edges_safe, 0.0, 1.0)
            gamma = self.config.zero_copy_gamma
            rtt_zc = (gamma + (1.0 - gamma) * payload_fraction) * self.config.tlp_round_trip_time
            zero_copy_cost = tlps * rtt_zc
            zero_copy_cost = np.where(active_edges > 0, zero_copy_cost, 0.0)

        return PartitionCosts(
            filter_cost=filter_cost,
            compaction_cost=compaction_cost,
            zero_copy_cost=zero_copy_cost,
            active_vertices=active_vertices,
            active_edges=active_edges,
        )
