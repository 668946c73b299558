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

Every column is a function of the frontier's per-partition totals
(:meth:`~repro.runtime.context.ExecutionContext.frontier_totals`) and
is priced by the execution context, the one home of every transfer
price.  The two explicit-copy columns are the billed prices themselves:
``Tef_i`` is the context's ``partition_copy_time`` (the ExpTM-filter
bill) and ``Tec_i`` the copy seconds of
:meth:`~repro.runtime.context.ExecutionContext.compaction_prices` (the
ExpTM-compaction bill), so selection compares exactly what the
simulator charges for them.  ``Tiz_i`` stays Formula 3 (whole TLPs at
the damped round trip,
:meth:`~repro.sim.pcie.PCIeModel.zero_copy_rtt`), which is not the
zero-copy bill (:meth:`~repro.runtime.context.ExecutionContext.zero_copy_prices`,
linear in requests and payload).  RTT is an arbitrary common factor
during comparison, so the absolute value never matters, but the model
keeps real seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.context import ExecutionContext, FrontierTotals

__all__ = ["PartitionCosts", "CostModel"]


@dataclass(frozen=True)
class PartitionCosts:
    """Estimated per-partition costs for one iteration.

    The three cost columns are the α/β comparison inputs, one entry per
    partition; partitions with no active edge have zero cost in every
    column and are never scheduled.  ``totals`` are the frontier totals
    the columns were priced from, which the planner also bills its
    compaction and zero-copy tasks with.
    """

    filter_cost: np.ndarray
    compaction_cost: np.ndarray
    zero_copy_cost: np.ndarray
    totals: FrontierTotals

    def rows(self, block: slice) -> "PartitionCosts":
        """Rows ``block`` of a stacked (``K x P``) estimate, as views."""
        return PartitionCosts(
            self.filter_cost[block],
            self.compaction_cost[block],
            self.zero_copy_cost[block],
            self.totals.rows(block),
        )


class CostModel:
    """Formula 1-3 estimator bound to one execution context."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self.config = context.config
        # Formula 1 depends only on the (static) partition sizes.
        self._filter_cost = np.asarray(context.partition_copy_time)
        self._partition_edges_safe = np.maximum(context.partitioning.edges, 1)

    def estimate(self, active_mask: np.ndarray, active_ids: np.ndarray | None = None) -> PartitionCosts:
        """Estimate all three engine costs for every partition.

        ``active_mask`` is the frontier bitmap at the start of the
        iteration — one ``|V|`` bitmap, or ``K`` of them stacked as a
        ``K x |V|`` matrix (one per query of a batch super-iteration) —
        and ``active_ids`` its flat sorted nonzero ids when the caller
        already holds them
        (:meth:`~repro.runtime.context.ExecutionContext.frontier_totals`).
        A stacked mask yields ``K x P`` cost arrays whose row ``r``
        equals the estimate of bitmap ``r`` alone.  The returned arrays
        are what the :class:`~repro.core.selection.EngineSelector`
        compares.
        """
        context = self.context
        totals = context.frontier_totals(np.asarray(active_mask, dtype=bool), active_ids)
        active_edges = totals.active_edges
        touched = active_edges > 0
        filter_cost = np.where(touched, self._filter_cost, 0.0)
        _, _, copy_time = context.compaction_prices(active_edges, totals.active_vertices)
        compaction_cost = np.where(touched, copy_time, 0.0)

        # Zero-copy (Formula 3): the partition's requests in whole TLPs at
        # the damped round trip of its payload fraction.  An untouched
        # partition has no requests, so its cost is 0.0.
        tlps = np.ceil(totals.zero_copy_requests / self.config.pcie_max_outstanding)
        zero_copy_cost = tlps * context.pcie.zero_copy_rtt(active_edges / self._partition_edges_safe)

        return PartitionCosts(
            filter_cost=filter_cost,
            compaction_cost=compaction_cost,
            zero_copy_cost=zero_copy_cost,
            totals=totals,
        )
