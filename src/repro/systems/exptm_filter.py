"""Pure ExpTM-filter system (the "ExpTM-F" row of Table V).

The paper implements this baseline inside HyTGraph's own codebase for a
fair comparison: every iteration, every partition containing at least one
active edge is shipped to the GPU in full with explicit memory copy and
processed synchronously.  No CPU compaction, no on-demand access — which
means maximum PCIe utilisation per byte but a large volume of redundant
bytes whenever partitions are sparsely active (Figure 3a).

On multi-device sessions every device ships its own shard's active
partitions over the shared host PCIe; the redundancy weakness is
unchanged — sharding splits the partitions, not the redundant bytes
inside them.  The whole-partition copies *are* shareable: a partition
shipped for one query is on the device for every other query planning in
the same transfer window (a batch super-iteration;
:meth:`~repro.runtime.context.ExecutionContext.begin_window`).

Because every transfer is a whole partition, this system benefits most
directly from the adaptive device-memory cache (:mod:`repro.cache`):
under ``lru`` / ``frontier-aware`` policies a shipped partition stays
resident until evicted, and later iterations (or later super-iterations
of a batch) read it for free.  The default ``static-prefix`` policy
leaves the historical ship-every-iteration behaviour untouched: this
baseline ignores the static shard pin by design and bills through the
bare window dedup unless the policy is adaptive.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.driver import IterationPlan, QuerySession
from repro.sim.streams import StreamTask
from repro.systems.base import GraphSystem
from repro.transfer.base import EngineKind

__all__ = ["ExpTMFilterSystem"]


class ExpTMFilterSystem(GraphSystem):
    """Filter-based explicit transfer management (GraphReduce/GTS/Graphie style)."""

    name = "ExpTM-F"
    supports_multi_device = True

    def plan_iteration(self, session: QuerySession) -> IterationPlan:
        frontier = self.driver.snapshot(session.pending)
        active_ids = frontier.active_ids
        # Partitions hold consecutive vertex ranges and active_ids is
        # sorted, so one bisection splits the frontier per partition.
        cuts = np.searchsorted(active_ids, self.partitioning.vertex_boundaries).tolist()

        context = self.context
        cache = context.cache
        adaptive = cache is not None and cache.adaptive
        claim = context.claim if adaptive else context.claim_unshipped
        if adaptive and active_ids.size:
            # Feed the eviction policy this iteration's per-partition
            # active-edge counts (committed at the next boundary).
            degrees = self.graph.out_degrees[active_ids]
            partition_of = self.partitioning.partition_of[active_ids]
            cache.observe_frontier(
                np.bincount(
                    partition_of, weights=degrees, minlength=self.partitioning.num_partitions
                ).astype(np.int64)
            )

        device_tasks: list[list[StreamTask]] = context.empty_device_lists()
        transfer_bytes = 0
        active_partition_count = 0
        for index, device in enumerate(self.sharding.device_of.tolist()):
            in_partition = active_ids[cuts[index] : cuts[index + 1]]
            if in_partition.size == 0:
                continue
            active_partition_count += 1
            kernel_time = self.kernel_model.kernel_time(self._active_edge_count(in_partition))
            if not claim([index]):
                # Cache-resident, or another query already shipped it
                # this transfer window; only the kernel runs.
                transfer_time = 0.0
            else:
                transfer_bytes += context.partition_bytes[index]
                transfer_time = context.partition_copy_time[index]
            device_tasks[device].append(
                StreamTask(
                    name="P%d-d%d" % (index, device),
                    engine=EngineKind.EXP_FILTER.value,
                    transfer_time=transfer_time,
                    kernel_time=kernel_time,
                    overlapped_transfer=False,
                )
            )

        return self._synchronous_plan(
            session, frontier, device_tasks, transfer_bytes,
            {EngineKind.EXP_FILTER.value: active_partition_count},
        )
