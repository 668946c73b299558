"""Host-to-GPU transfer management engines.

The ways existing frameworks move the active subgraph to the GPU
(Section II-B/II-C, Figure 2), each priced against the simulated hardware
in :mod:`repro.sim`:

* ExpTM-filter — ship every partition containing an active edge in full.
  It needs no engine: its price is a per-partition table on the
  :class:`~repro.runtime.context.ExecutionContext`
  (``partition_bytes`` / ``partition_copy_time``).
* :class:`~repro.transfer.explicit_compaction.ExplicitCompactionEngine` —
  ExpTM-compaction: CPU packs the active edges, then explicit copy.
* :class:`~repro.transfer.zero_copy.ZeroCopyEngine` — ImpTM-zero-copy:
  per-vertex on-demand reads over pinned host memory.
* :class:`~repro.transfer.unified_memory.UnifiedMemoryEngine` —
  ImpTM-unified-memory: page-granular migration with an LRU device cache.

Compaction and zero-copy are linear in a partition's frontier totals
(active vertices, active edges, zero-copy requests;
:meth:`~repro.runtime.context.ExecutionContext.frontier_totals`), so
each prices arrays of totals with one call, ``partition_prices``: the
HyTGraph planner per partition of a task, EMOGI and Subway on a device
shard's summed totals.  Unified-memory page dedup is per vertex, so that
engine alone prices a vertex set
(:meth:`~repro.transfer.unified_memory.UnifiedMemoryEngine.transfer_task`).
HyTGraph's hybrid runtime mixes the first three per partition each
iteration (Section IV); the baseline systems each use one of them for
everything.
"""

from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.zero_copy import ZeroCopyEngine
from repro.transfer.unified_memory import UnifiedMemoryEngine

__all__ = [
    "EngineKind",
    "TransferEngine",
    "TransferOutcome",
    "ExplicitCompactionEngine",
    "ZeroCopyEngine",
    "UnifiedMemoryEngine",
]
