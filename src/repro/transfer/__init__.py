"""Host-to-GPU transfer management: the engine kinds and unified memory.

The ways existing frameworks move the active subgraph to the GPU
(Section II-B/II-C, Figure 2; Table III's :class:`EngineKind`):

* ExpTM-filter — ship every partition containing an active edge in full.
* ExpTM-compaction — CPU packs the active edges, then explicit copy.
* ImpTM-zero-copy — per-vertex on-demand reads over pinned host memory.
* ImpTM-unified-memory — page-granular migration with an LRU device cache.

The first three are linear in a partition's frontier totals (active
vertices, active edges, zero-copy requests;
:meth:`~repro.runtime.context.ExecutionContext.frontier_totals`), so
they need no engine: the execution context prices them element-wise
over arrays of totals (``partition_bytes`` / ``partition_copy_time``,
``compaction_prices``, ``zero_copy_prices``) — the HyTGraph planner per
partition of a task, EMOGI and Subway on a device shard's summed totals.
Unified-memory page dedup is per vertex, so it alone keeps an engine
that prices a vertex set
(:meth:`~repro.transfer.unified_memory.UnifiedMemoryEngine.transfer_task`).
HyTGraph's hybrid runtime mixes the first three per partition each
iteration (Section IV); the baseline systems each use one of them for
everything.
"""

from repro.transfer.base import EngineKind, TransferEngine
from repro.transfer.unified_memory import UnifiedMemoryEngine

__all__ = ["EngineKind", "TransferEngine", "UnifiedMemoryEngine"]
