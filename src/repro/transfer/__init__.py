"""Host-to-GPU transfer management engines.

The four ways existing frameworks move the active subgraph to the GPU
(Section II-B/II-C, Figure 2), each implemented against the simulated
hardware in :mod:`repro.sim`:

* :class:`~repro.transfer.explicit_filter.ExplicitFilterEngine` —
  ExpTM-filter: ship every partition containing an active edge in full.
* :class:`~repro.transfer.explicit_compaction.ExplicitCompactionEngine` —
  ExpTM-compaction: CPU packs the active edges, then explicit copy.
* :class:`~repro.transfer.zero_copy.ZeroCopyEngine` — ImpTM-zero-copy:
  per-vertex on-demand reads over pinned host memory.
* :class:`~repro.transfer.unified_memory.UnifiedMemoryEngine` —
  ImpTM-unified-memory: page-granular migration with an LRU device cache.

HyTGraph's hybrid runtime mixes the first three per partition each
iteration (Section IV); the baseline systems each use one of them for
everything.
"""

from repro.transfer.base import EngineKind, TransferEngine, TransferOutcome
from repro.transfer.explicit_filter import ExplicitFilterEngine
from repro.transfer.explicit_compaction import ExplicitCompactionEngine
from repro.transfer.zero_copy import ZeroCopyEngine
from repro.transfer.unified_memory import UnifiedMemoryEngine

__all__ = [
    "EngineKind",
    "TransferEngine",
    "TransferOutcome",
    "ExplicitFilterEngine",
    "ExplicitCompactionEngine",
    "ZeroCopyEngine",
    "UnifiedMemoryEngine",
]
