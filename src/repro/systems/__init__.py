"""Whole-system implementations used in the paper's comparisons.

Each class reproduces the *transfer-management policy* of one of the
systems evaluated in Section VII, implemented on the shared simulator
substrate so the comparison is apples-to-apples:

* :class:`~repro.systems.exptm_filter.ExpTMFilterSystem` — the pure
  ExpTM-filter baseline the authors implement in HyTGraph's codebase.
* :class:`~repro.systems.subway.SubwaySystem` — Subway: global CPU
  compaction each iteration plus multi-round asynchronous re-processing.
* :class:`~repro.systems.emogi.EmogiSystem` — EMOGI: merged/aligned
  zero-copy access, synchronous iterations.
* :class:`~repro.systems.imptm_um.ImpTMUMSystem` — the pure
  unified-memory baseline (on-demand paging with an LRU device cache).
* :class:`~repro.systems.grus.GrusSystem` — Grus: unified-memory caching
  with priority prefetch, falling back to zero-copy when device memory is
  full.
* :class:`~repro.systems.cpu_galois.CPUGaloisSystem` — the CPU-only
  (Galois-like) in-memory baseline.
* :class:`~repro.systems.hytgraph.HyTGraphSystem` — the paper's system:
  hub sorting plus :class:`repro.core.engine.HyTGraphEngine`'s planning.

All systems execute the same vertex programs and therefore produce
identical answers; they differ only in simulated time and transfer volume.
"""

from repro.systems.base import GraphSystem
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.subway import SubwaySystem
from repro.systems.emogi import EmogiSystem
from repro.systems.imptm_um import ImpTMUMSystem
from repro.systems.grus import GrusSystem
from repro.systems.cpu_galois import CPUGaloisSystem
from repro.systems.hytgraph import HyTGraphSystem

__all__ = [
    "GraphSystem",
    "ExpTMFilterSystem",
    "SubwaySystem",
    "EmogiSystem",
    "ImpTMUMSystem",
    "GrusSystem",
    "CPUGaloisSystem",
    "HyTGraphSystem",
    "SYSTEMS",
    "make_system",
]

SYSTEMS = {
    "exptm-f": ExpTMFilterSystem,
    "subway": SubwaySystem,
    "emogi": EmogiSystem,
    "imptm-um": ImpTMUMSystem,
    "grus": GrusSystem,
    "galois": CPUGaloisSystem,
    "hytgraph": HyTGraphSystem,
}


def make_system(name: str, graph, config=None, **kwargs) -> GraphSystem:
    """Instantiate a system by its short name (``"subway"``, ``"emogi"``, ...)."""
    key = name.lower()
    if key not in SYSTEMS:
        raise KeyError("unknown system %r; available: %s" % (name, ", ".join(sorted(SYSTEMS))))
    return SYSTEMS[key](graph, config=config, **kwargs)
