"""Simulated GPU-accelerated hardware substrate.

The paper's evaluation runs on real NVIDIA GPUs connected to host memory
over PCIe 3.0.  This package replaces that testbed with an analytic /
discrete-event simulator whose parameters come straight from the paper:

* :mod:`repro.sim.config` — hardware presets (PCIe generation, GPU memory
  size and bandwidth, CPU compaction throughput) for the GPUs of Table I
  and Figure 10.
* :mod:`repro.sim.pcie` — the PCIe Transaction-Layer-Packet model: 256
  outstanding memory requests per TLP, 32/64/96/128-byte request payloads,
  the γ = 0.625 zero-copy round-trip damping factor (Section V-A).
* :mod:`repro.sim.memory` — device memory accounting and the 4-KB-page
  LRU cache used by the unified-memory engine.
* :mod:`repro.sim.compaction` — the CPU active-edge compaction engine.
* :mod:`repro.sim.kernel` — GPU kernel and CPU processing time models.
* :mod:`repro.sim.streams` — the multi-stream scheduler that overlaps CPU
  compaction, PCIe transfers and GPU kernels (Section VI-B, Figure 6).

Multi-device scheduling (per-device streams over one shared host plus the
boundary-synchronisation phase) lives in the execution runtime:
:class:`repro.runtime.context.MultiDeviceScheduler`.

The simulator computes *time* and *bytes moved*; algorithm semantics are
computed exactly by the vertex programs regardless of the simulated
hardware, so simulation never affects answer correctness.
"""

from repro.sim.config import (
    HardwareConfig,
    GPU_PRESETS,
    INTERCONNECT_PRESETS,
    gtx_1080,
    gtx_2080ti,
    tesla_p100,
    default_config,
)
from repro.sim.pcie import PCIeModel
from repro.sim.memory import DeviceMemory, PageCache
from repro.sim.compaction import CompactionEngine, CompactionResult
from repro.sim.kernel import KernelModel
from repro.sim.streams import StreamScheduler, StreamTask, Timeline, TimelineEntry

__all__ = [
    "HardwareConfig",
    "GPU_PRESETS",
    "INTERCONNECT_PRESETS",
    "gtx_1080",
    "gtx_2080ti",
    "tesla_p100",
    "default_config",
    "PCIeModel",
    "DeviceMemory",
    "PageCache",
    "CompactionEngine",
    "CompactionResult",
    "KernelModel",
    "StreamScheduler",
    "StreamTask",
    "Timeline",
    "TimelineEntry",
]
