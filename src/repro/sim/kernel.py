"""GPU kernel and CPU processing time models.

The PCIe model (:mod:`repro.sim.pcie`) prices how bytes reach the GPU;
this module decides how long the *computation* on those bytes takes.
The paper inherits its processing kernels from SEP-Graph/Tigr with CTA
scheduling and bitmap-directed frontiers (Section VI-C); at the level
this reproduction models, kernel time is dominated by

* a fixed launch overhead per kernel (which is why HyTGraph's task
  combiner merges partitions — Section V-B), and
* an edge-processing term: active edges divided by an effective edge
  throughput, derated when the frontier is tiny (low occupancy) or when
  many active vertices contend on atomics.

:meth:`KernelModel.kernel_times` is the one kernel formula, element-wise
over edge counts: every GPU planner prices its launches with it.

The CPU model prices the Galois-like in-memory baseline and is an order of
magnitude slower per edge, matching the 5–13x GPU speedups of Table V.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import HardwareConfig

__all__ = ["KernelModel"]

# Below this many active edges a kernel cannot fill the GPU, so throughput
# ramps linearly from ``_MIN_OCCUPANCY_FRACTION`` up to 1.0.
_OCCUPANCY_SATURATION_EDGES = 1 << 16
_MIN_OCCUPANCY_FRACTION = 0.05


class KernelModel:
    """Analytic kernel/CPU time model for one hardware configuration."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    def kernel_times(self, active_edges) -> np.ndarray:
        """Seconds of GPU time of one kernel launch per entry of ``active_edges``.

        Every launch pays the launch overhead — the quantity the task
        combiner reduces by launching fewer kernels — plus its edges at
        the peak edge throughput derated by occupancy.  Element-wise over
        an array (or list) of edge counts, so a planner prices all its
        launches in one call.
        """
        active_edges = np.asarray(active_edges)
        fraction = active_edges / _OCCUPANCY_SATURATION_EDGES
        occupancy = np.where(
            active_edges >= _OCCUPANCY_SATURATION_EDGES,
            1.0,
            _MIN_OCCUPANCY_FRACTION + (1.0 - _MIN_OCCUPANCY_FRACTION) * fraction,
        )
        effective = self.config.gpu_edge_throughput * occupancy
        # No edges: ``launch + 0.0`` is the bare launch.
        return self.config.gpu_kernel_launch_overhead + active_edges / effective

    def device_scan_time(self, num_items: int) -> float:
        """Seconds for a device-side scan/reduction over ``num_items`` items.

        Used to price the on-GPU cost analysis + engine selection of
        Algorithm 1 (lines 2-13), which the paper runs on the GPU so only
        the selection result crosses PCIe.
        """
        if num_items <= 0:
            return 0.0
        bytes_touched = num_items * 3 * self.config.vertex_value_bytes
        return self.config.gpu_kernel_launch_overhead + bytes_touched / self.config.gpu_memory_bandwidth

    def cpu_processing_time(self, active_edges: int) -> float:
        """Seconds for the CPU-only baseline to process ``active_edges`` edges."""
        if active_edges <= 0:
            return 0.0
        return active_edges / self.config.cpu_edge_throughput
