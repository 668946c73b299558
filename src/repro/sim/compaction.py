"""CPU-based active-edge compaction cost model.

The ExpTM-compaction approach (Section II-B, Subway-style) removes the
inactive edges of a partition on the host CPU, packing the surviving
(active) adjacency lists into one contiguous buffer plus a fresh compressed
index array so the GPU kernel can address the relocated neighbors.  The
price is CPU time and main-memory traffic that grows with the active edge
volume — on Subway the compaction stage accounts for roughly a third of
total runtime (Figure 3c).

:class:`CompactionEngine` only *prices* that work: the bytes the packed
buffer and index would occupy, and the CPU time to produce them at the
configured compaction throughput.  No sub-CSR is built — the vertex
programs push from the original CSR, so compaction never affects values.
"""

from __future__ import annotations

from repro.sim.config import HardwareConfig

__all__ = ["CompactionEngine"]


class CompactionEngine:
    """Prices the output volume and CPU work of active-edge compaction."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    def output_bytes(self, active_degrees_sum: int, num_active_vertices: int, weighted: bool) -> int:
        """Bytes produced by compaction (Formula 2's transfer volume).

        ``sum(Do(v)) * d1 + |A| * d2`` — the packed neighbors (plus weights
        when present) and the new per-vertex index entries.
        """
        d1 = self.config.vertex_value_bytes
        if weighted:
            d1 += self.config.vertex_value_bytes
        return int(active_degrees_sum) * d1 + int(num_active_vertices) * self.config.index_entry_bytes

    def cpu_time(self, output_bytes: int) -> float:
        """Seconds of host CPU work to produce ``output_bytes`` of compacted data.

        The engine reads the scattered source adjacency lists and writes
        the packed output; both are charged against the configured
        compaction throughput (the paper deliberately keeps this a simple
        throughput model — see Section VIII "Cost computation of ExpTM-C").
        """
        if output_bytes <= 0:
            return 0.0
        return output_bytes / self.config.cpu_compaction_throughput
