"""PCIe transfer-time model (explicit copy, zero-copy and unified memory).

The paper's cost model (Section V-A) describes all host-to-GPU traffic in
terms of PCIe Transaction Layer Packets: a TLP carries at most ``MR = 256``
outstanding memory requests, each request up to ``m = 128`` bytes, and one
saturated TLP takes a round-trip time ``RTT``.

* Explicit memory copy (``cudaMemcpy``) always ships saturated TLPs, so
  transferring ``B`` bytes costs ``ceil(B / m / MR) * RTT`` (Formula 1's
  time term).
* Zero-copy accesses are per-vertex: vertex ``v`` with out-degree
  ``Do(v)`` needs ``ceil(Do(v) * d1 / m)`` requests, plus one more if its
  neighbor array is misaligned with the 128-byte request boundary
  (the ``am(v)`` term of Formula 3).  A TLP of unsaturated requests still
  pays a fixed fraction γ of the full RTT, giving the damped round trip
  ``RTT_zc = γ·RTT + (1-γ)·payload_fraction·RTT``.
* Unified memory migrates whole 4-KB pages at ``um_peak_fraction`` of the
  explicit-copy bandwidth plus a per-fault overhead.

:class:`PCIeModel` packages these calculations as prices of totals
(``explicit_copy_time``, ``zero_copy_time``, ``page_migration_time``),
each element-wise over arrays of totals, and vectorised per-vertex
counts (``requests_for_vertices``, ``vertex_requests``,
``pages_for_byte_ranges``).  Their callers are the transfer engines'
``partition_prices`` (priced from a frontier's per-partition totals),
the unified-memory engine's per-vertex ``transfer_task`` and the
execution context's per-partition copy-time table and per-vertex request
table; the estimator (:mod:`repro.core.cost_model`) takes the
explicit-copy prices from them and adds Formula 3 for zero-copy.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import HardwareConfig

__all__ = ["PCIeModel"]


class PCIeModel:
    """Transfer-time calculator for one hardware configuration."""

    def __init__(self, config: HardwareConfig):
        self.config = config

    # ------------------------------------------------------------------
    # Explicit copy (cudaMemcpy)
    # ------------------------------------------------------------------
    def explicit_copy_time(self, num_bytes):
        """Seconds to transfer ``num_bytes`` with the explicit copy engine.

        Element-wise over an array of non-negative byte counts: whole
        saturated TLPs each, ``k`` of them costing ``k * RTT``.
        """
        return np.ceil(num_bytes / self.config.tlp_payload_bytes) * self.config.tlp_round_trip_time

    def explicit_copy_throughput(self) -> float:
        """Sustained explicit-copy throughput in bytes/second."""
        return self.config.pcie_bandwidth

    # ------------------------------------------------------------------
    # Zero-copy
    # ------------------------------------------------------------------
    def requests_for_vertices(
        self,
        degrees: np.ndarray,
        start_bytes: np.ndarray | None = None,
        value_bytes: int | None = None,
    ) -> np.ndarray:
        """Outstanding memory requests needed per vertex.

        Parameters
        ----------
        degrees:
            Out-degrees of the accessed (active) vertices.
        start_bytes:
            Physical byte offset of each vertex's neighbor array; used to
            detect misalignment (the ``am(v)`` term).  ``None`` assumes
            aligned starts.
        value_bytes:
            Bytes per neighbor entry (``d1``); defaults to the config value.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        d1 = self.config.vertex_value_bytes if value_bytes is None else value_bytes
        m = self.config.pcie_request_bytes
        if start_bytes is None:
            # ceil(Do * d1 / m), zero-degree vertices need no request.
            return np.ceil(degrees * d1 / m).astype(np.int64)
        start_bytes = np.asarray(start_bytes, dtype=np.int64)
        span = (start_bytes % m) + degrees * d1
        requests = np.ceil(span / m).astype(np.int64)
        requests[degrees == 0] = 0
        return requests

    def vertex_requests(self, graph) -> np.ndarray:
        """Zero-copy requests of every vertex of ``graph`` (aligned by its CSR offset).

        A function of the CSR layout alone, so the execution context
        builds it once and sums it per partition for every frontier.
        """
        d1 = graph.edge_bytes_per_edge
        return self.requests_for_vertices(
            graph.out_degrees, graph.row_offset[:-1] * d1, value_bytes=d1
        )

    def zero_copy_rtt(self, payload_fraction: float) -> float:
        """Damped TLP round trip for zero-copy with the given payload fraction.

        ``RTT_zc = γ·RTT + (1-γ)·payload_fraction·RTT`` (Section V-A); a
        fully saturated TLP (payload_fraction = 1) costs the full RTT, an
        almost-empty one still costs γ of it.
        """
        payload_fraction = float(np.clip(payload_fraction, 0.0, 1.0))
        gamma = self.config.zero_copy_gamma
        return (gamma + (1.0 - gamma) * payload_fraction) * self.config.tlp_round_trip_time

    def zero_copy_time(self, total_requests: int, payload_bytes: int) -> float:
        """Zero-copy occupancy of ``total_requests`` carrying ``payload_bytes``.

        Every outstanding request pays a fixed header/management share of
        the TLP round trip (the γ part), and the payload itself moves at
        the full PCIe payload rate (the 1-γ part):

            time = γ·RTT·requests/MR + (1-γ)·RTT·payload/(MR·m)

        A fully saturated batch (every request carrying ``m`` bytes) costs
        exactly ``ceil(requests/MR)·RTT`` — the cudaMemcpy rate — while a
        batch of mostly-empty requests is dominated by the per-request
        overhead, reproducing the throughput collapse of Figure 3(e).
        Arrays of totals price element-wise with the same operations
        (``ZeroCopyEngine.partition_prices`` prices every partition at once).
        """
        gamma = self.config.zero_copy_gamma
        rtt = self.config.tlp_round_trip_time
        mr = self.config.pcie_max_outstanding
        header_time = gamma * rtt * total_requests / mr
        payload_time = (1.0 - gamma) * rtt * payload_bytes / (mr * self.config.pcie_request_bytes)
        return header_time + payload_time

    def zero_copy_throughput(self, request_bytes: int) -> float:
        """Effective zero-copy throughput when every request carries ``request_bytes``.

        Reproduces Figure 3(e): at 128-byte requests zero-copy matches
        cudaMemcpy; smaller requests waste bandwidth on TLP headers, which
        the γ-damped RTT captures.
        """
        if request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        request_bytes = min(request_bytes, self.config.pcie_request_bytes)
        payload_fraction = request_bytes / self.config.pcie_request_bytes
        payload_per_tlp = self.config.pcie_max_outstanding * request_bytes
        return payload_per_tlp / self.zero_copy_rtt(payload_fraction)

    # ------------------------------------------------------------------
    # Unified memory
    # ------------------------------------------------------------------
    def page_migration_time(self, num_pages: int) -> float:
        """Seconds to fault in ``num_pages`` 4-KB unified-memory pages.

        Migration runs at ``um_peak_fraction`` of the explicit-copy
        bandwidth and pays a fixed TLB/page-table overhead per fault.
        """
        if num_pages <= 0:
            return 0.0
        transfer = num_pages * self.config.um_page_bytes / self.config.um_bandwidth
        overhead = num_pages * self.config.um_fault_overhead
        return transfer + overhead

    def pages_for_byte_ranges(self, start_bytes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Distinct 4-KB page ids touched by each ``[start, start+length)`` range.

        Returns the union of page ids across all ranges (sorted, unique).
        """
        start_bytes = np.asarray(start_bytes, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        page = self.config.um_page_bytes
        pages: list[np.ndarray] = []
        nonzero = lengths > 0
        for start, length in zip(start_bytes[nonzero], lengths[nonzero]):
            first = start // page
            last = (start + length - 1) // page
            pages.append(np.arange(first, last + 1, dtype=np.int64))
        if not pages:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(pages))
