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
(``explicit_copy_time``, ``zero_copy_time``, ``zero_copy_rtt``,
``page_migration_time``), each element-wise over arrays of totals, and
vectorised per-vertex counts (``vertex_requests``,
``pages_for_byte_ranges``).  The execution context
(:class:`~repro.runtime.context.ExecutionContext`) holds the one model
of a session as ``context.pcie`` and prices every explicit-copy and
zero-copy bill and estimate with it; the unified-memory engine's
per-vertex ``transfer_task`` prices page faults.
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

    # ------------------------------------------------------------------
    # Zero-copy
    # ------------------------------------------------------------------
    def vertex_requests(self, graph) -> np.ndarray:
        """Zero-copy memory requests of every vertex of ``graph``.

        Vertex ``v`` reads ``Do(v) * d1`` bytes from byte offset
        ``row_offset[v] * d1`` (``d1`` the CSR's bytes per edge), so it
        needs ``ceil((offset % m + Do(v) * d1) / m)`` requests — one more
        than the aligned count when its list straddles an extra request
        boundary (the ``am(v)`` term) — and a zero-degree vertex none.  A
        function of the CSR layout alone, so the execution context builds
        it once and sums it per partition for every frontier.
        """
        d1 = graph.edge_bytes_per_edge
        m = self.config.pcie_request_bytes
        degrees = graph.out_degrees
        span = (graph.row_offset[:-1] * d1 % m) + degrees * d1
        requests = np.ceil(span / m).astype(np.int64)
        requests[degrees == 0] = 0
        return requests

    def zero_copy_rtt(self, payload_fraction):
        """Damped TLP round trip for zero-copy with the given payload fraction.

        ``RTT_zc = γ·RTT + (1-γ)·payload_fraction·RTT`` (Section V-A); a
        fully saturated TLP (payload_fraction = 1) costs the full RTT, an
        almost-empty one still costs γ of it.  Element-wise over an array
        of non-negative fractions, each capped at 1 (Formula 3's estimate
        prices every partition at once).
        """
        payload_fraction = np.minimum(payload_fraction, 1.0)
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
        (``ExecutionContext.zero_copy_prices`` prices every partition at once).
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
        return float(payload_per_tlp / self.zero_copy_rtt(payload_fraction))

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
        Each non-empty range spans pages ``first .. last``; the spans are
        laid end to end and numbered with one ``repeat``/``cumsum``.
        """
        start_bytes = np.asarray(start_bytes, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        page = self.config.um_page_bytes
        nonzero = lengths > 0
        starts = start_bytes[nonzero]
        first = starts // page
        counts = (starts + lengths[nonzero] - 1) // page - first + 1
        # Page k of range i is first[i] + k: offset every slot by its own
        # range's first page minus that range's first slot.
        slot_starts = np.cumsum(counts) - counts
        pages = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(first - slot_starts, counts)
        return np.unique(pages)
