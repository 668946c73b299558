"""Hardware configuration presets for the simulated platform.

The paper's test platform is an Intel Silver 4210 10-core CPU with 128 GB
DRAM and a GTX 2080Ti over PCIe 3.0 (Section VII-A); the GPU-sensitivity
study (Figure 10) adds a GTX 1080 and a Tesla P100, and Table I quotes the
GPU-memory-vs-PCIe bandwidth gap for P100 through H100.

:class:`HardwareConfig` captures every parameter the cost model and the
transfer engines need.  The *shape* of the results depends only on the
ratios between these numbers (memory bandwidth vs PCIe, compaction
throughput vs PCIe, request size vs cache line), so the presets reuse the
paper's published figures directly.

Because the reproduction runs on scaled-down graphs, GPU memory capacity
must be scaled by the same factor as the graphs to preserve the
oversubscription regime; use :meth:`HardwareConfig.scaled_memory` for
that (the benchmark harness does it automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "HardwareConfig",
    "NetworkConfig",
    "GPU_PRESETS",
    "INTERCONNECT_PRESETS",
    "NETWORK_PRESETS",
    "gtx_2080ti",
    "gtx_1080",
    "tesla_p100",
    "tesla_v100",
    "a100",
    "h100",
    "default_config",
]

GiB = 1024 ** 3
MiB = 1024 ** 2

# Inter-GPU interconnect presets: (bandwidth bytes/s per direction and
# device pair, latency seconds per synchronisation phase).  "nvlink"
# models an NVLink 2.0-class point-to-point mesh (~25 GB/s per link);
# "pcie-peer" models peer-to-peer DMA through the PCIe switch, which is
# both slower and higher latency because every hop crosses the root
# complex.
INTERCONNECT_PRESETS: dict[str, tuple[float, float]] = {
    "nvlink": (25e9, 10e-6),
    "pcie-peer": (11e9, 25e-6),
}

# Host-to-host network presets: (bandwidth bytes/s per flow, latency
# seconds per message).  "rdma" models a 100 Gb/s RoCE/InfiniBand fabric
# with kernel-bypass latencies; "tcp" a 25 GbE link through the kernel
# TCP stack (bandwidth-capable but latency-heavy); "ethernet-10g" a
# plain 10 GbE datacenter link.  The network tier is an order of
# magnitude below PCIe on every preset, which is exactly why cross-host
# movement (checkpoint shipping) must be billed rather than assumed free.
NETWORK_PRESETS: dict[str, tuple[float, float]] = {
    "rdma": (12.5e9, 2e-6),
    "tcp": (2.5e9, 50e-6),
    "ethernet-10g": (1.25e9, 30e-6),
}


@dataclass(frozen=True)
class NetworkConfig:
    """The host-interconnect of a simulated multi-node cluster.

    Attributes
    ----------
    kind:
        Preset name used in reports (one of :data:`NETWORK_PRESETS`
        for presets; free-form for custom links).
    bandwidth:
        Bytes/second one cross-host flow sustains.
    latency:
        Fixed seconds per message (connection setup, NIC traversal,
        switch hops) billed once per transfer.
    """

    kind: str = "tcp"
    bandwidth: float = 2.5e9
    latency: float = 50e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("network bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("network latency must be non-negative")

    @classmethod
    def from_preset(cls, kind: str) -> "NetworkConfig":
        """The preset named ``kind`` (``"tcp"``/``"rdma"``/``"ethernet-10g"``)."""
        key = kind.strip().lower()
        if key not in NETWORK_PRESETS:
            raise KeyError(
                "unknown network preset %r; available: %s"
                % (kind, ", ".join(sorted(NETWORK_PRESETS)))
            )
        bandwidth, latency = NETWORK_PRESETS[key]
        return cls(kind=key, bandwidth=bandwidth, latency=latency)

    def transfer_seconds(self, nbytes: int) -> float:
        """Simulated seconds one ``nbytes`` cross-host transfer takes."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class HardwareConfig:
    """All hardware parameters of the simulated host + GPU platform.

    Attributes
    ----------
    name:
        Preset name used in reports (``"GTX-2080Ti"`` etc.).
    gpu_memory_bytes:
        Device memory available for caching edge-associated data after the
        vertex-associated arrays are resident.
    gpu_memory_bandwidth:
        Device global-memory bandwidth in bytes/second (Table I column 2).
    gpu_edge_throughput:
        Edges per second one kernel can process when data is on-device.
    gpu_kernel_launch_overhead:
        Fixed seconds per kernel launch (motivates task combining).
    pcie_bandwidth:
        Practical host-to-GPU explicit-copy bandwidth in bytes/second
        (the paper quotes 12.3 GB/s practical for PCIe 3.0 x16).
    pcie_request_bytes:
        Maximum payload of one outstanding memory request (``m`` = 128 B).
    pcie_max_outstanding:
        Maximum outstanding requests per TLP (``MR`` = 256 for PCIe 3.0).
    zero_copy_gamma:
        The γ damping factor splitting a zero-copy TLP's round-trip time
        into a fixed part and a payload-proportional part (γ = 0.625).
    um_page_bytes:
        Unified-memory migration granularity (4 KB pages).
    um_peak_fraction:
        Peak unified-memory bandwidth as a fraction of cudaMemcpy (73.9 %).
    um_fault_overhead:
        Seconds of TLB-invalidation / page-table overhead per page fault.
    cpu_compaction_throughput:
        Bytes per second the CPU compaction engine produces.
    cpu_edge_throughput:
        Edges per second of the CPU-only (Galois-like) baseline.
    cpu_threads:
        Host CPU cores (10 in the paper's testbed).
    num_streams:
        CUDA streams used by the multi-stream scheduler.
    vertex_value_bytes:
        ``d1`` — bytes per neighbor id / vertex value (4).
    index_entry_bytes:
        ``d2`` — bytes per compacted-index entry (8).
    num_devices:
        Number of GPUs attached to the host.  1 (the paper's testbed)
        runs the single-device engines unchanged; larger values enable
        the sharded multi-GPU execution layer.
    interconnect_kind:
        Inter-GPU link type, one of :data:`INTERCONNECT_PRESETS`
        (``"nvlink"`` or ``"pcie-peer"``).  Only meaningful when
        ``num_devices > 1``.
    interconnect_bandwidth:
        Bytes/second one device pair can exchange boundary deltas at.
    interconnect_latency:
        Fixed seconds per boundary-synchronisation phase (barrier plus
        convergence-flag all-reduce).
    """

    name: str = "GTX-2080Ti"
    gpu_memory_bytes: int = 11 * GiB
    gpu_memory_bandwidth: float = 616e9
    gpu_edge_throughput: float = 10e9
    gpu_kernel_launch_overhead: float = 10e-6
    pcie_bandwidth: float = 12.3e9
    pcie_request_bytes: int = 128
    pcie_max_outstanding: int = 256
    zero_copy_gamma: float = 0.625
    um_page_bytes: int = 4096
    um_peak_fraction: float = 0.739
    um_fault_overhead: float = 0.5e-6
    cpu_compaction_throughput: float = 1.5e9
    cpu_edge_throughput: float = 0.25e9
    cpu_threads: int = 10
    num_streams: int = 4
    vertex_value_bytes: int = 4
    index_entry_bytes: int = 8
    num_devices: int = 1
    interconnect_kind: str = "nvlink"
    interconnect_bandwidth: float = 25e9
    interconnect_latency: float = 10e-6

    def __post_init__(self) -> None:
        if self.pcie_request_bytes <= 0 or self.pcie_max_outstanding <= 0:
            raise ValueError("PCIe request size and outstanding count must be positive")
        if not 0.0 <= self.zero_copy_gamma <= 1.0:
            raise ValueError("zero_copy_gamma must be in [0, 1]")
        if not 0.0 < self.um_peak_fraction <= 1.0:
            raise ValueError("um_peak_fraction must be in (0, 1]")
        if self.pcie_bandwidth <= 0 or self.gpu_memory_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        if self.interconnect_bandwidth <= 0:
            raise ValueError("interconnect_bandwidth must be positive")
        if self.interconnect_latency < 0:
            raise ValueError("interconnect_latency must be non-negative")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def tlp_payload_bytes(self) -> int:
        """Payload of one fully-saturated TLP (``MR * m`` bytes)."""
        return self.pcie_max_outstanding * self.pcie_request_bytes

    @property
    def tlp_round_trip_time(self) -> float:
        """``RTT`` — seconds for PCIe to process one saturated TLP."""
        return self.tlp_payload_bytes / self.pcie_bandwidth

    @property
    def memory_bandwidth_ratio(self) -> float:
        """GPU-memory-bandwidth / PCIe-bandwidth gap (Table I last column)."""
        return self.gpu_memory_bandwidth / self.pcie_bandwidth

    @property
    def um_bandwidth(self) -> float:
        """Peak unified-memory migration bandwidth in bytes/second."""
        return self.pcie_bandwidth * self.um_peak_fraction

    @property
    def is_multi_device(self) -> bool:
        """Whether the sharded multi-GPU execution layer is active."""
        return self.num_devices > 1

    @property
    def boundary_update_bytes(self) -> int:
        """Bytes per boundary-vertex delta message (id entry + value)."""
        return self.index_entry_bytes + self.vertex_value_bytes

    # ------------------------------------------------------------------
    # Adjusted copies
    # ------------------------------------------------------------------
    def with_gpu_memory(self, gpu_memory_bytes: int) -> "HardwareConfig":
        """A copy with a different device-memory capacity."""
        return replace(self, gpu_memory_bytes=int(gpu_memory_bytes))

    def scaled_memory(self, scale: float) -> "HardwareConfig":
        """A copy with device memory scaled by ``scale``.

        When graphs are scaled down by a factor ``s`` relative to the
        paper's datasets, calling ``preset.scaled_memory(s)`` preserves the
        graph-size-to-GPU-memory ratio that drives the oversubscription
        behaviour (which system wins on which dataset).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(self, gpu_memory_bytes=max(1, int(self.gpu_memory_bytes * scale)))

    def scaled(self, scale: float) -> "HardwareConfig":
        """A copy scaled for graphs ``scale`` times the paper's size.

        The device-memory capacity and the fixed per-event overheads
        (kernel launch, interconnect synchronisation latency) are
        multiplied by ``scale`` so that their magnitude *relative to
        per-partition transfer and kernel times* stays what it is on the
        paper's billion-edge graphs.  Bandwidths, request sizes and page
        sizes are physical constants and stay untouched.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(
            self,
            gpu_memory_bytes=max(1, int(self.gpu_memory_bytes * scale)),
            gpu_kernel_launch_overhead=self.gpu_kernel_launch_overhead * scale,
            interconnect_latency=self.interconnect_latency * scale,
        )

    def with_streams(self, num_streams: int) -> "HardwareConfig":
        """A copy with a different number of CUDA streams."""
        if num_streams <= 0:
            raise ValueError("num_streams must be positive")
        return replace(self, num_streams=num_streams)

    def with_devices(self, num_devices: int, interconnect: str | None = None) -> "HardwareConfig":
        """A copy attached to ``num_devices`` GPUs of this preset.

        Each device keeps the preset's per-device memory and bandwidth
        (so the aggregate device memory grows with ``num_devices``);
        ``interconnect`` names one of :data:`INTERCONNECT_PRESETS` and
        defaults to the current kind.
        """
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        kind = interconnect or self.interconnect_kind
        if kind not in INTERCONNECT_PRESETS:
            raise KeyError(
                "unknown interconnect %r; available: %s"
                % (kind, ", ".join(sorted(INTERCONNECT_PRESETS)))
            )
        bandwidth, latency = INTERCONNECT_PRESETS[kind]
        return replace(
            self,
            num_devices=num_devices,
            interconnect_kind=kind,
            interconnect_bandwidth=bandwidth,
            interconnect_latency=latency,
        )


def gtx_2080ti() -> HardwareConfig:
    """The paper's primary testbed GPU: GTX 2080Ti, 11 GB, 616 GB/s."""
    return HardwareConfig(name="GTX-2080Ti", gpu_memory_bytes=11 * GiB, gpu_memory_bandwidth=616e9,
                          gpu_edge_throughput=10e9)


def gtx_1080() -> HardwareConfig:
    """GTX 1080: 8 GB, 320 GB/s, fewer cores (Figure 10)."""
    return HardwareConfig(name="GTX-1080", gpu_memory_bytes=8 * GiB, gpu_memory_bandwidth=320e9,
                          gpu_edge_throughput=6e9)


def tesla_p100() -> HardwareConfig:
    """Tesla P100: 16 GB, 732 GB/s (Table I row 1, Figure 10)."""
    return HardwareConfig(name="P100", gpu_memory_bytes=16 * GiB, gpu_memory_bandwidth=732e9,
                          gpu_edge_throughput=8e9)


def tesla_v100() -> HardwareConfig:
    """Tesla V100: 16 GB HBM2 at 900 GB/s, PCIe 3.0 (Table I row 2)."""
    return HardwareConfig(name="V100", gpu_memory_bytes=16 * GiB, gpu_memory_bandwidth=900e9,
                          gpu_edge_throughput=11e9)


def a100() -> HardwareConfig:
    """A100: 40 GB, 1.9 TB/s, PCIe 4.0 x16 at 32 GB/s (Table I row 3)."""
    return HardwareConfig(name="A100", gpu_memory_bytes=40 * GiB, gpu_memory_bandwidth=1.9e12,
                          pcie_bandwidth=26e9, gpu_edge_throughput=20e9)


def h100() -> HardwareConfig:
    """H100: 80 GB, 3 TB/s, PCIe 5.0 x16 at 64 GB/s (Table I row 4)."""
    return HardwareConfig(name="H100", gpu_memory_bytes=80 * GiB, gpu_memory_bandwidth=3.0e12,
                          pcie_bandwidth=52e9, gpu_edge_throughput=30e9)


GPU_PRESETS: dict[str, HardwareConfig] = {
    "GTX-1080": gtx_1080(),
    "GTX-2080Ti": gtx_2080ti(),
    "P100": tesla_p100(),
    "V100": tesla_v100(),
    "A100": a100(),
    "H100": h100(),
}


def default_config() -> HardwareConfig:
    """The default simulated platform (the paper's GTX 2080Ti testbed)."""
    return gtx_2080ti()
