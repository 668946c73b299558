"""Unit tests for the hardware configuration presets."""

import pytest

from repro.sim.config import (
    GPU_PRESETS,
    HardwareConfig,
    a100,
    default_config,
    gtx_1080,
    gtx_2080ti,
    h100,
    tesla_p100,
    tesla_v100,
)


class TestDerivedQuantities:
    def test_tlp_payload(self):
        config = HardwareConfig()
        assert config.tlp_payload_bytes == 256 * 128

    def test_rtt_matches_bandwidth(self):
        config = HardwareConfig()
        assert config.tlp_round_trip_time == pytest.approx(256 * 128 / config.pcie_bandwidth)

    def test_um_bandwidth_fraction(self):
        config = HardwareConfig()
        assert config.um_bandwidth == pytest.approx(config.pcie_bandwidth * config.um_peak_fraction)

    def test_table1_bandwidth_gap(self):
        # Table I: the GPU-memory-vs-PCIe gap stays enormous (~45-50x with
        # theoretical PCIe bandwidth, a bit higher with the practical
        # bandwidth the presets use) across generations.
        for preset in (tesla_p100(), tesla_v100(), a100(), h100()):
            assert 30 <= preset.memory_bandwidth_ratio <= 80

    def test_2080ti_is_default(self):
        assert default_config().name == gtx_2080ti().name


class TestValidation:
    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            HardwareConfig(zero_copy_gamma=1.5)

    def test_invalid_request_bytes(self):
        with pytest.raises(ValueError):
            HardwareConfig(pcie_request_bytes=0)

    def test_invalid_um_fraction(self):
        with pytest.raises(ValueError):
            HardwareConfig(um_peak_fraction=0.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            HardwareConfig(pcie_bandwidth=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_streams", 0),
            ("num_streams", -1),
            ("cpu_compaction_throughput", 0),
            ("gpu_edge_throughput", 0),
            ("cpu_edge_throughput", 0),
            ("um_page_bytes", 0),
            ("gpu_memory_bytes", -5),
            # A negative size or overhead would shrink every bill it enters.
            ("gpu_kernel_launch_overhead", -1e-3),
            ("um_fault_overhead", -1e-6),
            ("index_entry_bytes", -8),
            ("vertex_value_bytes", -4),
        ],
    )
    def test_values_that_would_fail_mid_run_are_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            HardwareConfig(**{field: value})


class TestAdjustedCopies:
    def test_with_gpu_memory(self):
        config = HardwareConfig().with_gpu_memory(123)
        assert config.gpu_memory_bytes == 123

    def test_scaled_also_scales_launch_overhead(self):
        base = HardwareConfig()
        scaled = base.scaled(0.01)
        assert scaled.gpu_kernel_launch_overhead == pytest.approx(base.gpu_kernel_launch_overhead * 0.01)
        assert scaled.pcie_request_bytes == base.pcie_request_bytes

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            HardwareConfig().scaled(0)

    def test_original_unchanged(self):
        base = HardwareConfig()
        base.with_gpu_memory(1)
        assert base.gpu_memory_bytes != 1


class TestPresets:
    def test_all_presets_present(self):
        assert {"GTX-1080", "GTX-2080Ti", "P100", "V100", "A100", "H100"} <= set(GPU_PRESETS)

    def test_memory_ordering_matches_table1(self):
        assert gtx_1080().gpu_memory_bytes < gtx_2080ti().gpu_memory_bytes < tesla_p100().gpu_memory_bytes
        assert a100().gpu_memory_bytes < h100().gpu_memory_bytes

    def test_newer_gpus_have_faster_pcie(self):
        assert a100().pcie_bandwidth > gtx_2080ti().pcie_bandwidth
        assert h100().pcie_bandwidth > a100().pcie_bandwidth


class TestNetworkConfig:
    def test_presets_cover_the_fabric_tiers(self):
        from repro.sim.config import NETWORK_PRESETS, NetworkConfig

        assert set(NETWORK_PRESETS) == {"rdma", "tcp", "ethernet-10g"}
        rdma = NetworkConfig.from_preset("rdma")
        tcp = NetworkConfig.from_preset("tcp")
        ten_g = NetworkConfig.from_preset("ethernet-10g")
        # Bandwidth ordering: rdma > tcp > 10GbE; rdma also wins latency.
        assert rdma.bandwidth > tcp.bandwidth > ten_g.bandwidth
        assert rdma.latency < min(tcp.latency, ten_g.latency)

    def test_preset_lookup_is_case_insensitive_and_typed(self):
        from repro.sim.config import NetworkConfig

        assert NetworkConfig.from_preset(" RDMA ").kind == "rdma"
        with pytest.raises(KeyError, match="unknown network preset"):
            NetworkConfig.from_preset("smoke-signals")

    def test_transfer_seconds_bills_latency_plus_bytes(self):
        from repro.sim.config import NetworkConfig

        link = NetworkConfig(kind="lab", bandwidth=1e9, latency=1e-3)
        assert link.transfer_seconds(0) == 1e-3
        assert link.transfer_seconds(10**9) == pytest.approx(1.001)
        with pytest.raises(ValueError, match="non-negative"):
            link.transfer_seconds(-1)

    def test_validation(self):
        from repro.sim.config import NetworkConfig

        with pytest.raises(ValueError, match="bandwidth"):
            NetworkConfig(bandwidth=0.0)
        with pytest.raises(ValueError, match="latency"):
            NetworkConfig(latency=-1e-6)
