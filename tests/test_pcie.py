"""Unit tests for the PCIe transfer-time model (Formulas 1-3 plumbing)."""

import numpy as np
import pytest

from repro.sim.pcie import PCIeModel


@pytest.fixture
def pcie(config):
    return PCIeModel(config)


class TestExplicitCopy:
    # Explicit copies ship whole saturated TLPs: k of them cost k * RTT.
    def test_zero_bytes(self, pcie):
        assert pcie.explicit_copy_time(0) == 0.0

    def test_single_tlp(self, pcie, config):
        assert pcie.explicit_copy_time(1) == config.tlp_round_trip_time

    def test_exact_multiple(self, pcie, config):
        payload = config.tlp_payload_bytes
        assert pcie.explicit_copy_time(3 * payload) == 3 * config.tlp_round_trip_time

    def test_rounds_up(self, pcie, config):
        payload = config.tlp_payload_bytes
        assert pcie.explicit_copy_time(payload + 1) == 2 * config.tlp_round_trip_time

    def test_large_transfer_matches_bandwidth(self, pcie, config):
        num_bytes = 1 << 30
        time = pcie.explicit_copy_time(num_bytes)
        assert time == pytest.approx(num_bytes / config.pcie_bandwidth, rel=0.01)


class TestZeroCopyRequests:
    def test_aligned_requests(self, pcie, config):
        degrees = np.array([1, 32, 33, 64])
        requests = pcie.requests_for_vertices(degrees)
        # 4 bytes per entry, 128-byte requests -> 32 entries per request.
        np.testing.assert_array_equal(requests, [1, 1, 2, 2])

    def test_zero_degree_needs_no_request(self, pcie):
        np.testing.assert_array_equal(pcie.requests_for_vertices(np.array([0, 0])), [0, 0])

    def test_misalignment_adds_request(self, pcie, config):
        degrees = np.array([32, 32])
        start_bytes = np.array([0, 64])  # second vertex starts mid-line
        requests = pcie.requests_for_vertices(degrees, start_bytes)
        np.testing.assert_array_equal(requests, [1, 2])

    def test_custom_value_bytes(self, pcie):
        degrees = np.array([16])
        assert pcie.requests_for_vertices(degrees, value_bytes=8)[0] == 1
        assert pcie.requests_for_vertices(np.array([17]), value_bytes=8)[0] == 2


class TestZeroCopyTiming:
    def test_rtt_saturated_equals_full_rtt(self, pcie, config):
        assert pcie.zero_copy_rtt(1.0) == pytest.approx(config.tlp_round_trip_time)

    def test_rtt_empty_pays_gamma(self, pcie, config):
        assert pcie.zero_copy_rtt(0.0) == pytest.approx(config.zero_copy_gamma * config.tlp_round_trip_time)

    def test_rtt_clamps_fraction(self, pcie, config):
        assert pcie.zero_copy_rtt(2.0) == pytest.approx(config.tlp_round_trip_time)

    def _access(self, pcie, config, degrees):
        """(requests, payload bytes, seconds) of reading ``degrees`` aligned lists."""
        requests = int(pcie.requests_for_vertices(degrees).sum())
        payload = int(np.sum(degrees)) * config.vertex_value_bytes
        return requests, payload, pcie.zero_copy_time(requests, payload)

    def test_access_counts(self, pcie, config):
        degrees = np.full(512, 32)  # each vertex exactly one saturated request
        requests, payload, time = self._access(pcie, config, degrees)
        assert requests == 512
        assert int(np.ceil(requests / config.pcie_max_outstanding)) == 2
        assert payload == 512 * 32 * config.vertex_value_bytes
        assert time == pytest.approx(2 * config.tlp_round_trip_time)

    def test_access_empty(self, pcie, config):
        requests, _, time = self._access(pcie, config, np.array([], dtype=np.int64))
        assert requests == 0
        assert time == 0.0

    def test_low_degree_vertices_cost_more_per_byte(self, pcie, config):
        # Same number of edges, spread over many low-degree vertices vs few
        # high-degree ones: the low-degree version needs more requests and
        # more time (the Figure 4 toy-example effect).
        low = self._access(pcie, config, np.full(256, 4))
        high = self._access(pcie, config, np.full(32, 32))
        assert low[1] == high[1]
        assert low[0] > high[0]
        assert low[2] > high[2]

    def test_throughput_figure_3e_shape(self, pcie, config):
        # Figure 3(e): 128-byte requests match cudaMemcpy; smaller requests
        # lose throughput monotonically, 32-byte roughly a third.
        throughput = {size: pcie.zero_copy_throughput(size) for size in (32, 64, 96, 128)}
        assert throughput[128] == pytest.approx(pcie.explicit_copy_throughput(), rel=0.01)
        assert throughput[32] < throughput[64] < throughput[96] < throughput[128]
        assert throughput[32] < 0.5 * throughput[128]

    def test_throughput_invalid_request(self, pcie):
        with pytest.raises(ValueError):
            pcie.zero_copy_throughput(0)


class TestUnifiedMemory:
    def test_migration_time_zero_pages(self, pcie):
        assert pcie.page_migration_time(0) == 0.0

    def test_migration_slower_than_explicit_copy(self, pcie, config):
        pages = 1024
        um_time = pcie.page_migration_time(pages)
        explicit = pcie.explicit_copy_time(pages * config.um_page_bytes)
        assert um_time > explicit

    def test_pages_for_ranges(self, pcie, config):
        page = config.um_page_bytes
        starts = np.array([0, page - 4, 3 * page])
        lengths = np.array([8, 8, 8])
        pages = pcie.pages_for_byte_ranges(starts, lengths)
        # Second range straddles pages 0 and 1.
        np.testing.assert_array_equal(pages, [0, 1, 3])

    def test_pages_for_empty_ranges(self, pcie):
        pages = pcie.pages_for_byte_ranges(np.array([10]), np.array([0]))
        assert pages.size == 0

    def test_pages_unique_across_overlapping_ranges(self, pcie, config):
        page = config.um_page_bytes
        starts = np.array([0, 16])
        lengths = np.array([32, 32])
        pages = pcie.pages_for_byte_ranges(starts, lengths)
        np.testing.assert_array_equal(pages, [0])
