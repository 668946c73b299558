"""Unit tests for the PCIe transfer-time model (Formulas 1-3 plumbing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.sim.config import HardwareConfig
from repro.sim.pcie import PCIeModel


@pytest.fixture
def pcie(config):
    return PCIeModel(config)


def graph_of_degrees(degrees, weighted=False):
    """A CSR graph whose vertices have out-degrees ``degrees``, laid out in order."""
    row_offset = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))
    num_edges = int(row_offset[-1])
    weights = np.ones(num_edges) if weighted else None
    return CSRGraph(row_offset, np.zeros(num_edges, dtype=np.int64), weights)


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
    # Vertex v reads Do(v) * d1 bytes from byte row_offset[v] * d1; with
    # 4-byte entries a 128-byte request holds 32 of them.
    @pytest.mark.parametrize("degree,requests", [(1, 1), (32, 1), (33, 2), (64, 2)])
    def test_aligned_requests(self, pcie, degree, requests):
        assert pcie.vertex_requests(graph_of_degrees([degree])).tolist() == [requests]

    def test_zero_degree_needs_no_request(self, pcie):
        # The last vertex starts 20 bytes into a request line but reads
        # nothing, so it issues no request.
        assert pcie.vertex_requests(graph_of_degrees([0, 0, 5, 0])).tolist() == [0, 0, 1, 0]

    def test_misalignment_adds_request(self, pcie):
        # The second list starts mid-line (byte 64): 128 bytes span two lines.
        assert pcie.vertex_requests(graph_of_degrees([16, 32])).tolist() == [1, 2]

    def test_weighted_edges_are_eight_bytes(self, pcie):
        # d1 = 8 (neighbour + weight): 16 entries fill a request, 17 spill,
        # and a list starting mid-line (byte 136) straddles one more.
        graph = graph_of_degrees([16, 17, 16], weighted=True)
        assert graph.edge_bytes_per_edge == 8
        assert pcie.vertex_requests(graph).tolist() == [1, 2, 2]


class TestZeroCopyTiming:
    def test_rtt_saturated_equals_full_rtt(self, pcie, config):
        assert pcie.zero_copy_rtt(1.0) == pytest.approx(config.tlp_round_trip_time)

    def test_rtt_empty_pays_gamma(self, pcie, config):
        assert pcie.zero_copy_rtt(0.0) == pytest.approx(config.zero_copy_gamma * config.tlp_round_trip_time)

    def test_rtt_clamps_fraction(self, pcie, config):
        assert pcie.zero_copy_rtt(2.0) == pytest.approx(config.tlp_round_trip_time)

    def _access(self, pcie, config, degrees):
        """(requests, payload bytes, seconds) of reading every list of a graph of ``degrees``."""
        graph = graph_of_degrees(degrees)
        requests = int(pcie.vertex_requests(graph).sum())
        payload = int(np.sum(degrees)) * graph.edge_bytes_per_edge
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
        assert throughput[128] == pytest.approx(config.pcie_bandwidth, rel=0.01)
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


_PAGE = HardwareConfig().um_page_bytes


@st.composite
def byte_ranges(draw):
    """``(start, length)``: often 1 byte, empty, or ending exactly on a page boundary."""
    offset = draw(st.one_of(st.sampled_from([0, 1, _PAGE - 1]), st.integers(0, _PAGE - 1)))
    length = draw(st.one_of(
        st.sampled_from([0, 1, _PAGE - offset, 2 * _PAGE - offset]),
        st.integers(0, 3 * _PAGE),
    ))
    return draw(st.integers(0, 6)) * _PAGE + offset, length


@settings(max_examples=60, deadline=None)
@given(st.lists(byte_ranges(), max_size=12))
def test_pages_match_a_per_range_oracle(ranges):
    expected = sorted({
        page
        for start, length in ranges
        if length
        for page in range(start // _PAGE, (start + length - 1) // _PAGE + 1)
    })
    starts = np.array([start for start, _ in ranges], dtype=np.int64)
    lengths = np.array([length for _, length in ranges], dtype=np.int64)
    pages = PCIeModel(HardwareConfig()).pages_for_byte_ranges(starts, lengths)
    assert pages.dtype == np.int64
    assert pages.tolist() == expected
