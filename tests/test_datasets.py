"""Unit tests for the Table IV dataset stand-ins."""

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import DATASETS, DatasetSpec, dataset_names, load_dataset
from repro.graph.generators import (
    complete_graph,
    grid_graph,
    path_graph,
    power_law_graph,
    rmat_graph,
    star_graph,
    uniform_random_graph,
)
from repro.graph.reorder import hub_sort


class TestSpecs:
    def test_all_five_datasets_present(self):
        assert set(dataset_names()) == {"SK", "TW", "FK", "UK", "FS"}

    def test_specs_match_paper_kinds(self):
        assert DATASETS["SK"].kind == "web"
        assert DATASETS["UK"].kind == "web"
        assert DATASETS["TW"].kind == "social"
        assert DATASETS["FK"].kind == "social"
        assert DATASETS["FS"].kind == "social"

    def test_directedness(self):
        assert DATASETS["SK"].directed
        assert DATASETS["TW"].directed
        assert DATASETS["UK"].directed
        assert not DATASETS["FK"].directed
        assert not DATASETS["FS"].directed

    def test_approx_edges(self):
        spec = DatasetSpec("X", "x", "web", 1000, 10.0, True, 1)
        assert spec.approx_edges == 10000


class TestLoading:
    @pytest.mark.parametrize("name", ["SK", "TW", "FK", "UK", "FS"])
    def test_load_small_scale(self, name):
        graph = load_dataset(name, scale=0.05)
        assert graph.num_vertices > 0
        assert graph.num_edges > 0
        assert graph.name == name

    def test_aliases(self):
        by_alias = load_dataset("sk-2005", scale=0.05)
        by_name = load_dataset("SK", scale=0.05)
        assert by_alias.num_edges == by_name.num_edges

    def test_scale_changes_size(self):
        small = load_dataset("TW", scale=0.05)
        larger = load_dataset("TW", scale=0.1)
        assert larger.num_vertices > small.num_vertices

    def test_weighted(self):
        graph = load_dataset("SK", scale=0.05, weighted=True)
        assert graph.is_weighted

    def test_deterministic(self):
        first = load_dataset("FK", scale=0.05)
        second = load_dataset("FK", scale=0.05)
        assert first.num_edges == second.num_edges

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("not-a-dataset")

    def test_web_graphs_keep_degree_skew(self):
        graph = load_dataset("SK", scale=0.3)
        degrees = graph.out_degrees
        assert degrees.max() > 5 * degrees.mean()


def graph_digest(graph):
    """blake2b over (row_offset, column_index, edge_value), dtype included."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (graph.row_offset, graph.column_index, graph.edge_value):
        if array is not None:
            digest.update(array.dtype.str.encode() + np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# Taken at the commit before CSR construction became one key sort: every
# simulated number downstream is a function of these arrays, so a digest
# that moves means generators, dedup order or hub sorting drifted.
GOLDEN_DIGESTS = {
    "SK-0.05-plain": "56806f621e81b5663e8515980ee70a73",
    "SK-0.05-weighted": "c564496924623138ee96b5ad59ee4b92",
    "SK-0.05-symmetrized": "6d945ca6bdfba82d007fbc9c1024b376",
    "TW-0.05-plain": "6d4bf8430b20c0f7deaa46dd20318286",
    "TW-0.05-weighted": "e91ad5d4636f7df8c2e0f7a08cbb5c66",
    "TW-0.05-symmetrized": "575fe7e3124db3be576a83c29e9d72d5",
    "FK-0.05-plain": "4402c73a05c20e99e2708c6996f1e11a",
    "FK-0.05-weighted": "0ecd88b82b73c90866ef440b7239b9f2",
    "FK-0.05-symmetrized": "0ecd88b82b73c90866ef440b7239b9f2",
    "UK-0.05-plain": "ea0e4ca1b4c76ce7d5a6aedfb2ff7e8c",
    "UK-0.05-weighted": "0e1d0581ced080a8e04f3aac18948278",
    "UK-0.05-symmetrized": "fe89f5a88797d17457390c873561617c",
    "FS-0.05-plain": "9e956f83a8c70827e94aada670624425",
    "FS-0.05-weighted": "8405521de6d5b2880f53ed85bb7d31fd",
    "FS-0.05-symmetrized": "8405521de6d5b2880f53ed85bb7d31fd",
    "SK-1.0-weighted": "91042325fba70fb119a3884750e0b2cd",
    "TW-1.0-weighted": "4219960e2c73e02b4aff8923a1c02ee3",
    "SK-1.0-weighted-hubsorted": "ce8883c782fd9796c791f6e0dbeae1d4",
    "SK-0.05-weighted-reversed": "ae178ea05d37cd9e9bc8bf653fa83b37",
    "uniform-500x4000-weighted": "6a50681e25a24257ae0cdfe877e2421e",
    "rmat-1000x9000-weighted": "ae11386a4be8c9252a2673d0e57ca74b",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", ["SK", "TW", "FK", "UK", "FS"])
    def test_datasets_at_small_scale(self, name):
        weighted = load_dataset(name, scale=0.05, weighted=True)
        assert graph_digest(load_dataset(name, scale=0.05)) == GOLDEN_DIGESTS[name + "-0.05-plain"]
        assert graph_digest(weighted) == GOLDEN_DIGESTS[name + "-0.05-weighted"]
        assert graph_digest(weighted.symmetrize()) == GOLDEN_DIGESTS[name + "-0.05-symmetrized"]

    def test_benchmark_graphs_at_full_scale(self):
        sk = load_dataset("SK", scale=1.0, weighted=True)
        assert graph_digest(sk) == GOLDEN_DIGESTS["SK-1.0-weighted"]
        assert graph_digest(hub_sort(sk).graph) == GOLDEN_DIGESTS["SK-1.0-weighted-hubsorted"]
        tw = load_dataset("TW", scale=1.0, weighted=True)
        assert graph_digest(tw) == GOLDEN_DIGESTS["TW-1.0-weighted"]

    def test_reverse_and_direct_generators(self):
        reversed_sk = load_dataset("SK", scale=0.05, weighted=True).reverse()
        assert graph_digest(reversed_sk) == GOLDEN_DIGESTS["SK-0.05-weighted-reversed"]
        uniform = uniform_random_graph(500, 4000, seed=3, weighted=True)
        assert graph_digest(uniform) == GOLDEN_DIGESTS["uniform-500x4000-weighted"]
        rmat = rmat_graph(1000, 9000, seed=5, weighted=True)
        assert graph_digest(rmat) == GOLDEN_DIGESTS["rmat-1000x9000-weighted"]


def _owns_contiguous(array):
    """C-contiguous and not a slice of a larger retained buffer."""
    base = array.base
    return array.flags.c_contiguous and (base is None or getattr(base, "nbytes", array.nbytes) == array.nbytes)


class TestEdgeArraysAreContiguous:
    """No built graph may keep a strided view into an (m, 2) edge array."""

    def graphs(self):
        sk = load_dataset("SK", scale=0.05, weighted=True)
        yield from (load_dataset(name, scale=0.05) for name in dataset_names())
        yield sk
        yield sk.symmetrize()
        yield sk.reverse()
        yield sk.permute(np.arange(sk.num_vertices)[::-1])
        yield hub_sort(sk).graph
        yield rmat_graph(256, 2000, seed=1, weighted=True)
        yield power_law_graph(300, 8.0, seed=2)
        yield power_law_graph(300, 8.0, seed=2, directed=False, weighted=True)
        yield uniform_random_graph(200, 1500, seed=3)
        yield grid_graph(5, 7)
        yield path_graph(9, weighted=True)
        yield star_graph(6)
        yield complete_graph(5)

    def test_every_producer(self):
        for graph in self.graphs():
            arrays = [graph.row_offset, graph.column_index]
            if graph.edge_value is not None:
                arrays.append(graph.edge_value)
            for array in arrays:
                assert _owns_contiguous(array), (graph.name, array.strides, type(array.base))
