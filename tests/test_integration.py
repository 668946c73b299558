"""End-to-end integration tests reproducing the paper's qualitative claims.

These are the behavioural counterparts of the benchmark suite: they assert
the *shape* results (who transfers more, which engine is preferred when)
on small graphs so they run in seconds.
"""

import numpy as np
import pytest

from repro.algorithms import DeltaPageRank, SSSP, reference
from repro.bench.workloads import build_workload
from repro.core.engine import HyTGraphOptions
from repro.graph.generators import power_law_graph, random_weights
from repro.systems.hytgraph import HyTGraphSystem
from repro.transfer.base import EngineKind

from tests.conftest import assert_distances_equal


@pytest.fixture(scope="module")
def sk_sssp_workload():
    return build_workload("SK", "sssp", scale=0.35)


@pytest.fixture(scope="module")
def sk_pr_workload():
    return build_workload("SK", "pagerank", scale=0.35)


ALL_SYSTEMS = ["exptm-f", "subway", "emogi", "imptm-um", "grus", "galois", "hytgraph"]


class TestAllSystemsAgree:
    def test_sssp_answers_identical(self, sk_sssp_workload):
        workload = sk_sssp_workload
        expected = reference.sssp_distances(workload.graph, workload.source)
        for system_name in ALL_SYSTEMS:
            result = workload.run(system_name)
            assert_distances_equal(result.values, expected)

    def test_pagerank_answers_identical(self, sk_pr_workload):
        workload = sk_pr_workload
        expected = reference.pagerank_values(workload.graph)
        for system_name in ALL_SYSTEMS:
            result = workload.run(system_name)
            # The default Δ tolerance (1e-3 residual per vertex) leaves
            # every system within a fraction of a percent of the exact
            # fixed point; the exact leftover depends on processing order.
            np.testing.assert_allclose(result.values, expected, rtol=1e-2, atol=1e-3)


class TestTransferVolumeShape:
    """Table VI: ExpTM-F moves by far the most data; HyTGraph is competitive."""

    def test_exptm_filter_has_largest_volume(self, sk_sssp_workload):
        volumes = {name: sk_sssp_workload.run(name).total_transfer_bytes for name in ["exptm-f", "subway", "emogi", "hytgraph"]}
        assert volumes["exptm-f"] == max(volumes.values())

    def test_hytgraph_close_to_best_for_sssp(self, sk_sssp_workload):
        volumes = {name: sk_sssp_workload.run(name).total_transfer_bytes for name in ["subway", "emogi", "hytgraph"]}
        best = min(volumes.values())
        assert volumes["hytgraph"] <= 2.5 * best


class TestRuntimeShape:
    """Table V headline: HyTGraph beats Subway, EMOGI and the pure baselines."""

    def test_hytgraph_beats_subway_and_filter_on_sssp(self, sk_sssp_workload):
        times = {name: sk_sssp_workload.run(name).total_time for name in ["exptm-f", "subway", "hytgraph"]}
        assert times["hytgraph"] < times["subway"]
        assert times["hytgraph"] < times["exptm-f"]

    def test_gpu_systems_beat_cpu_baseline_on_pagerank(self, sk_pr_workload):
        times = {name: sk_pr_workload.run(name).total_time for name in ["galois", "hytgraph", "emogi"]}
        assert times["hytgraph"] < times["galois"]
        assert times["emogi"] < times["galois"]

    def test_um_wins_when_graph_fits_in_memory(self, sk_pr_workload):
        # Section VII-B2: on SK (fits in device memory) the UM-based
        # systems beat the transfer-centric ones for PageRank.
        times = {name: sk_pr_workload.run(name).total_time for name in ["imptm-um", "subway", "emogi"]}
        assert times["imptm-um"] < times["subway"]
        assert times["imptm-um"] < times["emogi"]

    def test_um_loses_when_memory_is_scarce(self):
        workload = build_workload("FK", "pagerank", scale=0.35)
        times = {name: workload.run(name).total_time for name in ["imptm-um", "hytgraph"]}
        assert times["hytgraph"] < times["imptm-um"]


class TestExecutionPathShape:
    """Figure 7: dense iterations prefer ExpTM-F, sparse ones ImpTM-ZC."""

    def test_pagerank_engine_mix_shifts_over_time(self):
        graph = power_law_graph(1500, 16.0, exponent=2.0, seed=31, name="mix")
        system = HyTGraphSystem(graph, num_partitions=32)
        result = system.run(DeltaPageRank())
        mix = result.engine_mix()
        assert len(mix) > 3
        early_filter = mix[0].get(EngineKind.EXP_FILTER.value, 0.0)
        late_zero_copy = mix[-1].get(EngineKind.IMP_ZERO_COPY.value, 0.0) + mix[-1].get(
            EngineKind.EXP_COMPACTION.value, 0.0
        )
        assert early_filter > 0.5
        assert late_zero_copy > 0.5

    def test_sssp_sparse_iterations_prefer_zero_copy(self):
        graph = power_law_graph(1500, 16.0, exponent=2.0, seed=33, name="mix")
        graph = graph.with_weights(random_weights(graph.num_edges, seed=34))
        system = HyTGraphSystem(graph, num_partitions=32)
        result = system.run(SSSP(), source=int(np.argmax(graph.out_degrees)))
        # The tail iterations have few, low-degree active vertices: the
        # selector should avoid whole-partition filter transfers there.
        last_mix = result.engine_mix()[-1]
        assert last_mix.get(EngineKind.IMP_ZERO_COPY.value, 0.0) + last_mix.get(
            EngineKind.EXP_COMPACTION.value, 0.0
        ) > 0.5


class TestAblationShape:
    """Figure 8: TC and CDS never hurt much and help accumulative workloads."""

    def test_contribution_scheduling_reduces_pagerank_work(self):
        graph = power_law_graph(1500, 16.0, exponent=2.0, seed=35, name="ablate")
        baseline = HyTGraphSystem(
            graph, num_partitions=24, options=HyTGraphOptions(contribution_scheduling=False)
        ).run(DeltaPageRank())
        with_cds = HyTGraphSystem(
            graph, num_partitions=24, options=HyTGraphOptions(contribution_scheduling=True)
        ).run(DeltaPageRank())
        assert with_cds.total_processed_edges <= baseline.total_processed_edges * 1.1
        assert with_cds.total_time <= baseline.total_time * 1.1

    def test_task_combining_reduces_task_count(self):
        graph = power_law_graph(1500, 16.0, exponent=2.0, seed=36, name="ablate")
        combined = HyTGraphSystem(
            graph, num_partitions=24, options=HyTGraphOptions(task_combining=True)
        ).run(DeltaPageRank())
        uncombined = HyTGraphSystem(
            graph, num_partitions=24, options=HyTGraphOptions(task_combining=False)
        ).run(DeltaPageRank())
        combined_tasks = sum(sum(stats.engine_tasks.values()) for stats in combined.iterations)
        uncombined_tasks = sum(sum(stats.engine_tasks.values()) for stats in uncombined.iterations)
        assert combined_tasks < uncombined_tasks


class TestScalingShape:
    """Figure 9: runtime grows with graph size for every system."""

    def test_runtime_grows_with_rmat_size(self):
        from repro.graph.generators import rmat_graph

        times = {}
        for scale, edges in ((0, 4000), (1, 16000)):
            graph = rmat_graph(2 ** (11 + scale), edges, seed=41, name="rmat-%d" % edges)
            workload = build_workload("rmat", "pagerank", graph=graph)
            times[edges] = workload.run("hytgraph").total_time
        assert times[16000] > times[4000]
