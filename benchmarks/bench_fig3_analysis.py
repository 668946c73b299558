"""Figure 3 — the motivating analysis of the four transfer approaches.

Each sub-figure is regenerated as its own benchmark:

(a) proportion of active edges vs active partitions under ExpTM-filter;
(b) per-iteration runtime breakdown of Subway (compaction/transfer/compute);
(c) Subway's whole-run breakdown across the five datasets;
(d) proportion of active edges vs active 4-KB pages under ImpTM-UM;
(e) zero-copy throughput vs memory-request size;
(f) vertex out-degree distribution of the five datasets;
(g,h) per-iteration runtime of the four approaches for SSSP and PageRank
      plus the per-iteration "preferred" engine.
"""

import numpy as np
from conftest import run_once

from repro.bench.workloads import build_workload
from repro.graph.datasets import load_dataset
from repro.graph.partition import partition_by_count
from repro.graph.properties import degree_bucket_fractions
from repro.metrics.tables import format_series, format_table
from repro.runtime.context import ExecutionContext
from repro.sim.config import default_config
from repro.sim.pcie import PCIeModel


def _frontier_trace(workload, system_name="emogi"):
    """Per-iteration active-vertex masks of a synchronous reference run."""
    graph = workload.graph
    program = workload.program
    state = program.create_state(graph, workload.source)
    pending = program.initial_frontier(graph, state, workload.source)
    masks = []
    for _ in range(10_000):
        active = np.nonzero(pending)[0]
        if active.size == 0:
            break
        masks.append(pending.copy())
        pending[active] = False
        newly = program.process(graph, state, active)
        if newly.size:
            pending[newly] = True
    return masks


def test_fig3a_active_edges_vs_active_partitions(benchmark, report_writer, bench_scale):
    def experiment():
        series = {}
        for algorithm in ("pagerank", "sssp"):
            workload = build_workload("FK", algorithm, scale=bench_scale)
            partitioning = partition_by_count(workload.graph, 256)
            context = ExecutionContext(workload.graph, partitioning, workload.config)
            total_edges = workload.graph.num_edges
            edge_fraction = []
            partition_fraction = []
            for mask in _frontier_trace(workload):
                active_edges = context.frontier_totals(mask).active_edges
                edge_fraction.append(float(active_edges.sum()) / total_edges)
                partition_fraction.append(float(np.count_nonzero(active_edges)) / partitioning.num_partitions)
            label = "PR" if algorithm == "pagerank" else "SSSP"
            series["%s-actEdge" % label] = edge_fraction
            series["%s-actPrt" % label] = partition_fraction
        return series

    series = run_once(benchmark, experiment)
    report_writer(
        "fig3a_active_partitions",
        format_series(series, title="Figure 3(a): active edge vs active partition proportion per iteration (FK)"),
    )
    # The paper's observation: the active-partition proportion stays well
    # above the active-edge proportion (whole partitions stay "active"
    # long after most of their edges went quiet).
    for label in ("PR", "SSSP"):
        edges = np.array(series["%s-actEdge" % label])
        partitions = np.array(series["%s-actPrt" % label])
        assert partitions.mean() >= edges.mean()


def test_fig3b_subway_periteration_breakdown(benchmark, report_writer, bench_scale):
    def experiment():
        tables = {}
        for algorithm in ("pagerank", "sssp"):
            workload = build_workload("FK", algorithm, scale=bench_scale)
            result = workload.run("subway")
            tables[algorithm] = {
                "compaction": [stats.compaction_time for stats in result.iterations],
                "transfer": [stats.transfer_time for stats in result.iterations],
                "computation": [stats.kernel_time for stats in result.iterations],
            }
        return tables

    tables = run_once(benchmark, experiment)
    text = ""
    for algorithm, series in tables.items():
        text += format_series(series, title="Figure 3(b): Subway per-iteration breakdown (%s, FK)" % algorithm)
    report_writer("fig3b_subway_breakdown", text)
    # Compaction must be a visible share of Subway's per-iteration cost.
    for series in tables.values():
        assert sum(series["compaction"]) > 0


def test_fig3c_subway_overall_breakdown(benchmark, report_writer, bench_scale):
    def experiment():
        rows = []
        for dataset in ("SK", "TW", "FK", "UK", "FS"):
            workload = build_workload(dataset, "sssp", scale=bench_scale)
            result = workload.run("subway")
            breakdown = result.breakdown()
            total = sum(breakdown.values()) or 1.0
            rows.append(
                {
                    "dataset": dataset,
                    "compaction (s)": breakdown["compaction"],
                    "transfer (s)": breakdown["transfer"],
                    "computation (s)": breakdown["computation"],
                    "compaction share": round(breakdown["compaction"] / total, 3),
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    report_writer("fig3c_subway_overall", format_table(rows, title="Figure 3(c): Subway SSSP breakdown per dataset"))
    # Paper: compaction accounts for roughly a third of Subway's runtime.
    average_share = np.mean([row["compaction share"] for row in rows])
    assert average_share > 0.2


def test_fig3d_active_edges_vs_active_pages(benchmark, report_writer, bench_scale):
    def experiment():
        config = default_config()
        pcie = PCIeModel(config)
        series = {}
        for algorithm in ("pagerank", "sssp"):
            workload = build_workload("FK", algorithm, scale=bench_scale)
            graph = workload.graph
            per_edge = graph.edge_bytes_per_edge
            total_edges = graph.num_edges
            total_pages = int(np.ceil(graph.edge_data_bytes / config.um_page_bytes))
            edge_fraction = []
            page_fraction = []
            for mask in _frontier_trace(workload):
                active = np.nonzero(mask)[0]
                degrees = graph.out_degrees[active]
                starts = graph.row_offset[active] * per_edge
                pages = pcie.pages_for_byte_ranges(starts, degrees * per_edge)
                edge_fraction.append(float(degrees.sum()) / total_edges)
                page_fraction.append(pages.size / max(total_pages, 1))
            label = "PR" if algorithm == "pagerank" else "SSSP"
            series["%s-actEdge" % label] = edge_fraction
            series["%s-actPage" % label] = page_fraction
        return series

    series = run_once(benchmark, experiment)
    report_writer(
        "fig3d_active_pages",
        format_series(series, title="Figure 3(d): active edge vs active 4KB page proportion per iteration (FK)"),
    )
    for label in ("PR", "SSSP"):
        assert np.mean(series["%s-actPage" % label]) >= np.mean(series["%s-actEdge" % label]) * 0.9


def test_fig3e_zero_copy_throughput(benchmark, report_writer):
    def experiment():
        config = default_config()
        pcie = PCIeModel(config)
        rows = []
        for request_bytes in (32, 64, 96, 128):
            rows.append(
                {
                    "request size (B)": request_bytes,
                    "zero-copy (GB/s)": round(pcie.zero_copy_throughput(request_bytes) / 1e9, 2),
                    "cudaMemcpy (GB/s)": round(config.pcie_bandwidth / 1e9, 2),
                }
            )
        return rows

    rows = run_once(benchmark, experiment)
    report_writer("fig3e_zero_copy_throughput", format_table(rows, title="Figure 3(e): zero-copy throughput vs request size"))
    throughputs = [row["zero-copy (GB/s)"] for row in rows]
    assert throughputs == sorted(throughputs)
    assert throughputs[-1] >= 0.95 * rows[-1]["cudaMemcpy (GB/s)"]
    assert throughputs[0] < 0.5 * throughputs[-1]


def test_fig3f_degree_distribution(benchmark, report_writer, bench_scale):
    def experiment():
        rows = []
        for dataset in ("SK", "TW", "FK", "UK", "FS"):
            graph = load_dataset(dataset, scale=bench_scale)
            fractions = degree_bucket_fractions(graph)
            row = {"dataset": dataset}
            row.update({bucket: round(value, 3) for bucket, value in fractions.items()})
            rows.append(row)
        return rows

    rows = run_once(benchmark, experiment)
    report_writer("fig3f_degree_distribution", format_table(rows, title="Figure 3(f): out-degree distribution"))
    # Paper: on average ~75% of vertices have fewer than 32 neighbors.
    below_32 = np.mean([1.0 - row["[32,inf)"] for row in rows])
    assert below_32 > 0.6


def test_fig3gh_per_iteration_runtime_of_four_approaches(benchmark, report_writer, bench_scale):
    def experiment():
        tables = {}
        for algorithm in ("sssp", "pagerank"):
            workload = build_workload("FK", algorithm, scale=bench_scale)
            series = {}
            for system_name, label in (
                ("exptm-f", "E-F"),
                ("subway", "E-C"),
                ("emogi", "I-ZC"),
                ("imptm-um", "I-UM"),
            ):
                result = workload.run(system_name)
                series[label] = result.per_iteration_times()
            length = max(len(values) for values in series.values())
            prefer = []
            for index in range(length):
                best = min(
                    (values[index], label)
                    for label, values in series.items()
                    if index < len(values)
                )
                prefer.append(best[1])
            tables[algorithm] = (series, prefer)
        return tables

    tables = run_once(benchmark, experiment)
    text = ""
    for algorithm, (series, prefer) in tables.items():
        title = "Figure 3(%s): per-iteration runtime of the four approaches (%s, FK)" % (
            "g" if algorithm == "sssp" else "h",
            algorithm,
        )
        text += format_series(series, title=title)
        text += "Prefer: %s\n" % ",".join(prefer)
    report_writer("fig3gh_per_iteration", text)
    # The motivating claim: the preferred engine changes across iterations
    # for at least one of the two workloads.
    distinct = {algorithm: len(set(prefer)) for algorithm, (_, prefer) in tables.items()}
    assert max(distinct.values()) >= 2
