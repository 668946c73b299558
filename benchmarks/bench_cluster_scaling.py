"""Cluster-scaling benchmark: aggregate qps from 1x1 to 4x1 GPUs.

Streams one saturated seeded mixed trace through
:class:`~repro.cluster.ClusterService` deployments of 1, 2 and 4
simulated hosts (1 GPU each) behind the consistent-hash router, and
reports the aggregate simulated queries/s curve.  Two acceptance bars
are held on every run, not just reported (the speedup and the overhead
are gate rows, :func:`bar_rows`; the correctness checks are asserts):

* **Scaling** — the 4x1 deployment must sustain at least 2.5x the
  aggregate qps of the 1x1 baseline, with sampled per-query values
  bitwise equal to solo single-host runs (routing changes placement,
  never semantics).
* **Failover** — the same 4x1 replay with one host lost at the
  midpoint cluster wave must complete every admitted query (the loss
  causes zero ``QueryFailed``) at no more than 25% makespan overhead
  over the fault-free run, queries still bitwise.

All latencies are simulated seconds out of the deterministic cost
model, so runs reproduce exactly for a given seed and the CI gate holds
them to a tight tolerance.

**Cluster gate.**  The two bars are checked on every run.
``--check-against REF.json`` also compares each
deployment's aggregate qps (floor: ``reference * (1 - tolerance)``),
the 4-host speedup (floor: ``reference - tolerance``) and the host-loss
makespan overhead (ceiling: ``reference + tolerance``) against a
payload of the same shape, failing with exit code 1 on regression or
when a row of the reference is missing from the run.  The rows are
checked by the shared :mod:`gates` module.  The payload goes to the
git-ignored ``benchmarks/results/`` unless ``--output`` names another
path.

Usage::

    python benchmarks/bench_cluster_scaling.py             # full run
    python benchmarks/bench_cluster_scaling.py --smoke     # 10^4-query CI smoke
    python benchmarks/bench_cluster_scaling.py --smoke \
        --check-against benchmarks/BENCH_cluster_smoke.json --tolerance 0.2
"""

from __future__ import annotations

import argparse
from pathlib import Path

import gates
from repro.bench.workloads import build_workload
from repro.cluster import ClusterConfig, ClusterService
from repro.service import ReplayHarness, ServiceConfig, timed_mixed_trace

GPUS_PER_HOST = 1
HOST_CURVE = (1, 2, 4)
SPEEDUP_FLOOR = 2.5
LOSS_OVERHEAD_CEILING = 0.25


def build_cluster(workload, hosts: int, network: str, *, faults=None) -> ClusterService:
    """A fresh ``hosts`` x ``GPUS_PER_HOST`` cluster over the workload."""
    config = ClusterConfig(
        hosts=hosts,
        gpus_per_host=GPUS_PER_HOST,
        network=network,
        service=ServiceConfig(system="hytgraph", faults=faults),
    )
    return ClusterService(config, graph=workload.graph, hardware=workload.config)


def replay_once(workload, hosts: int, count: int, seed: int, network: str, *, faults=None):
    """One saturated replay; returns ``(report, cluster)``.

    The arrival rate is effectively infinite so every makespan is
    service-bound, not arrival-bound — otherwise adding hosts could
    never shorten the replay and the curve would be flat by
    construction.
    """
    cluster = build_cluster(workload, hosts, network, faults=faults)
    # A deep lookahead keeps every replica's waves large: per-wave fixed
    # costs (partition residency transfers) amortize the same way on
    # every deployment size, so the curve measures replication, not
    # batching decay.
    harness = ReplayHarness(cluster, lookahead=1024, verify_sample=10, seed=seed)
    report = harness.replay(timed_mixed_trace(workload.graph, count, rate=1e9, seed=seed))
    return report, cluster


def run_scaling(workload, count: int, seed: int, network: str) -> dict:
    """The qps curve over the host counts and the 4-host speedup."""
    print("== scaling: %d queries, hosts x %d GPUs over %s ==" % (count, GPUS_PER_HOST, network))
    curve = {}
    waves = {}
    for hosts in HOST_CURVE:
        report, cluster = replay_once(workload, hosts, count, seed, network)
        assert report.completed == report.queries, (
            "%d-host replay dropped queries: %d of %d completed"
            % (hosts, report.completed, report.queries)
        )
        assert report.verified_bitwise is True, (
            "%d-host replay diverged bitwise from solo runs" % hosts
        )
        counters = cluster.router.counters()
        print(
            "  hosts=%d  %6d queries in %8.3f simulated s -> %8.0f q/s "
            "(%d affinity, %d spills; wall %.1f s)"
            % (
                hosts, report.completed, report.makespan_s,
                report.queries_per_second, counters["affinity_hits"],
                counters["spills"], report.wall_s,
            )
        )
        payload = report.as_dict()
        payload["hosts"] = hosts
        payload["router"] = counters
        curve["hosts%d" % hosts] = payload
        waves[hosts] = cluster._steps
    speedup = (
        curve["hosts4"]["queries_per_second"] / curve["hosts1"]["queries_per_second"]
    )
    print("  4-host speedup over 1 host: %.2fx" % speedup)
    return {"curve": curve, "speedup_4x": speedup, "cluster_waves": waves}


def run_host_loss(workload, count: int, seed: int, network: str, fault_free_waves: int) -> dict:
    """Lose one host at the midpoint wave of the 4x1 replay."""
    midpoint = max(1, fault_free_waves // 2)
    print(
        "== host loss: 4x%d GPUs, host 3 lost at cluster wave %d (midpoint of %d) =="
        % (GPUS_PER_HOST, midpoint, fault_free_waves)
    )
    baseline, _ = replay_once(workload, 4, count, seed, network)
    faults = "host-loss@%d:host=3" % midpoint
    report, cluster = replay_once(workload, 4, count, seed, network, faults=faults)

    admitted = report.queries - report.rejected
    assert report.failed == 0 and report.cancelled == 0, (
        "the host loss failed queries: %d failed, %d cancelled"
        % (report.failed, report.cancelled)
    )
    assert report.completed == admitted, (
        "host-loss replay dropped queries: %d of %d admitted completed"
        % (report.completed, admitted)
    )
    assert report.verified_bitwise is True, (
        "host-loss replay diverged bitwise from solo runs"
    )
    assert cluster.alive_hosts() == [0, 1, 2]
    overhead = report.makespan_s / baseline.makespan_s - 1.0
    print(
        "  %d migrated (%.3f MB shipped, %.6f s on the %s fabric); "
        "makespan %.3f s vs %.3f s fault-free (%.1f%% overhead)"
        % (
            cluster.router.failovers, cluster.shipped_bytes / 1e6,
            cluster.ship_time_s, network, report.makespan_s,
            baseline.makespan_s, 100.0 * overhead,
        )
    )
    payload = report.as_dict()
    payload["midpoint_wave"] = midpoint
    payload["migrated"] = cluster.router.failovers
    payload["shipped_bytes"] = cluster.shipped_bytes
    payload["ship_time_s"] = cluster.ship_time_s
    payload["fault_free_makespan_s"] = baseline.makespan_s
    payload["makespan_overhead"] = overhead
    payload["events"] = cluster.events
    return payload


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def _gated_values(payload) -> dict[str, float]:
    """The scalars the gate compares, by row name (qps floors, overhead ceiling)."""
    rows = {}
    for name, deployment in payload.get("scaling", {}).get("curve", {}).items():
        rows["qps:%s" % name] = float(deployment["queries_per_second"])
    if "speedup_4x" in payload.get("scaling", {}):
        rows["speedup_4x"] = float(payload["scaling"]["speedup_4x"])
    if "makespan_overhead" in payload.get("host_loss", {}):
        rows["loss_overhead"] = float(payload["host_loss"]["makespan_overhead"])
    return rows


def bar_rows(current) -> list[gates.Row]:
    """The 4-host speedup floor and the host-loss overhead ceiling, held on every run."""
    values = _gated_values(current)
    return [
        gates.Row("speedup_4x bar", values.get("speedup_4x"), "floor", SPEEDUP_FLOOR),
        gates.Row("loss_overhead bar", values.get("loss_overhead"), "ceiling", LOSS_OVERHEAD_CEILING),
    ]


def regression_rows(current, reference, tolerance) -> list[gates.Row]:
    """Hold qps and speedup to floors, the loss overhead to a ceiling."""
    values = _gated_values(current)
    rows = []
    for name, ref in sorted(_gated_values(reference).items()):
        if name == "loss_overhead":
            rows.append(gates.Row(name, values.get(name), "ceiling", ref + tolerance, ref))
        elif name == "speedup_4x":
            rows.append(gates.Row(name, values.get(name), "floor", ref - tolerance, ref))
        else:
            rows.append(gates.Row(name, values.get(name), "floor", ref * (1.0 - tolerance), ref))
    return rows


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def measure(args) -> dict:
    """The scaling curve and the host-loss replay; returns the payload."""
    graph_scale = 0.02 if args.smoke else 0.05
    count = args.queries or (10_000 if args.smoke else 100_000)

    workload = build_workload("SK", "sssp", scale=graph_scale)
    print(
        "cluster replay on SK scale=%g (%d vertices, %d edges), %s fabric"
        % (
            graph_scale, workload.graph.num_vertices,
            workload.graph.num_edges, args.network,
        )
    )
    scaling = run_scaling(workload, count, args.seed, args.network)
    host_loss = run_host_loss(
        workload, count, args.seed, args.network, scaling["cluster_waves"][4]
    )

    payload = {
        "benchmark": "cluster_scaling",
        "smoke": args.smoke,
        "seed": args.seed,
        "network": args.network,
        "gpus_per_host": GPUS_PER_HOST,
        "graph": {
            "dataset": "SK",
            "scale": graph_scale,
            "vertices": workload.graph.num_vertices,
            "edges": workload.graph.num_edges,
        },
        "scaling": scaling,
        "host_loss": host_loss,
    }
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--smoke", action="store_true",
                        help="10^4-query CI smoke run instead of the full 10^5")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=None,
                        help="override the per-deployment query count")
    parser.add_argument("--network", default="tcp",
                        help="network preset for the fabric (default tcp)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON payload (default: "
                             "BENCH_cluster[_smoke].json in benchmarks/results/)")
    gates.add_arguments(parser, 0.2, "relative qps floor / absolute speedup+overhead margin")
    args = parser.parse_args()
    gates.run_gate(
        "cluster gate",
        args.output or gates.RESULTS_DIR / ("BENCH_cluster_smoke.json" if args.smoke else "BENCH_cluster.json"),
        lambda: measure(args),
        args.check_against,
        always=bar_rows,
        against=lambda payload, reference: regression_rows(payload, reference, args.tolerance),
    )


if __name__ == "__main__":
    main()
