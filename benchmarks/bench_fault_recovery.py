"""Fault recovery overhead: makespan with/without a midpoint device loss.

Serves a K-query SSSP batch on the transfer-bound two-device workload
(PCIe throttled far below kernel throughput, per-device memory half the
edge data), measures the fault-free makespan, then replays the identical
batch with one device lost at the *midpoint* super-iteration of the
fault-free run.  The injector checkpoints every ``--checkpoint-interval``
super-iterations; on the loss the runner restores every live query from
its last checkpoint, re-shards the lost device's partitions onto the
survivor and replays the rolled-back super-iterations.

Reported:

* **makespan overhead** — the headline number.  The acceptance bar
  (checked on every run) is ≤ 25%: losing half the fleet mid-run must
  not cost more than a quarter of the fault-free serving time, because
  the surviving device inherits warmed shard residency and the replay
  is bounded by the checkpoint interval.
* **checkpoint / restore cost** — the billed PCIe time of state capture
  at boundaries and of rollback on the fault, reported separately so a
  regression in either is attributable.
* **SLA attainment under chaos** — a mixed INTERACTIVE/BULK service
  trace served through :class:`repro.service.GraphService` under a flaky
  transfer link (per-task transient failures, retried with backoff),
  reporting deadline attainment and the fault counters.

Recovery is value-exact: the benchmark raises if any recovered query's
values differ bitwise from the fault-free run.  Everything is simulated
time, so the numbers are deterministic.  The overhead ceiling is checked
by the shared :mod:`gates` module, which exits 1 when it is breached.

Usage::

    python benchmarks/bench_fault_recovery.py
    python benchmarks/bench_fault_recovery.py --queries 16 --checkpoint-interval 2
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

import gates
from repro.algorithms.sssp import SSSP
from repro.bench.workloads import batch_sources
from repro.faults import FaultInjector, FaultSchedule
from repro.graph.generators import rmat_graph
from repro.metrics.tables import format_table
from repro.runtime.batch import QueryBatchRunner
from repro.service import GraphService, Priority, ServiceConfig, synthetic_mixed_trace
from repro.sim.config import HardwareConfig
from repro.systems.hytgraph import HyTGraphSystem

#: The acceptance bar: a midpoint single-device loss on the two-device
#: workload may cost at most this fraction of the fault-free makespan.
RECOVERY_OVERHEAD_CEILING = 0.25


def build_platform(args):
    graph = rmat_graph(args.vertices, args.edges, seed=5, weighted=True, name="rmat-batch")
    config = HardwareConfig(
        gpu_memory_bytes=graph.edge_data_bytes // 2,
        pcie_bandwidth=args.pcie_bandwidth,
    ).with_devices(args.devices)
    return graph, config


def run_batch(graph, config, sources, faults=None, checkpoint_interval=1):
    system = HyTGraphSystem(graph, config=config)
    runner = QueryBatchRunner(system)
    queries = [(SSSP(), source) for source in sources]
    injector = None
    if faults is not None:
        injector = FaultInjector(FaultSchedule.parse(faults))
    return runner.run(queries, injector=injector, checkpoint_interval=checkpoint_interval)


def recovery_cell(args, graph, config):
    """Fault-free vs midpoint-device-loss makespans on the same batch."""
    sources = batch_sources(graph, args.queries)
    clean = run_batch(graph, config, sources)
    midpoint = max(1, clean.super_iterations // 2)
    faulted = run_batch(
        graph,
        config,
        sources,
        faults="device-loss@%d:device=0" % midpoint,
        checkpoint_interval=args.checkpoint_interval,
    )
    for reference, recovered in zip(clean.results, faulted.results):
        if not np.array_equal(np.asarray(reference.values), np.asarray(recovered.values)):
            raise AssertionError("recovered query values diverged from the fault-free run")
    overhead = faulted.makespan / clean.makespan - 1.0
    return {
        "queries": args.queries,
        "midpoint_super_iteration": midpoint,
        "checkpoint_interval": args.checkpoint_interval,
        "clean_makespan_s": clean.makespan,
        "faulted_makespan_s": faulted.makespan,
        "overhead": overhead,
        "checkpoint_time_s": faulted.checkpoint_time_s,
        "recovery_time_s": faulted.recovery_time_s,
        "recovered_super_iterations": faulted.recovered_super_iterations,
        "lost_devices": faulted.extra["lost_devices"],
        "values_bitwise_equal": True,
    }


def chaos_sla_cell(args, graph, config):
    """Deadline attainment through the service under a flaky link."""
    requests = [
        replace(request, deadline_s=args.lookup_deadline_s)
        if request.priority is Priority.INTERACTIVE
        else request
        for request in synthetic_mixed_trace(
            graph, point_lookups=args.point_lookups, analytical=args.analytical, seed=7
        )
    ]
    service = GraphService(
        ServiceConfig(
            system="hytgraph",
            faults="transfer-flaky:p=%g" % args.flaky_probability,
            chaos_seed=args.chaos_seed,
        ),
        graph=graph,
        hardware=config,
    )
    service.submit_many(requests)
    service.drain()
    stats = service.stats()
    return {
        "requests": len(requests),
        "completed": stats.completed,
        "failed": stats.failed,
        "deadline_attainment": stats.deadline_attainment,
        "faults_injected": stats.faults_injected,
        "retries": stats.retries,
        "retry_time_s": stats.retry_time_s,
        "interactive_p95_s": stats.latency_percentile(Priority.INTERACTIVE, 95),
        "bulk_p95_s": stats.latency_percentile(Priority.BULK, 95),
    }


def ceiling_rows(payload):
    """The acceptance bar, held on every run."""
    overhead = payload.get("recovery", {}).get("overhead")
    return [gates.Row("recovery overhead", overhead, "ceiling", RECOVERY_OVERHEAD_CEILING)]


def measure(args):
    """The recovery and chaos cells, printed and written as a text report."""
    graph, config = build_platform(args)
    recovery = recovery_cell(args, graph, config)
    sla = chaos_sla_cell(args, graph, config)

    rows = [
        {
            "scenario": "fault-free",
            "makespan (s)": round(recovery["clean_makespan_s"], 6),
            "checkpoint (s)": 0.0,
            "restore (s)": 0.0,
            "overhead": "--",
        },
        {
            "scenario": "device loss @%d" % recovery["midpoint_super_iteration"],
            "makespan (s)": round(recovery["faulted_makespan_s"], 6),
            "checkpoint (s)": round(recovery["checkpoint_time_s"], 6),
            "restore (s)": round(recovery["recovery_time_s"], 6),
            "overhead": "%.1f%%" % (recovery["overhead"] * 100),
        },
    ]
    title = (
        "Recovery overhead: K=%d SSSP, %d device(s), single loss at midpoint "
        "(checkpoint every %d super-iteration(s))"
        % (args.queries, args.devices, args.checkpoint_interval)
    )
    report = format_table(rows, title=title)
    report += (
        "\nSLA under chaos (transfer-flaky p=%g, seed %d): %d/%d completed, "
        "%d failed; deadline attainment %.0f%%; %d faults, %d retries "
        "(%.6f s billed); lookup p95 %.6f s\n"
        % (
            args.flaky_probability,
            args.chaos_seed,
            sla["completed"],
            sla["requests"],
            sla["failed"],
            sla["deadline_attainment"] * 100,
            sla["faults_injected"],
            sla["retries"],
            sla["retry_time_s"],
            sla["interactive_p95_s"],
        )
    )
    print(report)

    gates.RESULTS_DIR.mkdir(exist_ok=True)
    (gates.RESULTS_DIR / "fault_recovery.txt").write_text(report)
    return {
        "meta": {
            "harness": "bench_fault_recovery",
            "vertices": args.vertices,
            "edges": args.edges,
            "devices": args.devices,
            "pcie_bandwidth": args.pcie_bandwidth,
            "overhead_ceiling": RECOVERY_OVERHEAD_CEILING,
        },
        "recovery": recovery,
        "sla_under_chaos": sla,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--vertices", type=int, default=2000)
    parser.add_argument("--edges", type=int, default=20000)
    parser.add_argument("--devices", type=int, default=2)
    parser.add_argument("--pcie-bandwidth", type=float, default=1e9,
                        help="throttled host-GPU bandwidth (transfer-bound regime)")
    parser.add_argument("--queries", type=int, default=8)
    parser.add_argument("--checkpoint-interval", type=int, default=1)
    parser.add_argument("--point-lookups", type=int, default=8)
    parser.add_argument("--analytical", type=int, default=2)
    parser.add_argument("--lookup-deadline-s", type=float, default=0.05)
    parser.add_argument("--flaky-probability", type=float, default=0.05)
    parser.add_argument("--chaos-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=gates.RESULTS_DIR / "fault_recovery.json")
    args = parser.parse_args(argv)
    return gates.run_gate("fault recovery gate", args.out, lambda: measure(args), always=ceiling_rows)


if __name__ == "__main__":
    main()
