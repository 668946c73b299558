"""Trace-replay benchmark: time-aware serving at 10^4-10^5+ query scale.

Streams seeded arrival-stamped query traces through
:class:`~repro.service.GraphService` via the
:class:`~repro.service.replay.ReplayHarness` and reports what a serving
deployment would ask of the stack:

* **Scale** — one saturated mixed replay of 10^5 queries (10^4 under
  ``--smoke``), streamed without materializing the trace or its
  results; reports per-class p50/p95/p99 latency, SLA attainment and
  simulated queries/s, and bitwise-verifies a seeded sample of served
  results against solo ``system.run`` calls.
* **Preemption** — the same saturated BULK-heavy trace served twice,
  with and without super-iteration-boundary BULK preemption, holding
  everything else fixed.  Every run holds the feature's acceptance bars
  as gate rows (:func:`bar_rows`): INTERACTIVE p95 with preemption at
  least 1.5x better than non-preemptive priority scheduling, and BULK
  completion (simulated makespan of the last BULK query) within 15% of
  the non-preemptive run; served values must be bitwise equal to solo
  runs in both modes.
* **Regimes** — the same mix replayed under-loaded (0.3x the measured
  batched capacity), saturated (1x) and overloaded (3x, with a byte
  budget and ``reject`` admission), showing queue-wait growth, SLA
  decay and the rejection breakdown under hard back-pressure.

All latencies are *simulated* seconds out of the deterministic cost
model, so runs are exactly reproducible for a given seed and the CI
gate can hold them to a tight tolerance; wall-clock speed of the runner
cancels out.

**Replay gate.**  The preemption bars are checked on every run.
``--check-against REF.json`` also compares the run's
INTERACTIVE p95 latency and SLA attainment per regime (and the scale
phase) against a reference payload of the same shape and fails with
exit code 1 when p95 grows beyond ``reference * (1 + tolerance)``,
attainment drops by more than the tolerance, or a phase of the
reference is missing from the run.  The rows are checked by the shared
:mod:`gates` module.  The payload goes to the git-ignored
``benchmarks/results/`` unless ``--output`` names another path.

Usage::

    python benchmarks/bench_replay.py              # full run (>= 10^5 queries)
    python benchmarks/bench_replay.py --smoke      # 10^4-query CI smoke run
    python benchmarks/bench_replay.py --smoke \
        --check-against benchmarks/BENCH_replay_smoke.json --tolerance 0.2
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import gates
from repro.bench.workloads import build_workload
from repro.service import (
    GraphService,
    Priority,
    QueryRequest,
    ReplayHarness,
    ServiceConfig,
    timed_mixed_trace,
)

GATED_CLASS = "interactive"
#: The preemption phase's acceptance bars: interactive p95 improvement
#: floor and BULK makespan regression ceiling, off vs on.
P95_IMPROVEMENT_FLOOR = 1.5
BULK_REGRESSION_CEILING = 1.15


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------


def build_service(workload, *, preemption=False, budget=None, policy="queue"):
    """A fresh service over the benchmark workload (default HyTGraph)."""
    config = ServiceConfig(
        system="hytgraph",
        preemption=preemption,
        admission_budget_bytes=budget,
        admission_policy=policy,
    )
    return GraphService(config, graph=workload.graph, hardware=workload.config)


def calibrate_capacity(workload, seed: int, probe: int = 400) -> float:
    """Batched serving capacity in queries per simulated second.

    Replays a short probe trace whose arrivals are effectively all at
    t~0 (a huge rate), so the service batches as hard as it can; the
    resulting completed/makespan ratio is the saturation throughput the
    regime rates are expressed against.
    """
    service = build_service(workload)
    harness = ReplayHarness(service, lookahead=256)
    report = harness.replay(
        timed_mixed_trace(workload.graph, probe, rate=1e9, seed=seed)
    )
    if report.queries_per_second <= 0:
        raise SystemExit("capacity probe served nothing; graph too small?")
    return report.queries_per_second


def replay_once(
    workload,
    count: int,
    rate: float,
    seed: int,
    *,
    preemption: bool = False,
    budget=None,
    policy: str = "queue",
    sla_s: float | None = None,
    bulk_fraction: float = 0.02,
    verify_sample: int = 0,
    lookahead: int = 256,
):
    """One full streamed replay of the seeded mix; returns the report."""
    service = build_service(workload, preemption=preemption, budget=budget, policy=policy)
    harness = ReplayHarness(
        service, lookahead=lookahead, verify_sample=verify_sample, seed=seed
    )
    return harness.replay(
        timed_mixed_trace(
            workload.graph,
            count,
            rate,
            seed=seed,
            bulk_fraction=bulk_fraction,
            interactive_sla_s=sla_s,
        )
    )


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def run_scale(workload, count: int, capacity: float, seed: int) -> dict:
    """The headline phase: a saturated replay of ``count`` queries."""
    print("== scale: %d queries at saturation (%.0f q/s) ==" % (count, capacity))
    sla_s = 200.0 / capacity
    report = replay_once(
        workload, count, capacity, seed, sla_s=sla_s, verify_sample=10
    )
    assert report.completed == report.queries, (
        "scale replay dropped queries: %d of %d completed"
        % (report.completed, report.queries)
    )
    assert report.verified_bitwise is True, (
        "served values diverged bitwise from solo runs in the scale replay"
    )
    row = report.classes.get(GATED_CLASS, {})
    print(
        "  completed %d/%d in %.3f simulated s (%.0f q/s, wall %.1f s); "
        "interactive p95 %.6f s, SLA %.1f%%"
        % (
            report.completed, report.queries, report.makespan_s,
            report.queries_per_second, report.wall_s,
            row.get("p95_s", 0.0), 100.0 * row.get("sla_attainment", 1.0),
        )
    )
    payload = report.as_dict()
    payload["sla_s"] = sla_s
    return payload


def run_preemption(workload, count: int, capacity: float, seed: int) -> dict:
    """Preemption on vs off on one saturated BULK-heavy trace.

    The payload's ``p95_improvement`` and ``bulk_regression`` are the
    acceptance bars :func:`bar_rows` holds on every run — this benchmark
    is the executable statement of what the preemption feature must
    deliver, not just a report.
    """
    print("== preemption: on vs off, %d queries, BULK-heavy saturated mix ==" % count)
    # The light-mix `capacity` overstates what a BULK-heavy mix can
    # sustain (analytic scans are far heavier than point lookups); at
    # genuine overload the interactive tail is backlog-dominated, which
    # any work-conserving discipline serves identically.  Probe the
    # BULK-heavy mix's own batched capacity and run the A/B just below
    # its knee, where head-of-line blocking by running scans — the thing
    # preemption removes — is what sets the interactive p95.
    mix_probe = replay_once(
        workload, min(count, 400), 1e9, seed, bulk_fraction=0.10
    )
    rate = 0.8 * mix_probe.queries_per_second
    kwargs = dict(
        rate=rate,
        sla_s=200.0 / capacity,
        bulk_fraction=0.10,
        verify_sample=10,
    )
    off = replay_once(workload, count, seed=seed, preemption=False, **kwargs)
    on = replay_once(workload, count, seed=seed, preemption=True, **kwargs)
    p95_off = off.latency_percentile(GATED_CLASS, 95)
    p95_on = on.latency_percentile(GATED_CLASS, 95)
    improvement = p95_off / p95_on if p95_on > 0 else float("inf")
    bulk_regression = (
        on.bulk_makespan_s / off.bulk_makespan_s if off.bulk_makespan_s > 0 else 1.0
    )
    print(
        "  interactive p95: %.6f s -> %.6f s (%.2fx better with preemption)"
        % (p95_off, p95_on, improvement)
    )
    print(
        "  BULK makespan: %.4f s -> %.4f s (%.1f%% regression), "
        "%d preemption(s) over %d quer(ies)"
        % (
            off.bulk_makespan_s, on.bulk_makespan_s,
            100.0 * (bulk_regression - 1.0), on.preemptions, on.preempted_queries,
        )
    )
    assert on.preemptions > 0, "the BULK-heavy saturated mix never preempted"
    assert off.verified_bitwise is True and on.verified_bitwise is True, (
        "served values diverged bitwise from solo runs"
    )
    return {
        "p95_off_s": p95_off,
        "p95_on_s": p95_on,
        "p95_improvement": improvement,
        "bulk_makespan_off_s": off.bulk_makespan_s,
        "bulk_makespan_on_s": on.bulk_makespan_s,
        "bulk_regression": bulk_regression,
        "preemptions": on.preemptions,
        "preempted_queries": on.preempted_queries,
        "off": off.as_dict(),
        "on": on.as_dict(),
    }


def run_regimes(workload, count: int, capacity: float, seed: int) -> dict:
    """Under-load / saturated / overload behaviour of one mix."""
    print("== regimes: %d queries each at 0.3x / 1x / 3x capacity ==" % count)
    sla_s = 200.0 / capacity
    # Overload gets a hard byte budget with reject admission so the
    # rejection breakdown is visible; the budget is sized off a typical
    # request estimate so a bounded number of queries fits in flight.
    probe = build_service(workload)
    estimate = probe.admission.estimate_request_bytes(
        *probe.submit(QueryRequest(algorithm="pagerank", priority=Priority.BULK))._query
    )
    budget = max(estimate * 4, 1)
    regimes = {}
    for name, factor, admission in (
        ("under_load", 0.3, {}),
        ("saturated", 1.0, {}),
        ("overload", 3.0, {"budget": budget, "policy": "reject"}),
    ):
        report = replay_once(
            workload, count, capacity * factor, seed, sla_s=sla_s, **admission
        )
        row = report.classes.get(GATED_CLASS, {})
        print(
            "  %-10s %5d done, %4d rejected | interactive p50 %.6f p95 %.6f "
            "p99 %.6f s | SLA %.1f%% | %.0f q/s"
            % (
                name, report.completed, report.rejected,
                row.get("p50_s", 0.0), row.get("p95_s", 0.0), row.get("p99_s", 0.0),
                100.0 * row.get("sla_attainment", 1.0), report.queries_per_second,
            )
        )
        payload = report.as_dict()
        payload["rate_factor"] = factor
        regimes[name] = payload
    assert regimes["overload"]["rejected"] > 0, (
        "the overloaded reject-admission regime rejected nothing; budget too high?"
    )
    return {"sla_s": sla_s, "capacity_qps": capacity, "regimes": regimes}


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def _phases(payload) -> dict[str, dict]:
    """The (name -> interactive class row) of every gated phase."""
    rows = {}
    scale_row = payload.get("scale", {}).get("classes", {}).get(GATED_CLASS)
    if scale_row:
        rows["scale"] = scale_row
    for name, regime in payload.get("regimes", {}).get("regimes", {}).items():
        row = regime.get("classes", {}).get(GATED_CLASS)
        if row:
            rows["regime:%s" % name] = row
    return rows


def bar_rows(current) -> list[gates.Row]:
    """The preemption phase's acceptance bars, held on every run."""
    preemption = current.get("preemption", {})
    return [
        gates.Row("preemption interactive p95 improvement", preemption.get("p95_improvement"),
                  "floor", P95_IMPROVEMENT_FLOOR),
        gates.Row("preemption BULK regression", preemption.get("bulk_regression"),
                  "ceiling", BULK_REGRESSION_CEILING),
    ]


def regression_rows(current, reference, tolerance) -> list[gates.Row]:
    """The interactive p95 ceiling and SLA floor of every reference phase.

    Latencies are deterministic simulation outputs, so the tolerance
    absorbs intentional small model changes, not runner noise.
    """
    phases = _phases(current)
    rows = []
    for name, ref in sorted(_phases(reference).items()):
        row = phases.get(name, {})
        ref_p95, ref_sla = float(ref["p95_s"]), float(ref["sla_attainment"])
        ceiling = ref_p95 * (1.0 + tolerance) if ref_p95 else math.inf
        rows.append(gates.Row("%s interactive p95" % name, row.get("p95_s"), "ceiling", ceiling, ref_p95))
        rows.append(gates.Row(
            "%s SLA attainment" % name, row.get("sla_attainment"), "floor", ref_sla - tolerance, ref_sla
        ))
    return rows


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def measure(args) -> dict:
    """Every phase of the benchmark; returns the payload."""
    graph_scale = 0.02 if args.smoke else 0.05
    scale_queries = args.scale_queries or (10_000 if args.smoke else 100_000)
    phase_queries = 1_200 if args.smoke else 5_000

    workload = build_workload("SK", "sssp", scale=graph_scale)
    print(
        "replaying on SK scale=%g (%d vertices, %d edges)"
        % (graph_scale, workload.graph.num_vertices, workload.graph.num_edges)
    )
    capacity = calibrate_capacity(workload, args.seed)

    payload = {
        "benchmark": "replay",
        "smoke": args.smoke,
        "seed": args.seed,
        "graph": {
            "dataset": "SK",
            "scale": graph_scale,
            "vertices": workload.graph.num_vertices,
            "edges": workload.graph.num_edges,
        },
        "capacity_qps": capacity,
        "scale": run_scale(workload, scale_queries, capacity, args.seed),
        "preemption": run_preemption(workload, phase_queries, capacity, args.seed),
        "regimes": run_regimes(workload, phase_queries, capacity, args.seed),
    }
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--smoke", action="store_true",
                        help="10^4-query CI smoke run instead of the full 10^5")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale-queries", type=int, default=None,
                        help="override the scale phase's query count")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON payload (default: "
                             "BENCH_replay[_smoke].json in benchmarks/results/)")
    gates.add_arguments(parser, 0.2, "relative p95 ceiling / absolute SLA floor")
    args = parser.parse_args()
    gates.run_gate(
        "replay gate",
        args.output or gates.RESULTS_DIR / ("BENCH_replay_smoke.json" if args.smoke else "BENCH_replay.json"),
        lambda: measure(args),
        args.check_against,
        always=bar_rows,
        against=lambda payload, reference: regression_rows(payload, reference, args.tolerance),
    )


if __name__ == "__main__":
    main()
