"""The ledger's vocabulary: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out
(``python benchmarks/layers/run.py --manifest``); the self-test holds the
two equal, so a metric cannot be printed without being declared or
declared without being printed.

Two clocks, always labelled.  A name that starts with ``sim_`` (or has a
``.sim_`` member) is simulated seconds/bytes out of the deterministic
cost model and repeats exactly for a seed; ``*.calls`` and the other
counts repeat exactly too.  Everything else is host time or host memory
on the machine that ran the benchmark.
"""

from __future__ import annotations

import statistics

RUN_SECONDS = 20


def spread(values: list[float]) -> float:
    """(q3 - q1) / median: the run-to-run spread the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


WORKLOADS = [
    {
        "name": "solo_grid",
        "why": "closed loop, 4 systems x 4 algorithms x SK+TW solo runs (paper Table V): "
               "algorithms+kernel+transfer do the host work; service, batch and cluster do none",
    },
    {
        "name": "replay_underload",
        "why": "open loop, Poisson 5000 q/s (~0.2x capacity): ~1.5 queries per wave, so per-wave and "
               "per-iteration fixed overhead (plan, streams, service.step) dominates; batching shares nothing",
    },
    {
        "name": "replay_saturated",
        "why": "open loop, Poisson 24000 q/s (~1.0x capacity): ~80 queries per wave, long super-iterations "
               "in the batch runner; simulated queueing sets latency, SLA sits on the knee",
    },
    {
        "name": "cluster_failover",
        "why": "open loop, bursty 60000 q/s on 4 hosts x 2 GPUs with preemption, lru cache and a host loss: "
               "only workload that runs router, cluster stepping, checkpoints and multi-device schedule",
    },
]

# ``bound`` is what the driver enforces across runs with *different*
# seeds on a shared sandbox.  The simulated metrics carry the seed-to-seed
# spread of their inputs (up to 0.08 on ``cluster_failover``), not the
# 0.1% of STRICT_BOUNDS that holds between two runs of one seed.  The two
# host times carry the sandbox: its speed shifts by ~25% in phases that
# outlast a run (a bare spin loop shows the same), which puts 0.15-0.20
# between the quartiles of ten runs whatever statistic a run reports.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "host_us_per_query", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
    {"name": "sim_makespan_s", "unit": "s", "better": "lower", "bound": 0.22},
    {"name": "sim_transfer_bytes", "unit": "bytes", "better": "lower", "bound": 0.25},
]


def _layer(prefix: str, *members: tuple[str, str, str]) -> list[dict]:
    return [
        {"name": "%s.%s" % (prefix, member), "unit": unit, "better": better}
        for member, unit, better in members
    ]


_CALLS = ("calls", "count", "lower")
_SELF = ("self_s", "s", "lower")

PER_LAYER = (
    # User-visible metrics that do not apply to every workload (the
    # contract wants every end-to-end metric on every workload) ride here;
    # --compare still holds them to STRICT_BOUNDS.  0 = not applicable.
    [
        {"name": "sim_interactive_p50_s", "unit": "s", "better": "lower"},
        {"name": "sim_interactive_p99_s", "unit": "s", "better": "lower"},
        {"name": "sim_sla_attainment", "unit": "fraction", "better": "higher"},
        {"name": "sim_bulk_makespan_s", "unit": "s", "better": "lower"},
        {"name": "sim_speedup_vs_baselines", "unit": "ratio", "better": "higher"},
        {"name": "failed_fraction", "unit": "fraction", "better": "lower"},
    ]
    + _layer("graph", ("build_s", "s", "lower"), ("edges", "count", "lower"))
    + _layer("systems", ("build_s", "s", "lower"))
    + _layer("algorithms", _CALLS, _SELF)
    + _layer("kernel", _CALLS, ("edges", "count", "lower"), _SELF, ("ns_per_edge", "ns/edge", "lower"))
    + _layer("plan", _CALLS, ("calls_per_query", "count", "lower"), _SELF, ("us_per_call", "us", "lower"))
    + _layer("cost_model", _CALLS, _SELF)
    + _layer(
        "selection", _CALLS, _SELF,
        ("filter_share", "fraction", "higher"),
        ("compaction_share", "fraction", "higher"),
        ("zero_copy_share", "fraction", "higher"),
    )
    + _layer("combiner", _CALLS, _SELF, ("partitions_per_task", "ratio", "higher"))
    + _layer("priority", _CALLS, _SELF)
    + _layer(
        "transfer", _CALLS, _SELF,
        ("sim_bytes", "bytes", "lower"),
        ("sim_pcie_s", "s", "lower"),
        ("sim_compaction_s", "s", "lower"),
    )
    + _layer("streams", ("place_calls", "count", "lower"), _SELF, ("sim_kernel_s", "s", "lower"))
    + _layer(
        "schedule", _CALLS, _SELF,
        ("sim_sync_s", "s", "lower"),
        ("sim_interconnect_bytes", "bytes", "lower"),
    )
    + _layer("driver", _CALLS, _SELF)
    + _layer(
        "batch", _CALLS, _SELF,
        ("super_iterations", "count", "lower"),
        ("queries_per_wave", "ratio", "higher"),
        ("sim_amortized_bytes", "bytes", "higher"),
        ("amortized_share", "fraction", "higher"),
    )
    + _layer(
        "cache", _CALLS, _SELF,
        ("sim_hit_bytes", "bytes", "higher"),
        ("sim_miss_bytes", "bytes", "lower"),
        ("sim_evicted_bytes", "bytes", "lower"),
        ("hit_ratio", "fraction", "higher"),
    )
    + _layer("admission", _CALLS, _SELF, ("rejected", "count", "lower"))
    + _layer(
        "service",
        ("submit_calls", "count", "lower"),
        ("submit_self_s", "s", "lower"),
        ("step_calls", "count", "lower"),
        ("step_self_s", "s", "lower"),
        ("harvest_self_s", "s", "lower"),
        ("preemptions", "count", "lower"),
        ("sim_queue_wait_mean_s", "s", "lower"),
        ("sim_interactive_p95_s", "s", "lower"),
    )
    + _layer("trace", ("requests", "count", "higher"), ("gen_self_s", "s", "lower"))
    + _layer("replay", _SELF, ("verify_s", "s", "lower"))
    + _layer(
        "faults",
        ("checkpoint_calls", "count", "lower"),
        _SELF,
        ("injected", "count", "lower"),
        ("retries", "count", "lower"),
        ("sim_checkpoint_s", "s", "lower"),
        ("sim_recovery_s", "s", "lower"),
    )
    + _layer(
        "router", _CALLS, _SELF,
        ("affinity_ratio", "fraction", "higher"),
        ("spills", "count", "lower"),
        ("failovers", "count", "lower"),
    )
    + _layer(
        "cluster",
        ("step_calls", "count", "lower"),
        _SELF,
        ("sim_shipped_bytes", "bytes", "lower"),
        ("host_imbalance", "ratio", "lower"),
        ("alive_hosts_end", "count", "higher"),
    )
    + _layer(
        "bench",
        ("trace_overhead_ratio", "ratio", "lower"),
        ("unattributed_share", "fraction", "lower"),
        ("pass_spread", "fraction", "lower"),
        ("probes_missing", "count", "lower"),
    )
)

# What --compare holds two runs of the *same seed* to.  Simulated values
# and counts are deterministic, so 0.1% is already generous; the three
# host metrics carry machine noise.
#: Spread between *runs* of one commit on the shared sandbox this was
#: written on (quartile distance over the median of ten runs: 0.15-0.20
#: for host time, see the README).  The spread between the passes inside
#: one run misses it — the machine's slow phases outlast a run — so
#: --compare never calls a host-time difference smaller than this resolved.
HOST_RUN_TO_RUN_SPREAD = 0.25

STRICT_BOUNDS = {
    "setup_s": 0.15,
    "host_us_per_query": 0.10,
    "peak_rss_mb": 0.10,
    "sim_makespan_s": 0.001,
    "sim_transfer_bytes": 0.001,
    "sim_interactive_p50_s": 0.001,
    "sim_interactive_p99_s": 0.001,
    "sim_sla_attainment": 0.001,
    "sim_bulk_makespan_s": 0.001,
    "sim_speedup_vs_baselines": 0.001,
    "failed_fraction": 0.0,
}


def is_exact(name: str) -> bool:
    """Whether a metric repeats bit-for-bit for a seed (simulated value or count)."""
    if name.startswith("sim_") or ".sim_" in name or name == "failed_fraction":
        return True
    unit = UNITS[name]
    if unit in ("count", "bytes"):
        return True
    # Ratios of exact quantities; every host-time ratio is listed here.
    return unit in ("fraction", "ratio") and name not in (
        "bench.trace_overhead_ratio", "bench.unattributed_share", "bench.pass_spread",
    )


UNITS = {metric["name"]: metric["unit"] for metric in END_TO_END + PER_LAYER}
BETTER = {metric["name"]: metric["better"] for metric in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/layers/run.py"],
        "paths": ["benchmarks/layers"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
