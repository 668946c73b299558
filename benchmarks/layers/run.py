"""Two-clock layer ledger: the benchmark's one command.

``python benchmarks/layers/run.py [--seed 7]`` runs the four workloads of
:mod:`workloads`, each in its own fresh interpreter, first untraced for
the end-to-end metrics and then traced for the per-layer metrics, prints
every metric by name with its unit, checks the outputs are correct and
writes the results under ``benchmarks/layers/results/``.

The benchmark driver calls the per-workload form instead::

    run.py --workload NAME --seed N --seconds S --trace 0|1

which prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

``--compare A.json B.json`` judges two result files (see :mod:`compare`).

Two clocks: ``sim_*`` is the deterministic cost model's simulated time
and repeats exactly for a seed; everything else is host time of this
single-threaded process.  Time is simulated, so the open-loop generator
is never late: latency is counted from each request's due ``arrival_s``
even when the lookahead window delays its submission.
"""

from __future__ import annotations

import os

# Before numpy loads: one thread, so host time means one core's time.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

import ledger  # noqa: E402
import probes  # noqa: E402

#: Set-up is repeated at least this often, and (cheap set-ups) until this
#: many seconds have gone, so ``setup_s`` is a median of several builds.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
#: Fewest untraced passes, whatever ``--seconds`` says (traced runs: pairs).
MIN_PASSES = 2


def _timed_passes(workload, inputs, seed, seconds, recorder=None):
    """Passes until ``seconds`` have gone.

    The first pass is the verified one — its values are checked after its
    clock stops — and every later pass must reproduce its simulated values
    exactly.  With a ``recorder`` each untraced pass is followed by a
    traced one (probes installed for that pass only), so the two halves
    of every overhead ratio ran under the same machine conditions.
    Returns ``(untraced, traced, totals)``.
    """
    passes, traced, totals = [], [], []

    def one_pass(verify=False, recorder=None):
        result = workload.run_pass(inputs, seed, verify=verify, recorder=recorder)
        if passes and result.sim != passes[0].sim:
            changed = sorted(key for key in passes[0].sim if result.sim.get(key) != passes[0].sim[key])
            raise AssertionError(
                "simulated values changed between passes of one seed: %s" % ", ".join(changed)
            )
        return result

    started = time.perf_counter()
    fewest = 1 if recorder is not None else MIN_PASSES
    while len(passes) < fewest or time.perf_counter() - started < seconds:
        passes.append(one_pass(verify=not passes))
        if recorder is not None:
            remove = probes.install(recorder)
            try:
                recorder.reset()
                traced.append(one_pass(recorder=recorder))
            finally:
                remove()
            totals.append(recorder.totals())
    return passes, traced, totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(totals: dict, result, bench: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by its declared name."""
    values = defaultdict(float, result.sim)
    values.update(totals)
    values.update(bench)
    get = values.__getitem__
    selected = sum(get("selection.%s_partitions" % key) for key in ("filter", "compaction", "zero_copy"))
    values.update({
        "failed_fraction": result.failed / result.queries,
        "kernel.ns_per_edge": _ratio(get("kernel.self_s") * 1e9, get("kernel.edges")),
        "plan.calls_per_query": get("plan.calls") / result.queries,
        "plan.us_per_call": _ratio(get("plan.self_s") * 1e6, get("plan.calls")),
        "selection.filter_share": _ratio(get("selection.filter_partitions"), selected),
        "selection.compaction_share": _ratio(get("selection.compaction_partitions"), selected),
        "selection.zero_copy_share": _ratio(get("selection.zero_copy_partitions"), selected),
        "combiner.partitions_per_task": _ratio(get("combiner.partitions"), get("combiner.tasks")),
        "batch.queries_per_wave": _ratio(get("batch.wave_queries"), get("batch.waves")),
        "batch.amortized_share": _ratio(
            get("batch.sim_amortized_bytes"),
            get("batch.sim_amortized_bytes") + get("sim_transfer_bytes"),
        ),
        "cache.hit_ratio": _ratio(
            get("cache.sim_hit_bytes"), get("cache.sim_hit_bytes") + get("cache.sim_miss_bytes")
        ),
        "bench.unattributed_share": 1.0 - sum(
            seconds for name, seconds in totals.items() if name.endswith("_s")
        ) / result.wall_s,
    })
    return {metric["name"]: float(values[metric["name"]]) for metric in ledger.PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Measure one workload in this process; returns the result payload."""
    from workloads import make_workloads

    workload = make_workloads(quick)[name]

    samples = []
    started = time.perf_counter()
    while len(samples) < SETUP_MIN_REPEATS or (
        time.perf_counter() - started < SETUP_MIN_SECONDS and len(samples) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        began = time.perf_counter()
        inputs = workload.setup(seed)
        samples.append(time.perf_counter() - began)

    # Discarded warm-up at 1/10 size: lazy imports, allocator pools and the
    # interpreter's specialised bytecode settle before anything is timed.
    warm_up = make_workloads(quick=True)[name]
    warm_up.run_pass(warm_up.setup(seed), seed, verify=False)

    recorder = probes.Recorder(seed) if trace else None
    passes, traced, totals = _timed_passes(workload, inputs, seed, seconds, recorder)
    sim = passes[0].sim
    host_us = [1e6 * result.wall_s / result.queries for result in passes]
    attempted = sum(result.queries for result in passes + traced)
    failed = sum(result.failed for result in passes + traced)
    detail = {
        "workload": name, "seed": seed, "quick": quick,
        "passes": len(passes), "setups": len(samples),
        "host_us_per_query_passes": host_us,
        "interactive_sent": sim.get("interactive_sent", 0),
    }

    if not trace:
        values = {
            "setup_s": statistics.median(samples),
            # One long measurement, cut into passes only so that each starts
            # from the same state.  Not the median of the passes: this
            # sandbox's speed shifts in phases longer than a pass, and over
            # two ten-seed sweeps the pooled figure spread less than the
            # median on every workload (see the README).
            "host_us_per_query": 1e6 * sum(result.wall_s for result in passes)
            / sum(result.queries for result in passes),
            # Linux reports ru_maxrss in KiB.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_makespan_s": sim["sim_makespan_s"],
            "sim_transfer_bytes": sim["sim_transfer_bytes"],
        }
        detail["spread"] = {"host_us_per_query": ledger.spread(host_us), "setup_s": ledger.spread(samples)}
    else:
        bench = {
            "graph.build_s": inputs.graph_build_s,
            "graph.edges": inputs.graph_edges,
            "systems.build_s": inputs.systems_build_s,
            "replay.verify_s": passes[0].verify_s,
            "bench.trace_overhead_ratio": statistics.median(
                with_probes.wall_s / without.wall_s for with_probes, without in zip(traced, passes)
            ),
            "bench.pass_spread": ledger.spread(host_us),
            "bench.probes_missing": len(recorder.missing),
        }
        per_pass = [_layer_metrics(total, result, bench) for total, result in zip(totals, traced)]
        values = {
            metric["name"]: statistics.median(row[metric["name"]] for row in per_pass)
            for metric in ledger.PER_LAYER
        }
        detail["traced_passes"] = len(traced)
        detail["probes_missing"] = recorder.missing
        detail["chrome_trace"] = str(
            recorder.write_chrome_trace(HERE / "results" / ("trace_%s_seed%d.json" % (name, seed)))
            .relative_to(REPO)
        )

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": ledger.UNITS[key]} for key, value in values.items()},
        "detail": detail,
    }


def _print_metrics(result: dict) -> None:
    for key, metric in result["metrics"].items():
        print("  %-34s %.6g %s" % (key, metric["value"], metric["unit"]))


def _run_child(name: str, seed: int, seconds: float, trace: int, quick: bool, hashseed: str = "0") -> dict:
    """One workload in a fresh interpreter; returns its parsed result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("%s (trace %d) printed no result (exit code %d)" % (name, trace, done.returncode))
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    return result


def run_all(seed: int, seconds: float, quick: bool, out: Path) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    payload = {"seed": seed, "quick": quick, "run_seconds": seconds, "workloads": {}}
    correct = True
    for workload in ledger.WORKLOADS:
        name = workload["name"]
        print("== %s — %s" % (name, workload["why"]))
        end_to_end = _run_child(name, seed, seconds, 0, quick)
        per_layer = _run_child(name, seed, seconds, 1, quick)
        for label, result in (("end-to-end (untraced)", end_to_end), ("per-layer (traced)", per_layer)):
            detail = result["detail"]
            print(" %s: %d passes, attempted %d, failed %d" % (
                label, detail["passes"], result["attempted"], result["failed"]))
            _print_metrics(result)
        if per_layer["detail"]["interactive_sent"]:
            print("  sim_interactive_p99_s rests on %d INTERACTIVE samples" %
                  per_layer["detail"]["interactive_sent"])
        self_times = sorted(
            ((metric["value"], key) for key, metric in per_layer["metrics"].items()
             if key.endswith("self_s")),
            reverse=True,
        )
        traced_s = sum(value for value, _ in self_times)
        print("  top layers by self time (share of the traced pass): " + ", ".join(
            "%s %.0f%%" % (key, 100 * value / traced_s) for value, key in self_times[:5]))
        correct = correct and end_to_end["correct"] and per_layer["correct"]
        payload["workloads"][name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    if not correct:
        print("FAILED: value mismatch or failed queries (see failed counts above)")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[workload["name"] for workload in ledger.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=ledger.RUN_SECONDS,
                        help="how long each phase measures (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="same workloads, ~1/10 the queries")
    parser.add_argument("--out", type=Path, help="result file of the all-workloads run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE.json", "NEW.json"))
    parser.add_argument("--host-only", action="store_true",
                        help="with --compare: any simulated difference is a failure")
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json from ledger.py")
    args = parser.parse_args()

    if args.manifest:
        (REPO / "BENCHMARK.json").write_text(json.dumps(ledger.manifest(), indent=1) + "\n")
        return 0
    if args.compare:
        import compare

        return compare.main(*args.compare, host_only=args.host_only)
    if args.workload is None:
        out = args.out or HERE / "results" / ("ledger_seed%d%s.json" % (args.seed, "_quick" if args.quick else ""))
        return run_all(args.seed, args.seconds, args.quick, out)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    detail = result.pop("detail")
    print("%s seed %d: %d passes, attempted %d, failed %d" % (
        args.workload, args.seed, detail["passes"], result["attempted"], result["failed"]))
    _print_metrics(result)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
