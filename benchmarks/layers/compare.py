"""``run.py --compare BASE.json NEW.json``: judge two ledger result files.

One row per (metric, workload) for the eleven user-visible metrics:
base, new, the ratio with its base, and a verdict against
``ledger.STRICT_BOUNDS`` —

* ``unchanged``  within the bound, and the run-to-run spread is too;
* ``improved`` / ``regressed``  beyond both the bound and the spread;
* ``unresolved``  the spread (pass-to-pass in the wider of the two files,
  and never less than ``ledger.HOST_RUN_TO_RUN_SPREAD`` for a host time)
  is wider than the bound or than the difference, so the files cannot
  tell;
* ``n/a``  the pair does not apply (``sim_speedup_vs_baselines`` on a
  serving workload, latencies on ``solo_grid``).

The remaining exact metrics (``.calls``, ``.sim_*``, counts, their
ratios) are compared bit-for-bit and listed only where they differ.
With ``--host-only`` any such difference — and any ``sim_*`` row that is
not bit-identical — is a failure: a change that claims to speed up only
the simulator must leave every simulated statistic alone.  This is also
how "two sets of runs of one commit agree" is checked.  Exit code 1 on a
regression or a host-only violation.
"""

from __future__ import annotations

import json
from pathlib import Path

import ledger


def _metrics(entry: dict) -> dict[str, float]:
    merged = {}
    for phase in ("end_to_end", "per_layer"):
        merged.update({name: metric["value"] for name, metric in entry[phase]["metrics"].items()})
    return merged


def _noise(name: str, entry: dict) -> float:
    detail = entry["end_to_end"]["detail"]
    if name == "host_us_per_query":
        return max(ledger.HOST_RUN_TO_RUN_SPREAD, ledger.spread(detail["host_us_per_query_passes"]))
    if name == "setup_s":
        return max(ledger.HOST_RUN_TO_RUN_SPREAD, detail["spread"]["setup_s"])
    return 0.0


def verdict(name: str, base: float, new: float, noise: float) -> str:
    """The judgement of one (metric, workload) row."""
    if base == 0 and new == 0:
        return "n/a" if name != "failed_fraction" else "unchanged"
    bound = ledger.STRICT_BOUNDS[name]
    sign = 1.0 if ledger.BETTER[name] == "lower" else -1.0
    worse = sign * (new - base) / abs(base) if base else float("inf") * sign * (new - base)
    if abs(worse) <= bound:
        return "unchanged" if noise <= bound else "unresolved"
    if abs(worse) <= noise:
        return "unresolved"
    return "regressed" if worse > 0 else "improved"


def main(base_path: Path, new_path: Path, host_only: bool = False) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if (base["seed"], base["quick"]) != (new["seed"], new["quick"]):
        print("the files ran different inputs (seed %s quick %s vs seed %s quick %s): "
              "simulated values and counts cannot be compared"
              % (base["seed"], base["quick"], new["seed"], new["quick"]))
        return 1
    failures = 0
    print("%-18s %-26s %14s %14s  %-22s %s" % ("workload", "metric", "base", "new", "new/base", "verdict"))
    for workload in ledger.WORKLOADS:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        base_metrics = _metrics(base["workloads"][name])
        new_metrics = _metrics(new["workloads"][name])
        for metric in ledger.STRICT_BOUNDS:
            old, now = base_metrics[metric], new_metrics[metric]
            noise = max(_noise(metric, base["workloads"][name]), _noise(metric, new["workloads"][name]))
            result = verdict(metric, old, now, noise)
            if host_only and ledger.is_exact(metric) and old != now:
                result = "sim-changed"
            failures += result in ("regressed", "sim-changed")
            ratio = "%.4f (base %.6g %s)" % (now / old, old, ledger.UNITS[metric]) if old else "-"
            print("%-18s %-26s %14.6g %14.6g  %-22s %s" % (name, metric, old, now, ratio, result))
        exact = [
            metric for metric in base_metrics
            if metric not in ledger.STRICT_BOUNDS and ledger.is_exact(metric)
        ]
        differing = [metric for metric in exact if base_metrics[metric] != new_metrics.get(metric)]
        for metric in differing:
            print("%-18s %-26s %14.6g %14.6g  exact metric differs" % (
                name, metric, base_metrics[metric], new_metrics.get(metric, float("nan"))))
        print("%-18s %d of %d exact per-layer metrics identical" % (
            name, len(exact) - len(differing), len(exact)))
        if host_only:
            failures += len(differing)
    if failures:
        print("FAILED: %d regression(s) or host-only violation(s)" % failures)
    return 1 if failures else 0
