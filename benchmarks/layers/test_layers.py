"""Self-test of the layer ledger (``python -m pytest benchmarks/layers -q``).

Drives ``run.py --quick`` (same workloads, ~1/10 the queries) the way the
benchmark driver drives the full size, and checks the properties every
later comparison rests on: every declared metric is printed with its
unit, simulated values and counts repeat exactly (also under another
``PYTHONHASHSEED``), the traced pass accounts for its own wall time, and
the probes leave nothing behind.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import compare  # noqa: E402
import ledger  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

NAMES = [workload["name"] for workload in ledger.WORKLOADS]
SECONDS = 0.5


@pytest.fixture(scope="module")
def quick_runs():
    """Two quick runs of every workload and phase, under different hash seeds."""
    return {
        (name, trace, hashseed): run._run_child(name, 7, SECONDS, trace, True, hashseed=hashseed)
        for name in NAMES
        for trace in (0, 1)
        for hashseed in ("0", "123")
    }


def test_manifest_is_the_ledger_and_meets_the_contract():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert manifest == ledger.manifest()
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16 and 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < metric["bound"] <= 0.25 for metric in manifest["end_to_end"])
    assert all(len(workload["why"]) <= 200 and "\n" not in workload["why"] for workload in manifest["workloads"])
    setup = next(metric for metric in manifest["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in manifest["end_to_end"])
    # 4 + 22 x workloads runs, each about set-up + warm-up + run_seconds, must fit 3420 s.
    assert (4 + 22 * len(NAMES)) * (manifest["run_seconds"] + 12) <= 3420


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_printed_with_its_unit(quick_runs, name):
    for trace, declared in ((0, ledger.END_TO_END), (1, ledger.PER_LAYER)):
        result = quick_runs[name, trace, "0"]
        assert set(result) == {"correct", "attempted", "failed", "metrics", "detail"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {key: metric["unit"] for key, metric in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared
        }
    assert all(metric["value"] > 0 for metric in quick_runs[name, 0, "0"]["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_simulated_values_and_counts_repeat_exactly(quick_runs, name):
    for trace in (0, 1):
        first, second = (quick_runs[name, trace, hashseed]["metrics"] for hashseed in ("0", "123"))
        exact = [key for key in first if ledger.is_exact(key)]
        assert exact
        assert {key: first[key]["value"] for key in exact} == {key: second[key]["value"] for key in exact}


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass_accounts_for_its_wall_time(quick_runs, name):
    from repro.obs import validate_chrome_trace

    result = quick_runs[name, 1, "0"]
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert metrics["bench.unattributed_share"] <= 0.05
    assert metrics["bench.probes_missing"] == 0
    assert metrics["bench.trace_overhead_ratio"] > 0
    payload = json.loads((REPO / result["detail"]["chrome_trace"]).read_text())
    assert validate_chrome_trace(payload) == []
    assert payload["otherData"]["clock"] == "host" and payload["otherData"]["spans"] > 0


def test_each_workload_uses_the_layers_it_was_chosen_for(quick_runs):
    calls = {
        name: {key: metric["value"] for key, metric in quick_runs[name, 1, "0"]["metrics"].items()}
        for name in NAMES
    }
    solo = calls["solo_grid"]
    assert solo["kernel.calls"] > 0 and solo["sim_speedup_vs_baselines"] > 0
    assert solo["batch.calls"] == solo["service.step_calls"] == solo["router.calls"] == 0
    assert solo["sim_interactive_p99_s"] == 0  # not applicable, never a number
    for name in ("replay_underload", "replay_saturated"):
        assert calls[name]["batch.calls"] > 0 and calls[name]["service.submit_calls"] > 0
        assert calls[name]["router.calls"] == calls[name]["faults.checkpoint_calls"] == 0
        assert calls[name]["schedule.sim_sync_s"] == 0
    assert calls["replay_saturated"]["batch.queries_per_wave"] > 5 * calls["replay_underload"]["batch.queries_per_wave"]
    cluster = calls["cluster_failover"]
    assert cluster["router.calls"] > 0 and cluster["router.failovers"] > 0
    assert cluster["faults.checkpoint_calls"] > 0 and cluster["service.preemptions"] > 0
    assert cluster["cache.calls"] > 0 and cluster["schedule.sim_sync_s"] > 0
    assert cluster["cluster.alive_hosts_end"] == 3


def test_probes_are_fully_removed():
    from repro.core.backends.numpy_backend import NumpyBackend

    targets = [pair for probe in probes.PROBES for pair in probes._resolve(probe.target)]
    assert len(targets) >= len(probes.PROBES)
    before = [vars(owner)[attr] for owner, attr in targets]
    recorder = probes.Recorder()
    remove = probes.install(recorder)
    assert recorder.missing == []
    assert all(vars(owner)[attr] is not raw for (owner, attr), raw in zip(targets, before))
    assert isinstance(vars(NumpyBackend)["push_and_activate"], staticmethod)
    remove()
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(targets, before))


def test_a_vanished_target_is_counted_not_raised():
    assert probes._resolve("repro.core.engine:HyTGraphEngine.no_such_method") == []
    assert probes._resolve("repro.no_such_module:Thing.method") == []


def test_compare_agrees_on_one_commit_and_fails_on_a_simulated_change(quick_runs, tmp_path, capsys):
    def payload(hashseed):
        return {
            "seed": 7, "quick": True,
            "workloads": {
                name: {"end_to_end": quick_runs[name, 0, hashseed], "per_layer": quick_runs[name, 1, hashseed]}
                for name in NAMES
            },
        }

    base, same = payload("0"), copy.deepcopy(payload("123"))
    # Quick passes last ~100 ms, so host time is noise here; the agreement
    # under test is the exact one.
    for name in NAMES:
        for metric in ("setup_s", "host_us_per_query", "peak_rss_mb"):
            same["workloads"][name]["end_to_end"]["metrics"][metric] = (
                base["workloads"][name]["end_to_end"]["metrics"][metric]
            )
    changed = copy.deepcopy(same)
    changed["workloads"]["replay_saturated"]["end_to_end"]["metrics"]["sim_makespan_s"]["value"] *= 1.01
    paths = []
    for label, content in (("base", base), ("same", same), ("changed", changed)):
        paths.append(tmp_path / ("%s.json" % label))
        paths[-1].write_text(json.dumps(content))
    assert compare.main(paths[0], paths[1], host_only=True) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main(paths[0], paths[2], host_only=False) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main(paths[0], paths[2], host_only=True) == 1
    assert "sim-changed" in capsys.readouterr().out


def test_verdicts():
    assert compare.verdict("host_us_per_query", 100.0, 104.0, 0.02) == "unchanged"
    assert compare.verdict("host_us_per_query", 100.0, 104.0, 0.20) == "unresolved"
    assert compare.verdict("host_us_per_query", 100.0, 130.0, 0.05) == "regressed"
    assert compare.verdict("host_us_per_query", 100.0, 70.0, 0.05) == "improved"
    assert compare.verdict("host_us_per_query", 100.0, 115.0, 0.20) == "unresolved"
    assert compare.verdict("sim_sla_attainment", 0.90, 0.85, 0.0) == "regressed"
    assert compare.verdict("sim_speedup_vs_baselines", 0.0, 0.0, 0.0) == "n/a"
    assert compare.verdict("failed_fraction", 0.0, 0.01, 0.0) == "regressed"


def test_exits_nonzero_where_the_program_is_missing(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layers", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--workload", "solo_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
