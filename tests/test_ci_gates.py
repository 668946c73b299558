"""The CI gates themselves: their baselines exist and they can fail.

The replay gate's reference file was once git-ignored, so the job could
only crash on a missing file.  These tests keep every gate honest from a
clean checkout: each ``--check-against`` path named in the workflow is
tracked by git, a missing reference is a one-line named error, and the
replay and perf gates exit 1 under their own ``--inject-*`` knobs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
GATE_SCRIPTS = ("bench_replay.py", "bench_cluster_scaling.py", "bench_perf_hotpaths.py")


def _run(*args, **kwargs):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        args, cwd=ROOT, env=env, capture_output=True, text=True, **kwargs
    )


def _in_git_checkout() -> bool:
    try:
        return _run("git", "rev-parse", "--is-inside-work-tree").returncode == 0
    except OSError:
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="not a git checkout")
def test_every_ci_gate_baseline_is_tracked():
    references = set(re.findall(r"--check-against\s+(\S+)", WORKFLOW.read_text()))
    assert "benchmarks/BENCH_replay_smoke.json" in references
    for reference in sorted(references):
        tracked = _run("git", "ls-files", "--error-unmatch", reference)
        assert tracked.returncode == 0, "%s is not tracked: %s" % (reference, tracked.stderr)


@pytest.mark.parametrize("script", GATE_SCRIPTS)
def test_missing_reference_is_a_named_error(script, tmp_path):
    missing = tmp_path / "no_such_reference.json"
    result = _run(
        sys.executable, "benchmarks/%s" % script, "--smoke", "--check-against", str(missing)
    )
    assert result.returncode == 1
    assert result.stderr.strip() == (
        "error: --check-against reference %s does not exist" % missing
    )


def test_replay_gate_fires_under_injected_latency(tmp_path):
    # The 10^4-query scale phase is cut down (it dominates the smoke's
    # wall time); the three regime rows still compare like for like.
    result = _run(
        sys.executable, "benchmarks/bench_replay.py", "--smoke", "--scale-queries", "200",
        "--inject-latency", "2.0", "--output", str(tmp_path / "replay.json"),
        "--check-against", "benchmarks/BENCH_replay_smoke.json",
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "GATE FAILURE: regime:saturated: interactive p95" in result.stdout


def test_tracing_overhead_gate_fires_under_injected_slowdown():
    # In process and on a tiny serve (the smoke's 60 rounds take ~13 s):
    # --inject-slowdown reaches the traced side, and an over-ceiling row
    # alone fails a payload that otherwise equals its reference.
    spec = importlib.util.spec_from_file_location(
        "bench_perf_hotpaths", ROOT / "benchmarks" / "bench_perf_hotpaths.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    tracing = bench.run_tracing_bench(300, 2000, 2, 1, repeats=1, inject_slowdown=2.0)
    assert tracing["HyTGraph"]["overhead_ratio"] > bench.TRACING_OVERHEAD_CEILING
    reference = json.loads((ROOT / "benchmarks" / "BENCH_perf_smoke.json").read_text())
    failures = bench.check_regressions(dict(reference, tracing=tracing), reference, 0.25)
    assert len(failures) == 1 and "tracing overhead" in failures[0], failures
