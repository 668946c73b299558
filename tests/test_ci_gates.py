"""The CI gates themselves: their baselines exist and they can fail.

The replay gate's reference file was once git-ignored, so the job could
only crash on a missing file.  These tests keep every gate honest from a
clean checkout: each ``--check-against`` path named in the workflow is
tracked by git, a missing reference is a one-line named error, the
replay and perf gates exit 1 under their own ``--inject-*`` knobs, the
perf gate's seed baseline really swaps in the seed gather and prices
transfers exactly as the engine does, its simulated serving rows fail on
any drift from the reference or below their bars, the numba leg's skip
check still matches the suites' skip reasons, and every bench script is
run by a CI job and listed in README's gate table.
"""

from __future__ import annotations

import ast
import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.algorithms.cc as cc_module
from repro.algorithms import make_algorithm
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.systems.hytgraph import HyTGraphSystem
from repro.transfer.base import EngineKind

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


def _skip_reasons(path: Path) -> list[str]:
    """The literal text of every ``pytest.skip(...)`` reason in a test module."""
    reasons = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "skip"
            and node.args
        ):
            reason = node.args[0]
            parts = reason.values if isinstance(reason, ast.JoinedStr) else [reason]
            reasons.append("".join(
                part.value for part in parts
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            ))
    return reasons


def test_numba_leg_grep_matches_the_backend_skip_reasons():
    # The numba leg fails when a backend suite skips for a missing
    # backend, by grepping the -rs output.  Rewording either side would
    # silently disable that gate, so the two strings are pinned together.
    grep = re.search(r'grep -q "([^"]+)" numba_suites\.log', WORKFLOW.read_text())
    assert grep is not None, "the numba leg no longer greps its suite log"
    for suite in (
        "test_kernels.py", "test_runtime_equivalence.py", "test_fused_waves.py", "test_system_stats.py",
    ):
        assert suite in WORKFLOW.read_text()
        reasons = _skip_reasons(ROOT / "tests" / suite)
        assert reasons, "%s has no backend skip" % suite
        for reason in reasons:
            assert grep.group(1) in reason, (suite, reason)


def _workflow_jobs() -> dict[str, str]:
    """Each CI job's name mapped to the text of its block."""
    jobs: dict[str, str] = {}
    name = None
    for line in WORKFLOW.read_text().split("\njobs:\n", 1)[1].splitlines():
        match = re.fullmatch(r"  ([\w-]+):", line)
        if match:
            name = match.group(1)
            jobs[name] = ""
        elif name is not None:
            jobs[name] += line + "\n"
    return jobs


def _readme_gate_rows() -> list[tuple[list[str], list[str]]]:
    """``(files, CI jobs)`` of each row of README's "Which file gates what"."""
    section = (ROOT / "README.md").read_text().split("### Which file gates what\n", 1)[1]
    table = section.split("\n| --- |", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[1:]:
        cells = line.split(" | ")
        rows.append((re.findall(r"`([^`]+)`", cells[0]), re.findall(r"`([^`]+)`", cells[1])))
    return rows


def test_every_bench_is_run_by_ci_and_listed_in_the_readme_gate_table():
    jobs = _workflow_jobs()
    listed = set()
    for files, row_jobs in _readme_gate_rows():
        assert row_jobs, "README gate row %s names no CI job" % files
        for job in row_jobs:
            assert job in jobs, "README gate table names an unknown CI job %r" % job
            for path in files:
                if path.startswith("benchmarks/bench_"):
                    assert path in jobs[job], "CI job %r does not run %s" % (job, path)
        listed.update(files)
    benches = sorted("benchmarks/%s" % path.name for path in (ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    for path in benches:
        assert path in listed, "%s is missing from README's gate table" % path
        assert any(path in text for text in jobs.values()), "no CI job runs %s" % path


def test_paper_report_digests_cover_every_paper_bench_report():
    # The paper-benches job checks the reports against committed digests;
    # a report missing from the list would be written but never compared.
    workflow = WORKFLOW.read_text()
    assert "sha256sum --check --quiet benchmarks/paper_reports.sha256" in workflow
    benches = set(re.findall(r"benchmarks/(bench_(?:table|fig|ablation)\w*\.py)", workflow))
    assert len(benches) == 10, benches
    written = set()
    for bench in benches:
        source = (ROOT / "benchmarks" / bench).read_text()
        written.update(re.findall(r'report_writer\(\s*"([^"]+)"', source))
    digests = (ROOT / "benchmarks" / "paper_reports.sha256").read_text().splitlines()
    pinned = {re.fullmatch(r"[0-9a-f]{64}  benchmarks/results/(\w+)\.txt", line).group(1) for line in digests}
    assert pinned == written and len(pinned) == 19


def _bench_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / ("%s.py" % name))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_replay_gate_fires_under_injected_latency(tmp_path, monkeypatch, capsys):
    # In process, with the 10^4-query scale phase cut down (it dominates
    # the smoke's wall time) and the preemption phase stubbed (the gate
    # compares none of its rows); the three regime rows still compare
    # like for like.
    bench = _bench_script("bench_replay")
    monkeypatch.setattr(bench, "run_preemption", lambda *args: {})
    monkeypatch.setattr(sys, "argv", [
        "bench_replay.py", "--smoke", "--scale-queries", "200",
        "--inject-latency", "2.0", "--output", str(tmp_path / "replay.json"),
        "--check-against", str(ROOT / "benchmarks" / "BENCH_replay_smoke.json"),
    ])
    with pytest.raises(SystemExit) as exit_info:
        bench.main()
    assert exit_info.value.code == 1
    assert "GATE FAILURE: regime:saturated: interactive p95" in capsys.readouterr().out


def _perf_harness():
    return _bench_script("bench_perf_hotpaths")


def test_seed_baseline_pushes_through_the_seed_gather(monkeypatch):
    # Every "vs seed" row of the perf gate times the seed gather only if
    # seed_baseline() swaps the name the programs actually call.
    bench = _perf_harness()
    calls = []
    seed_gather = bench._seed_gather_edge_indices

    def counting_gather(graph, vertices):
        calls.append(vertices)
        return seed_gather(graph, vertices)

    monkeypatch.setattr(bench, "_seed_gather_edge_indices", counting_gather)
    graph = rmat_graph(64, 400, seed=3, weighted=True)
    frontier = np.arange(graph.num_vertices)
    for name in ("sssp", "bfs", "cc", "pr", "php"):
        program = make_algorithm(name)
        state = program.create_state(graph, 0 if program.needs_source else None)
        program.process(graph, state, frontier)
        assert not calls, "%s gathered through the seed outside seed_baseline()" % name
        with bench.seed_baseline():
            program.process(graph, state, frontier)
        assert calls, "%s pushed without the seed gather inside seed_baseline()" % name
        calls.clear()


def test_seed_baseline_refuses_a_missing_swap_target(monkeypatch):
    bench = _perf_harness()
    run = HyTGraphSystem.run
    monkeypatch.delattr(cc_module, "out_edges")
    with pytest.raises(AttributeError, match="defines no 'out_edges'"):
        with bench.seed_baseline():
            pass
    assert HyTGraphSystem.run is run  # the swaps made before the miss are undone


def test_seed_transfer_oracle_prices_every_planned_task_like_the_engine(monkeypatch):
    # The seed baseline prices each partition of a task alone; the live
    # engine prices the task in one call.  They must agree bit for bit on
    # every task HyTGraph plans, or the gate's "vs seed" rows would time
    # different accounting.  The two programs plan multi-partition tasks
    # of all three engines whose partitions round to different TLP counts
    # alone than together, so an oracle pricing a task as one total fails.
    bench = _perf_harness()
    graph = uniform_random_graph(6000, 36_000, seed=1, weighted=True)
    system = HyTGraphSystem(graph, num_partitions=8, max_iterations=10)
    live = system.engine._account_task_transfer
    priced = []

    def recording(task):
        priced.append((task, live(task)))
        return priced[-1][1]

    monkeypatch.setattr(system.engine, "_account_task_transfer", recording)
    system.run(make_algorithm("sssp"), source=0)
    system.run(make_algorithm("pr"))
    multi_partition = {task.engine for task, _ in priced if len(task.partition_indices) > 1}
    assert multi_partition == {EngineKind.EXP_FILTER, EngineKind.EXP_COMPACTION, EngineKind.IMP_ZERO_COPY}
    for task, (moved, transfer_time, cpu_time, overlapped) in priced:
        seed = bench._seed_account_transfer(system, task)
        assert (seed.bytes_transferred, seed.transfer_time, seed.cpu_time, seed.overlapped) == (
            moved, transfer_time, cpu_time, overlapped
        ), task.label


def test_tracing_overhead_gate_fires_under_injected_slowdown(monkeypatch):
    # In process and on a tiny serve over 3 rounds (the smoke's 60 take
    # ~13 s; the injected 2x slowdown dominates round noise):
    # --inject-slowdown reaches the traced side, and an over-ceiling row
    # alone fails a payload that otherwise equals its reference.
    bench = _perf_harness()
    monkeypatch.setattr(bench, "TRACING_MIN_ROUNDS", 3)
    tracing = bench.run_tracing_bench(300, 2000, 2, 1, repeats=1, inject_slowdown=2.0)
    assert tracing["HyTGraph"]["overhead_ratio"] > bench.TRACING_OVERHEAD_CEILING
    reference = json.loads((ROOT / "benchmarks" / "BENCH_perf_smoke.json").read_text())
    failures = bench.check_regressions(dict(reference, tracing=tracing), reference, 0.25)
    assert len(failures) == 1 and "tracing overhead" in failures[0], failures


def test_a_drifted_serving_row_fails_the_perf_gate():
    # The serving speedups are simulated, so the smoke run reproduces the
    # reference exactly: a 1% drift is a behaviour change, well inside the
    # 25% wall-clock tolerance, and must fail by name.
    bench = _perf_harness()
    reference = json.loads((ROOT / "benchmarks" / "BENCH_perf_smoke.json").read_text())
    assert bench.check_regressions(reference, reference, 0.25) == []
    drifted = copy.deepcopy(reference)
    drifted["cache"]["ExpTM-F"]["speedup"] *= 0.99
    failures = bench.check_regressions(drifted, reference, 0.25)
    assert len(failures) == 1, failures
    assert failures[0].startswith("cache ExpTM-F: frontier-aware cache speedup"), failures
    del drifted["service"]["HyTGraph"]
    assert "service HyTGraph: row missing from the run" in bench.check_regressions(
        drifted, reference, 0.25
    )


def test_a_serving_row_below_its_bar_fails():
    bench = _perf_harness()
    reference = json.loads((ROOT / "benchmarks" / "BENCH_perf_smoke.json").read_text())
    assert bench.check_bars(reference) == []
    slow = copy.deepcopy(reference)
    slow["batch"]["HyTGraph"]["speedup"] = 1.9
    assert bench.check_bars(slow) == [
        "batch HyTGraph: batched speedup 1.90x fell below the 2.0x bar"
    ]
