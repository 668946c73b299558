"""The CI gates themselves: their baselines exist and they can fail.

The replay gate's reference file was once git-ignored, so the job could
only crash on a missing file.  These tests keep every gate honest from a
clean checkout: each ``--check-against`` path named in the workflow is
tracked by git, a missing reference is a one-line named error, every
gated row fails by name just past its bound and every reference row
fails by name when the run lacks it, the replay gate's ``main`` exits 1
on a tightened reference, the perf gate's tracing row fires under
``--inject-slowdown``, a diverging backend A/B reaches its gate row
instead of raising, its seed baseline really swaps in the seed gather
and prices transfers exactly as the engine does, the numba leg's skip
check still matches the suites' skip reasons, and every bench script is
run by a CI job and listed in README's gate table.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import types
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro.algorithms.cc as cc_module
from repro.algorithms import make_algorithm
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.systems.hytgraph import HyTGraphSystem
from repro.transfer.base import EngineKind

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
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
    # The scripts import their sibling gates.py, as when run from benchmarks/.
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / ("%s.py" % name))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _reference(name):
    return json.loads((BENCHMARKS / name).read_text())


@lru_cache(maxsize=None)
def _gate(name):
    """``(rows(run), base run)`` of one gate: the base passes at its bounds."""
    if name.startswith("replay"):
        bench, reference = _bench_script("bench_replay"), _reference("BENCH_replay_smoke.json")
        if name == "replay bars":
            return bench.bar_rows, reference
        return (lambda run: bench.regression_rows(run, reference, 0.2)), reference
    if name.startswith("cluster"):
        bench, reference = _bench_script("bench_cluster_scaling"), _reference("BENCH_cluster_smoke.json")
        if name == "cluster bars":
            return bench.bar_rows, reference
        return (lambda run: bench.regression_rows(run, reference, 0.2)), reference
    if name == "fault":
        return _bench_script("bench_fault_recovery").ceiling_rows, {"recovery": {"overhead": 0.25}}
    bench, reference = _perf_harness(), _reference("BENCH_perf_smoke.json")
    # The committed reference holds no numba, backend A/B or tracing rows:
    # the base run adds them at their absolute bounds.
    base = copy.deepcopy(reference)
    base["microbench"]["numba"] = {
        op: {"vs_numpy": 2.0} for op in ("push_and_activate_add_dense", "push_and_activate_min_dense")
    }
    base["backend_e2e"] = {"backend": "numba", "speedup": 1.0, "identical_values": True}
    base["tracing"] = {"HyTGraph": {"overhead_ratio": 1.10}}
    if name == "perf bars":
        return bench.bar_rows, base
    return (lambda run: bench.regression_rows(run, reference, 0.25)), base


def _setter(*keys):
    def set_value(run, value):
        for key in keys[:-1]:
            run = run[key]
        run[keys[-1]] = value

    return set_value


def _geomean_setter(system):
    """Scale every end-to-end speedup of ``system`` to the given geomean."""

    def set_value(run, value):
        entries = [systems[system] for systems in run["end_to_end"].values()]
        factor = value / statistics.geometric_mean(entry["speedup"] for entry in entries)
        for entry in entries:
            entry["speedup"] *= factor

    return set_value


def _identical_setter(run, value):
    run["backend_e2e"]["identical_values"] = value == 1.0


def _gated_rows():
    """``(gate, row name, kind, bound, setter)`` of every gated row.

    Each bound is written out here from the committed reference and the
    CI tolerance (0.2 for replay and cluster, 0.25 for perf), or is the
    absolute bar, so a gate whose bound moves fails this table.
    """
    cells = []
    replay = _reference("BENCH_replay_smoke.json")
    phases = [("scale", ("scale",))] + [
        ("regime:%s" % name, ("regimes", "regimes", name)) for name in replay["regimes"]["regimes"]
    ]
    for phase, keys in phases:
        row = replay
        for key in keys + ("classes", "interactive"):
            row = row[key]
        cells.append(("replay", "%s interactive p95" % phase, "ceiling", row["p95_s"] * 1.2,
                      _setter(*keys, "classes", "interactive", "p95_s")))
        cells.append(("replay", "%s SLA attainment" % phase, "floor", row["sla_attainment"] - 0.2,
                      _setter(*keys, "classes", "interactive", "sla_attainment")))
    cluster = _reference("BENCH_cluster_smoke.json")
    for hosts, deployment in cluster["scaling"]["curve"].items():
        cells.append(("cluster", "qps:%s" % hosts, "floor", deployment["queries_per_second"] * 0.8,
                      _setter("scaling", "curve", hosts, "queries_per_second")))
    cells.append(("cluster", "speedup_4x", "floor", cluster["scaling"]["speedup_4x"] - 0.2,
                  _setter("scaling", "speedup_4x")))
    cells.append(("cluster", "loss_overhead", "ceiling", cluster["host_loss"]["makespan_overhead"] + 0.2,
                  _setter("host_loss", "makespan_overhead")))
    cells.append(("replay bars", "preemption interactive p95 improvement", "floor", 1.5,
                  _setter("preemption", "p95_improvement")))
    cells.append(("replay bars", "preemption BULK regression", "ceiling", 1.15,
                  _setter("preemption", "bulk_regression")))
    cells.append(("cluster bars", "speedup_4x bar", "floor", 2.5, _setter("scaling", "speedup_4x")))
    cells.append(("cluster bars", "loss_overhead bar", "ceiling", 0.25,
                  _setter("host_loss", "makespan_overhead")))
    perf = _reference("BENCH_perf_smoke.json")
    for system in ("EMOGI", "HyTGraph", "Subway"):
        geomean = statistics.geometric_mean(
            systems[system]["speedup"] for systems in perf["end_to_end"].values()
        )
        cells.append(("perf", "end-to-end %s speedup geomean" % system, "floor", geomean * 0.75,
                      _geomean_setter(system)))
    labels = {"batch": "batched speedup", "cache": "frontier-aware cache speedup",
              "service": "priority p95 speedup"}
    for section, label in labels.items():
        for system, entry in perf[section].items():
            cells.append(("perf", "%s %s %s" % (section, system, label), "equal", entry["speedup"],
                          _setter(section, system, "speedup")))
    for section, system, bar in (("batch", "HyTGraph", 2.0), ("cache", "ExpTM-F", 1.3),
                                 ("service", "HyTGraph", 1.5)):
        cells.append(("perf bars", "%s %s %s" % (section, system, labels[section]), "floor", bar,
                      _setter(section, system, "speedup")))
    for op in ("push_and_activate_add_dense", "push_and_activate_min_dense"):
        cells.append(("perf", "numba %s vs numpy" % op, "floor", 2.0,
                      _setter("microbench", "numba", op, "vs_numpy")))
    cells.append(("perf", "backend numba PR speedup vs numpy", "floor", 1.0,
                  _setter("backend_e2e", "speedup")))
    cells.append(("perf bars", "backend numba values identical to numpy", "equal", 1.0, _identical_setter))
    cells.append(("perf", "HyTGraph tracing overhead", "ceiling", 1.10,
                  _setter("tracing", "HyTGraph", "overhead_ratio")))
    cells.append(("fault", "recovery overhead", "ceiling", 0.25, _setter("recovery", "overhead")))
    return cells


GATED_ROWS = _gated_rows()


@pytest.mark.parametrize(
    "gate, name, kind, bound, set_value",
    GATED_ROWS,
    ids=["%s: %s" % (gate, name) for gate, name, *_ in GATED_ROWS],
)
def test_a_row_just_past_its_bound_fails_by_name(gate, name, kind, bound, set_value):
    # In process, no bench: the base run passes, the row set just inside
    # its bound passes, and just past it is the gate's one failure.
    rows, base = _gate(gate)
    check = _bench_script("gates").check
    inside, past = {
        "floor": (bound * (1 + 1e-6), bound * (1 - 1e-6)),
        "ceiling": (bound * (1 - 1e-6), bound * (1 + 1e-6)),
        "equal": (bound, bound * (1 + 1e-8)),
    }[kind]
    run = copy.deepcopy(base)
    assert check(gate, rows(run)) == []
    set_value(run, inside)
    assert check(gate, rows(run)) == []
    set_value(run, past)
    failures = check(gate, rows(run))
    assert len(failures) == 1 and failures[0].startswith("%s: " % name), failures
    assert "breaches the %s" % kind in failures[0], failures


#: ``(gate, keys, rows)``: deleting ``keys`` from the base run drops ``rows``.
MISSING_ROWS = [
    ("replay", ("regimes", "regimes", "overload"),
     ["regime:overload interactive p95", "regime:overload SLA attainment"]),
    ("cluster", ("host_loss",), ["loss_overhead"]),
    ("replay bars", ("preemption",),
     ["preemption interactive p95 improvement", "preemption BULK regression"]),
    ("cluster bars", ("host_loss",), ["loss_overhead bar"]),
    ("perf", ("end_to_end", "PR"),
     ["end-to-end PR EMOGI speedup", "end-to-end PR HyTGraph speedup", "end-to-end PR Subway speedup"]),
    ("perf", ("service", "HyTGraph"), ["service HyTGraph priority p95 speedup"]),
    ("perf bars", ("cache", "ExpTM-F"), ["cache ExpTM-F frontier-aware cache speedup"]),
    ("fault", ("recovery",), ["recovery overhead"]),
]


@pytest.mark.parametrize(
    "gate, keys, missing", MISSING_ROWS, ids=["%s: %s" % (gate, "/".join(keys)) for gate, keys, _ in MISSING_ROWS]
)
def test_a_reference_row_missing_from_the_run_fails_by_name(gate, keys, missing):
    rows, base = _gate(gate)
    run = copy.deepcopy(base)
    parent = run
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    assert _bench_script("gates").check(gate, rows(run)) == [
        "%s: row missing from the run" % name for name in missing
    ]


def test_replay_gate_fails_on_a_tightened_reference(tmp_path, monkeypatch, capsys):
    # main() with the phases stubbed out (the run's payload is the
    # committed reference) against a copy whose saturated p95 is cut below
    # the reference's own value over 1.2: exit 1, that row named alone.
    bench = _bench_script("bench_replay")
    committed = _reference("BENCH_replay_smoke.json")
    monkeypatch.setattr(bench, "measure", lambda args: copy.deepcopy(committed))
    tightened = copy.deepcopy(committed)
    tightened["regimes"]["regimes"]["saturated"]["classes"]["interactive"]["p95_s"] /= 1.3
    reference = tmp_path / "tightened.json"
    reference.write_text(json.dumps(tightened))
    monkeypatch.setattr(sys, "argv", [
        "bench_replay.py", "--smoke", "--output", str(tmp_path / "replay.json"),
        "--check-against", str(reference),
    ])
    with pytest.raises(SystemExit) as exit_info:
        bench.main()
    assert exit_info.value.code == 1
    out = capsys.readouterr().out
    assert "GATE FAILURE: regime:saturated interactive p95: " in out
    assert out.count("GATE FAILURE") == 1
    assert json.loads((tmp_path / "replay.json").read_text())["regimes"] == committed["regimes"]


def test_a_reference_of_another_gate_fails_by_its_file_name(tmp_path, monkeypatch, capsys):
    # A reference that yields no row of this gate would otherwise pass.
    bench = _bench_script("bench_replay")
    monkeypatch.setattr(bench, "measure", lambda args: _reference("BENCH_replay_smoke.json"))
    cluster = BENCHMARKS / "BENCH_cluster_smoke.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_replay.py", "--output", str(tmp_path / "replay.json"), "--check-against", str(cluster),
    ])
    with pytest.raises(SystemExit) as exit_info:
        bench.main()
    assert exit_info.value.code == 1
    assert "GATE FAILURE: %s holds no row this gate compares\n" % cluster in capsys.readouterr().out


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
    # engine prices a block of rows' tasks as columns.  They must agree bit
    # for bit on every task HyTGraph plans, or the gate's "vs seed" rows
    # would time different accounting.  The two programs plan
    # multi-partition tasks of all three engines whose partitions round to
    # different TLP counts alone than together, so an oracle pricing a task
    # as one total fails.
    bench = _perf_harness()
    graph = uniform_random_graph(6000, 36_000, seed=1, weighted=True)
    system = HyTGraphSystem(graph, num_partitions=8, max_iterations=10)
    live = system.engine._plan
    planned = []

    def recording(sessions):
        before = [session.pending.copy() for session in sessions]
        plans = live(sessions)
        planned.extend(zip(before, plans))
        return plans

    monkeypatch.setattr(system.engine, "_plan", recording)
    system.run(make_algorithm("sssp"), source=0)
    system.run(make_algorithm("pr"))
    bounds = system.partitioning.vertex_boundaries
    multi_partition = set()
    for pending, plan in planned:
        moved = 0
        for task in (task for tasks in plan.device_tasks for task in tasks):
            name = task.name
            if len(name.partition_indices) > 1:
                multi_partition.add(name.engine)
            active = np.concatenate(
                [np.flatnonzero(pending[bounds[index] : bounds[index + 1]]) + bounds[index] for index in name.partition_indices]
            )
            seed_bytes, *seed_prices = bench._seed_account_transfer(
                system, bench._SeedTask(name.engine, name.partition_indices, np.sort(active))
            )
            assert seed_prices == [task.transfer_time, task.cpu_time, task.overlapped_transfer], name.label
            moved += seed_bytes
        assert moved == plan.stats.transfer_bytes
    assert multi_partition == {EngineKind.EXP_FILTER, EngineKind.EXP_COMPACTION, EngineKind.IMP_ZERO_COPY}


def _pricing_names():
    """Every callable the simulator prices with: the PCIe and kernel models,
    the transfer package and the execution context's ``*_prices``."""
    import repro.sim.kernel
    import repro.sim.pcie
    import repro.transfer.base
    import repro.transfer.unified_memory
    from repro.runtime.context import ExecutionContext

    names = {name for name in vars(ExecutionContext) if name.endswith("_prices")}
    for module in (repro.sim.pcie, repro.sim.kernel, repro.transfer.base, repro.transfer.unified_memory):
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            names.add(name)
            if isinstance(value, type):
                names.update(attr for attr in vars(value) if not attr.startswith("_"))
    return names


def test_seed_oracle_prices_without_the_simulator():
    # The "vs seed" rows and the seed-transfer gate above compare the live
    # pricing with the harness's own: a seed function that called the
    # simulator's pricing would compare that code with itself.
    forbidden = _pricing_names()
    assert {"PCIeModel", "KernelModel", "kernel_times", "zero_copy_rtt", "transfer_task",
            "compaction_prices", "zero_copy_prices"} <= forbidden
    tree = ast.parse((ROOT / "benchmarks" / "bench_perf_hotpaths.py").read_text())
    seeds = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_seed_")
    ]
    assert {"_seed_account_transfer", "_seed_run_iteration", "_seed_estimate"} <= {node.name for node in seeds}
    calls = []
    for function in seeds:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name in forbidden:
                    calls.append("%s calls %s (line %d)" % (function.name, name, node.lineno))
    assert calls == []


def test_backend_divergence_fails_the_backend_row_by_name(monkeypatch):
    # run_backend_e2e in process with the backend switch and the system
    # stubbed: the second run's values differ from the first in one bit.
    # The entry comes back (no raise), and its row, held on every run
    # whether or not a reference is given, is the one failure.
    bench = _perf_harness()
    active = []

    @contextlib.contextmanager
    def stub_use_backend(name):
        active.append(name)
        yield name

    class StubSystem:
        def __init__(self, graph):
            self.backend = active[-1]

        def run(self, program):
            values = np.array([0.25, 0.5, 1.0])
            if self.backend != "numpy":
                values.view(np.int64)[1] ^= 1
            return types.SimpleNamespace(values=values)

    monkeypatch.setattr(bench, "use_backend", stub_use_backend)
    monkeypatch.setattr(bench, "HyTGraphSystem", StubSystem)
    monkeypatch.setattr(bench, "BACKEND_E2E_VERTICES", 64)
    monkeypatch.setattr(bench, "BACKEND_E2E_EDGES", 256)
    entry = bench.run_backend_e2e("stub", 1)
    assert active == ["numpy", "stub"] and entry["identical_values"] is False
    reference = json.loads((ROOT / "benchmarks" / "BENCH_perf_smoke.json").read_text())
    failures = bench.gates.check("perf gate", bench.bar_rows(dict(reference, backend_e2e=entry)))
    assert len(failures) == 1, failures
    assert failures[0].startswith("backend stub values identical to numpy: "), failures


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
    rows = bench.regression_rows(dict(reference, tracing=tracing), reference, 0.25)
    failures = bench.gates.check("perf gate", rows)
    assert len(failures) == 1 and "tracing overhead" in failures[0], failures
