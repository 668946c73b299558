"""The pluggable kernel-backend layer: protocol, selection and exactness.

Three concerns, in order:

* **Selection** — the shipped backends, ``auto`` resolution, the
  ``REPRO_BACKEND`` environment override, and the error contract: an
  unknown or uninstalled backend must fail up front with a
  :class:`BackendError` whose message names the installed backends,
  wherever the name enters the stack (``get_backend``, the CLI).
* **Exactness** — every installed backend's raw kernels must be bitwise
  equal to the ``ufunc.at`` references on the randomized batch grid
  (the runtime-level equivalence lives in ``test_runtime_equivalence``,
  which replays the 60-case fixture grid per backend).
* **Plumbing** — the active backend is process-wide and scoped
  (``use_backend`` restores), every system's kernels dispatch to it,
  results record which backend produced them, and the CLI's
  ``--backend`` scopes exactly one command.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    BackendError,
    KernelBackend,
    active_backend,
    available_backends,
    get_backend,
    resolve_backend,
    use_backend,
)
from repro.graph.generators import rmat_graph
from repro.systems import SYSTEMS, make_system
from tests.test_kernels import CountingBackend, bits, random_batches

NUMBA_INSTALLED = "numba" in available_backends()


def installed_backends():
    return [get_backend(name) for name in available_backends()]


class TestSelection:
    def test_numpy_is_always_available(self):
        assert available_backends() == (("numpy", "numba") if NUMBA_INSTALLED else ("numpy",))

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_names_are_normalised(self):
        assert get_backend(" NumPy ") is get_backend("numpy")

    def test_every_installed_backend_satisfies_the_protocol(self):
        for backend in installed_backends():
            assert isinstance(backend, KernelBackend)
            assert backend.name in available_backends()

    def test_unknown_backend_error_names_installed_backends(self):
        with pytest.raises(BackendError, match="unknown backend 'cuda-graphs'") as excinfo:
            get_backend("cuda-graphs")
        assert "installed backends: numpy" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.skipif(NUMBA_INSTALLED, reason="numba is installed here")
    def test_unavailable_backend_error_names_installed_backends(self):
        with pytest.raises(BackendError, match="'numba' is not available.*installed backends: numpy"):
            get_backend("numba")

    def test_auto_resolves_to_fastest_installed(self):
        expected = "numba" if NUMBA_INSTALLED else "numpy"
        assert resolve_backend("auto").name == expected

    def test_default_resolution_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_env_override_applies_when_no_explicit_backend(self, monkeypatch):
        # A name only the environment carries fails resolution, so the
        # variable is read — and a bad one fails loudly.
        monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
        with pytest.raises(BackendError, match="installed backends: numpy"):
            resolve_backend(None)
        # Explicit names still win over the environment.
        assert resolve_backend("numpy").name == "numpy"

    def test_instances_pass_through_resolution(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_use_backend_scopes_and_restores(self):
        before = active_backend()
        pinned = CountingBackend()
        with use_backend(pinned) as backend:
            assert backend is pinned
            assert active_backend() is pinned
        assert active_backend() is before

    def test_use_backend_restores_on_error(self):
        before = active_backend()
        with pytest.raises(RuntimeError):
            with use_backend(CountingBackend()):
                raise RuntimeError("boom")
        assert active_backend() is before

    def test_warmup_is_idempotent(self):
        for backend in installed_backends():
            backend.warmup()
            backend.warmup()


class TestBackendExactness:
    """Raw kernels of every installed backend vs the ufunc.at references."""

    def test_scatter_kernels_match_ufunc_at_bitwise(self):
        for backend in installed_backends():
            for seed, (op, reference) in enumerate(
                [
                    (backend.scatter_add, np.add.at),
                    (backend.scatter_min, np.minimum.at),
                    (backend.scatter_max, np.maximum.at),
                ]
            ):
                for target, destinations, values in random_batches(seed=40 + seed, trials=60):
                    expected = target.copy()
                    reference(expected, destinations, values)
                    actual = op(target.copy(), destinations, values)
                    np.testing.assert_array_equal(
                        bits(expected), bits(actual), err_msg=backend.name
                    )

    @pytest.mark.parametrize("combine", ["min", "max", "add"])
    def test_push_and_activate_matches_seed_formulation(self, combine):
        threshold = 0.25 if combine == "add" else None
        for backend in installed_backends():
            for target, destinations, values in random_batches(seed=50, trials=60):
                destinations = np.asarray(destinations, dtype=np.int64)
                expected_state = target.copy()
                if combine == "add":
                    np.add.at(expected_state, destinations, values)
                    active = expected_state[destinations] > threshold
                    expected_ids = np.unique(destinations[active])
                else:
                    previous = expected_state[destinations].copy()
                    ufunc = np.minimum if combine == "min" else np.maximum
                    ufunc.at(expected_state, destinations, values)
                    changed = (
                        expected_state[destinations] < previous
                        if combine == "min"
                        else expected_state[destinations] > previous
                    )
                    expected_ids = np.unique(destinations[changed])
                actual_state = target.copy()
                kwargs = {"threshold": threshold} if combine == "add" else {}
                actual_ids = backend.push_and_activate(
                    actual_state, destinations, values, combine=combine, **kwargs
                )
                np.testing.assert_array_equal(
                    bits(expected_state), bits(actual_state), err_msg=backend.name
                )
                np.testing.assert_array_equal(expected_ids, actual_ids, err_msg=backend.name)
                assert actual_ids.dtype == np.int64, backend.name

    def test_push_and_activate_error_contract(self):
        for backend in installed_backends():
            with pytest.raises(ValueError, match="threshold"):
                backend.push_and_activate(
                    np.ones(4), np.array([1]), np.array([1.0]), combine="add"
                )
            with pytest.raises(ValueError, match="combine"):
                backend.push_and_activate(
                    np.ones(4), np.array([1]), np.array([1.0]), combine="sum"
                )

    def test_empty_batches_are_no_ops(self):
        empty_ids = np.zeros(0, dtype=np.int64)
        for backend in installed_backends():
            target = np.array([1.0, 2.0, 3.0])
            for op in (backend.scatter_add, backend.scatter_min, backend.scatter_max):
                np.testing.assert_array_equal(op(target.copy(), empty_ids, np.zeros(0)), target)
            out = backend.push_and_activate(target.copy(), empty_ids, np.zeros(0), combine="min")
            assert out.size == 0 and out.dtype == np.int64


class TestRuntimePlumbing:
    def test_only_the_selection_functions_take_a_backend(self):
        """No system, context or config can pin a backend of its own."""
        import ast
        from pathlib import Path

        import repro

        takers = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    if any("backend" in arg.arg for arg in args):
                        takers.append(node.name)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if "backend" in node.target.id:
                        takers.append(node.target.id)
        assert sorted(takers) == ["resolve_backend", "use_backend"]

    def graph(self):
        return rmat_graph(200, 1600, seed=7, weighted=True)

    def test_results_record_their_backend(self):
        from repro.algorithms.pagerank import DeltaPageRank

        system = make_system("hytgraph", self.graph())
        with use_backend("numpy"):
            result = system.run(DeltaPageRank())
        assert result.extra["backend"] == "numpy"

    @pytest.mark.parametrize("system_name", sorted(SYSTEMS))
    def test_ambient_backend_flows_into_unpinned_sessions(self, system_name):
        """The active backend must run the kernels, not just label the result."""
        from repro.algorithms.sssp import SSSP

        system = make_system(system_name, rmat_graph(500, 4000, seed=7, weighted=True))
        ambient = CountingBackend()
        with use_backend(ambient):
            result = system.run(SSSP(), source=0)
        assert result.extra["backend"] == "counting"
        assert ambient.calls, "%s dispatched no kernel to the active backend" % system_name

    def test_active_backend_runs_bitwise_equal_to_reference(self):
        from repro.algorithms.pagerank import DeltaPageRank

        system = make_system("hytgraph", self.graph())
        with use_backend("numpy"):
            reference = system.run(DeltaPageRank())
        for name in available_backends():
            with use_backend(name):
                result = system.run(DeltaPageRank())
            np.testing.assert_array_equal(
                bits(reference.values), bits(result.values), err_msg=name
            )
            assert result.extra["backend"] == name

    def test_batch_results_record_their_backend(self):
        from repro.bench.workloads import build_workload
        from repro.service import GraphService, QueryRequest, ServiceConfig

        workload = build_workload("SK", "sssp", scale=0.05)
        service = GraphService(
            ServiceConfig(system="hytgraph"), graph=workload.graph, hardware=workload.config
        )
        service.submit(QueryRequest(algorithm="sssp", source=0))
        service.submit(QueryRequest(algorithm="sssp", source=1))
        with use_backend("numpy"):
            (batch,) = service.drain()
        assert batch.extra["backend"] == "numpy"

    @pytest.mark.parametrize("system_name", sorted(SYSTEMS))
    def test_batches_run_on_the_active_backend(self, system_name):
        """A batch reads the backend active when it drains, for every system."""
        from repro.bench.workloads import build_workload
        from repro.service import GraphService, QueryRequest, ServiceConfig

        workload = build_workload("SK", "sssp", scale=0.05)
        service = GraphService(
            ServiceConfig(system=system_name), graph=workload.graph, hardware=workload.config
        )
        service.submit(QueryRequest(algorithm="sssp", source=0))
        service.submit(QueryRequest(algorithm="sssp", source=1))
        ambient = CountingBackend()
        with use_backend(ambient):
            (batch,) = service.drain()
        assert batch.extra["backend"] == "counting"
        assert ambient.calls, "%s batched no kernel onto the active backend" % system_name


class TestCli:
    def test_cli_unknown_backend_fails_naming_installed(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dataset", "SK", "--scale", "0.05", "--backend", "bogus"])
        assert "installed backends" in str(excinfo.value)
        assert "numpy" in str(excinfo.value)

    @pytest.mark.parametrize("command", ["run", "compare", "batch", "serve"])
    def test_cli_unknown_backend_exits_before_building_a_workload(self, command, monkeypatch):
        import repro.cli

        def refuse(*args, **kwargs):
            raise AssertionError("a workload was built before --backend was resolved")

        monkeypatch.setattr(repro.cli, "build_workload", refuse)
        with pytest.raises(SystemExit, match="installed backends"):
            repro.cli.main([command, "--scale", "0.05", "--backend", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["run", "--algorithm", "bfs"],
        ["compare", "--algorithm", "bfs", "--systems", "emogi", "hytgraph"],
        ["batch", "--algorithm", "sssp", "--num-queries", "2"],
        ["serve", "--point-lookups", "2", "--analytical", "1"],
    ], ids=["run", "compare", "batch", "serve"])
    def test_cli_backend_scopes_only_its_command(self, argv, capsys):
        from repro.cli import main

        with use_backend(CountingBackend()) as ambient:
            assert main(argv + ["--dataset", "SK", "--scale", "0.05", "--backend", "numpy"]) == 0
            assert active_backend() is ambient
        assert ambient.calls == 0

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_cli_backend_runs_the_command_on_the_named_backend(self, command, monkeypatch, capsys):
        import repro.cli

        named = CountingBackend()
        resolved = []

        def resolve(name):
            resolved.append(name)
            return named

        monkeypatch.setattr(repro.cli, "resolve_backend", resolve)
        extra = ["--algorithm", "bfs"] if command == "run" else ["--point-lookups", "2"]
        assert repro.cli.main(
            [command, "--dataset", "SK", "--scale", "0.05", "--backend", "counting"] + extra
        ) == 0
        assert resolved == ["counting"]
        assert named.calls, "%s ran no kernel on the backend named by --backend" % command

    def test_cli_run_verbose_prints_backend(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--dataset", "SK", "--algorithm", "bfs", "--scale", "0.05",
            "--backend", "numpy", "--verbose",
        ]) == 0
        assert "compute backend: numpy" in capsys.readouterr().out

    def test_cli_serve_prints_backend(self, capsys):
        from repro.cli import main

        # serve without --backend reports the ambient backend (which the
        # REPRO_BACKEND environment may set, e.g. in the numba CI leg).
        expected = active_backend().name
        assert main([
            "serve", "--dataset", "SK", "--scale", "0.05",
            "--point-lookups", "2", "--analytical", "1",
        ]) == 0
        assert "compute backend: %s" % expected in capsys.readouterr().out
