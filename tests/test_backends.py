"""The pluggable kernel-backend layer: protocol, selection and exactness.

Three concerns, in order:

* **Selection** — registry contents, ``auto`` resolution, the
  ``REPRO_BACKEND`` environment override, and the error contract: an
  unknown or uninstalled backend must fail up front with a message that
  names the installed backends, wherever the name enters the stack
  (registry, ``ExecutionContext``, ``ServiceConfig``, CLI).
* **Exactness** — every installed backend's raw kernels must be bitwise
  equal to the ``ufunc.at`` references on the randomized batch grid
  (the runtime-level equivalence lives in ``test_runtime_equivalence``,
  which replays the 60-case fixture grid per backend).
* **Plumbing** — the active backend is scoped (``use_backend`` restores),
  results record which backend produced them, and a context-pinned
  backend overrides the ambient one for that session only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import backends
from repro.core.backends import (
    BackendUnavailableError,
    KernelBackend,
    UnknownBackendError,
    active_backend,
    available_backends,
    get_backend,
    known_backends,
    resolve_backend,
    resolve_backend_name,
    use_backend,
)
from repro.graph.generators import rmat_graph
from repro.service.config import ServiceConfig
from repro.systems import SYSTEMS, make_system
from tests.test_kernels import CountingBackend, bits, random_batches

NUMBA_INSTALLED = "numba" in available_backends()


def installed_backends():
    return [get_backend(name) for name in available_backends()]


class TestRegistryAndSelection:
    def test_builtin_backends_are_registered(self):
        assert known_backends() == ("numpy", "numba")

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_names_are_normalised(self):
        assert get_backend(" NumPy ") is get_backend("numpy")

    def test_every_installed_backend_satisfies_the_protocol(self):
        for backend in installed_backends():
            assert isinstance(backend, KernelBackend)
            assert backend.name in available_backends()

    def test_unknown_backend_error_names_installed_backends(self):
        with pytest.raises(UnknownBackendError, match="numpy"):
            get_backend("cuda-graphs")
        with pytest.raises(UnknownBackendError, match="installed backends"):
            get_backend("cuda-graphs")

    @pytest.mark.skipif(NUMBA_INSTALLED, reason="numba is installed here")
    def test_unavailable_backend_error_names_installed_backends(self):
        with pytest.raises(BackendUnavailableError, match="installed backends.*numpy"):
            get_backend("numba")

    def test_auto_resolves_to_fastest_installed(self):
        expected = "numba" if NUMBA_INSTALLED else "numpy"
        assert resolve_backend_name("auto") == expected

    def test_default_resolution_without_env(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_env_override_applies_when_no_explicit_backend(self, monkeypatch):
        # A name only the environment carries fails resolution, so the
        # variable is read — and a bad one fails loudly.
        monkeypatch.setenv(backends.ENV_VAR, "no-such-backend")
        with pytest.raises(UnknownBackendError, match="installed backends: numpy"):
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
    def graph(self):
        return rmat_graph(200, 1600, seed=7, weighted=True)

    def test_results_record_their_backend(self):
        from repro.algorithms.pagerank import DeltaPageRank

        system = make_system("hytgraph", self.graph(), backend="numpy")
        result = system.run(DeltaPageRank())
        assert result.extra["backend"] == "numpy"

    def test_context_pinned_backend_overrides_ambient(self):
        from repro.algorithms.sssp import SSSP

        system = make_system("emogi", self.graph(), backend="numpy")
        ambient = CountingBackend()
        with use_backend(ambient):
            result = system.run(SSSP(), source=0)
        assert result.extra["backend"] == "numpy"
        assert ambient.calls == 0

    def test_ambient_backend_flows_into_unpinned_sessions(self):
        from repro.algorithms.sssp import SSSP

        system = make_system("emogi", self.graph())
        ambient = CountingBackend()
        with use_backend(ambient):
            result = system.run(SSSP(), source=0)
        assert result.extra["backend"] == "counting"
        assert ambient.calls > 0

    def test_pinned_backend_runs_bitwise_equal_to_reference(self):
        from repro.algorithms.pagerank import DeltaPageRank

        graph = self.graph()
        reference = make_system("hytgraph", graph, backend="numpy").run(DeltaPageRank())
        for name in available_backends():
            result = make_system("hytgraph", graph, backend=name).run(DeltaPageRank())
            np.testing.assert_array_equal(
                bits(reference.values), bits(result.values), err_msg=name
            )
            assert result.extra["backend"] == name

    @pytest.mark.parametrize("system_name", sorted(SYSTEMS) + ["engine"])
    def test_solo_run_dispatches_to_the_pinned_backend(self, system_name):
        """A pinned backend must run the kernels, not just label the result.

        The ambient backend stays numpy; only the session is pinned.
        """
        from repro.algorithms.sssp import SSSP
        from repro.core.engine import HyTGraphEngine

        graph = rmat_graph(500, 4000, seed=7, weighted=True)
        pinned = CountingBackend()
        if system_name == "engine":
            system = HyTGraphEngine(graph, backend=pinned)
        else:
            system = make_system(system_name, graph, backend=pinned)
        assert system.context.backend is pinned
        with use_backend("numpy"):
            result = system.run(SSSP(), 0)
        assert result.extra["backend"] == "counting"
        assert pinned.calls, "%s dispatched no kernel to its pinned backend" % system_name

    def test_unknown_backend_fails_system_construction(self):
        with pytest.raises(UnknownBackendError, match="installed backends"):
            make_system("hytgraph", self.graph(), backend="no-such-backend")

    @pytest.mark.skipif(NUMBA_INSTALLED, reason="numba is installed here")
    def test_unavailable_backend_fails_system_construction(self):
        with pytest.raises(BackendUnavailableError, match="numba"):
            make_system("subway", self.graph(), backend="numba")

    def test_batch_results_record_their_backend(self):
        from repro.bench.workloads import build_workload
        from repro.service import GraphService, QueryRequest

        workload = build_workload("SK", "sssp", scale=0.05)
        service = GraphService(
            ServiceConfig(system="hytgraph", backend="numpy"),
            graph=workload.graph, hardware=workload.config,
        )
        service.submit(QueryRequest(algorithm="sssp", source=0))
        service.submit(QueryRequest(algorithm="sssp", source=1))
        (batch,) = service.drain()
        assert batch.extra["backend"] == "numpy"


class TestServiceConfigAndCli:
    def test_config_accepts_known_backends(self):
        for name in ("numpy", "auto"):
            config = ServiceConfig(backend=name)
            assert config.system_kwargs()["backend"] == name

    def test_config_without_backend_passes_no_kwarg(self):
        assert "backend" not in ServiceConfig().system_kwargs()

    def test_config_rejects_unknown_backend_naming_installed(self):
        with pytest.raises(ValueError, match="installed backends"):
            ServiceConfig(backend="cuda-graphs")

    @pytest.mark.skipif(NUMBA_INSTALLED, reason="numba is installed here")
    def test_config_rejects_uninstalled_backend(self):
        with pytest.raises(ValueError, match="numba"):
            ServiceConfig(backend="numba")

    def test_cli_unknown_backend_fails_naming_installed(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dataset", "SK", "--scale", "0.05", "--backend", "bogus"])
        assert "installed backends" in str(excinfo.value)
        assert "numpy" in str(excinfo.value)

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
