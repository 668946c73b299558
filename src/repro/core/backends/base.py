"""Backend protocol, registry and selection for the kernel layer.

A :class:`KernelBackend` provides the four hot kernel operations —
``scatter_add``, ``scatter_min``, ``scatter_max`` and the fused
``push_and_activate`` every vertex program pushes its updates through.
This module owns the registry of known backends, availability probing
(optional dependencies are import-guarded and only loaded on first use),
and the *active backend* the vertex programs call.

Selection order
---------------
1. An explicit backend — ``ServiceConfig(backend=...)``, the CLI
   ``--backend`` flag, or ``ExecutionContext(backend=...)``.
2. The ``REPRO_BACKEND`` environment variable.
3. The default: ``numpy`` (always available, the bitwise reference).

``auto`` resolves to the fastest installed backend (``numba`` when
importable, otherwise ``numpy``).  Explicit selections also accept a
:class:`KernelBackend` instance, which passes through unregistered.

Every backend must be **bitwise identical** to the numpy reference on the
kernel contract (see :mod:`repro.core.backends.numpy_backend`); the
equivalence suites run the full kernel + runtime grids against each
installed backend to enforce that.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "KernelBackend",
    "BackendError",
    "UnknownBackendError",
    "BackendUnavailableError",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "register_backend",
    "known_backends",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "resolve_backend_name",
    "active_backend",
    "set_active_backend",
    "use_backend",
]

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"

#: The always-available bitwise reference backend.
DEFAULT_BACKEND = "numpy"

#: Preference order for ``auto`` (first available wins).
_AUTO_ORDER = ("numba", "numpy")


@runtime_checkable
class KernelBackend(Protocol):
    """The four hot entry points every compute backend must provide.

    All scatter kernels mutate ``target`` in place and must reproduce the
    exact semantics (including float64 accumulation order) of the numpy
    reference backend — "close" is not enough, the equivalence grid
    compares raw float bits.
    """

    name: str

    def scatter_add(
        self, target: np.ndarray, destinations: np.ndarray, values: np.ndarray
    ) -> np.ndarray: ...

    def scatter_min(
        self, target: np.ndarray, destinations: np.ndarray, values: np.ndarray
    ) -> np.ndarray: ...

    def scatter_max(
        self, target: np.ndarray, destinations: np.ndarray, values: np.ndarray
    ) -> np.ndarray: ...

    def push_and_activate(
        self,
        target: np.ndarray,
        destinations: np.ndarray,
        values: np.ndarray,
        *,
        combine: str = "min",
        threshold: float | None = None,
    ) -> np.ndarray: ...

    def warmup(self) -> None: ...


class BackendError(ValueError):
    """Base class for backend selection failures (a ``ValueError`` so the
    existing config/CLI validation paths surface it cleanly)."""


class UnknownBackendError(BackendError):
    """The requested backend name is not registered."""


class BackendUnavailableError(BackendError):
    """The backend is known but its optional dependency is not installed."""


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry: how to probe for and construct one backend."""

    name: str
    probe: Callable[[], bool]
    load: Callable[[], KernelBackend]
    description: str = ""
    unavailable_reason: str = field(default="optional dependency not installed")


_REGISTRY: dict[str, BackendSpec] = {}
_INSTANCES: dict[str, KernelBackend] = {}


def register_backend(spec: BackendSpec) -> None:
    """Register a backend implementation under ``spec.name``."""
    _REGISTRY[spec.name] = spec


def known_backends() -> tuple[str, ...]:
    """All registered backend names, installed or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Names of the backends whose dependencies are installed."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.probe())


def module_installed(module: str) -> bool:
    """Cheap availability probe that does not import the module."""
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):
        return False


def _normalise(name: str) -> str:
    return name.strip().lower()


def get_backend(name: str) -> KernelBackend:
    """Return (and cache) the backend registered under ``name``.

    ``auto`` picks the fastest installed backend.  Raises
    :class:`UnknownBackendError` for unregistered names and
    :class:`BackendUnavailableError` when the backend's optional dependency
    is missing — both messages name the installed backends so the fix is
    obvious from the error alone.
    """
    key = _normalise(name)
    if key == "auto":
        for candidate in _AUTO_ORDER:
            spec = _REGISTRY.get(candidate)
            if spec is not None and spec.probe():
                return get_backend(candidate)
        raise BackendUnavailableError(
            "no backend available for 'auto'; installed backends: "
            + ", ".join(available_backends())
        )
    spec = _REGISTRY.get(key)
    if spec is None:
        raise UnknownBackendError(
            f"unknown backend {name!r}; installed backends: "
            + ", ".join(available_backends())
            + " (or 'auto' to pick the fastest installed)"
        )
    cached = _INSTANCES.get(key)
    if cached is not None:
        return cached
    if not spec.probe():
        raise BackendUnavailableError(
            f"backend {name!r} is not available: {spec.unavailable_reason}; "
            "installed backends: " + ", ".join(available_backends())
        )
    backend = spec.load()
    # One-time warm-up at construction so JIT compilation cost can never
    # land inside a timed region or a served query.
    backend.warmup()
    _INSTANCES[key] = backend
    return backend


def resolve_backend(backend: KernelBackend | str | None = None) -> KernelBackend:
    """Resolve an explicit backend, name, or ``None`` to an instance.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable and
    then to the ``numpy`` default; instances pass through untouched.
    """
    if backend is None:
        backend = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


def resolve_backend_name(backend: KernelBackend | str | None = None) -> str:
    """The concrete backend name ``backend`` resolves to (e.g. for ``auto``)."""
    return resolve_backend(backend).name


# The backend the vertex programs call when the runtime context does not
# carry an explicit one.  Resolved lazily so REPRO_BACKEND set by a test
# runner or CI leg takes effect without any code change.
_ACTIVE: KernelBackend | None = None


def active_backend() -> KernelBackend:
    """The backend the vertex programs' kernel calls currently run on."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve_backend(None)
    return _ACTIVE


def set_active_backend(backend: KernelBackend | str | None) -> KernelBackend:
    """Set the process-wide active backend; returns the previous one."""
    global _ACTIVE
    previous = active_backend()
    _ACTIVE = resolve_backend(backend)
    return previous


@contextmanager
def use_backend(backend: KernelBackend | str | None) -> Iterator[KernelBackend]:
    """Scope the active backend to a ``with`` block (always restores)."""
    previous = set_active_backend(backend)
    try:
        yield active_backend()
    finally:
        set_active_backend(previous)
