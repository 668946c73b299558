"""Compute backends for the kernel layer: protocol and selection.

A :class:`KernelBackend` provides the four hot kernel operations —
``scatter_add``, ``scatter_min``, ``scatter_max`` and the fused
``push_and_activate`` every vertex program pushes its updates through.
Two backends ship:

* ``numpy`` — always available, the bitwise reference
  (:mod:`repro.core.backends.numpy_backend`).
* ``numba`` — JIT-compiled scatter loops and fused dense push-and-activate;
  optional dependency, probed without importing it
  (:mod:`repro.core.backends.numba_backend`).

Adding a backend means adding one entry to ``_LOADERS``: the package it
needs (probed without importing it) and the class that implements it.
The vertex programs call ``active_backend().push_and_activate(...)``
directly.

Selection
---------
The active backend is one process-wide choice:

1. :func:`use_backend` scopes a backend to a ``with`` block; the CLI's
   ``--backend`` flag enters it once around the whole command.
2. Outside any scope, the ``REPRO_BACKEND`` environment variable, and
   otherwise ``numpy`` (always available, the bitwise reference).

``auto`` resolves to the fastest installed backend (``numba`` when
importable, otherwise ``numpy``).  :func:`use_backend` also accepts a
:class:`KernelBackend` instance, which passes through untouched.

Every backend must be **bitwise identical** to the numpy reference on the
kernel contract (see :mod:`repro.core.backends.numpy_backend`); the
equivalence suites run the full kernel + runtime grids against each
installed backend to enforce that.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "KernelBackend",
    "BackendError",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "active_backend",
    "use_backend",
]


@runtime_checkable
class KernelBackend(Protocol):
    """The four hot entry points every compute backend must provide.

    All scatter kernels mutate ``target`` in place and must reproduce the
    exact semantics (including float64 accumulation order) of the numpy
    reference backend — "close" is not enough, the equivalence grid
    compares raw float bits.

    ``push_and_activate`` returns the sorted ids its messages activated.
    A span push pads the edges of non-senders with the combine's identity
    (``+inf`` for min, ``-inf`` for max, ``-0.0`` for add; see
    ``OutEdges.spread``): each leaves every target bit unchanged, and
    none activates its destination — min / max activate only a strict
    improvement, and an add message of ``-0.0`` reaches nothing, while
    every other add message (``+0.0`` included) reaches its destination.
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
    """An unknown backend name, or a known one whose optional dependency is
    not installed (a ``ValueError`` so the CLI's bad-input path surfaces
    it cleanly)."""


#: name -> (the package it needs, the module and class implementing it),
#: slowest first: ``auto`` picks the last installed one.
_LOADERS: dict[str, tuple[str, str, str]] = {
    "numpy": ("numpy", "repro.core.backends.numpy_backend", "NumpyBackend"),
    "numba": ("numba", "repro.core.backends.numba_backend", "NumbaBackend"),
}
_INSTANCES: dict[str, KernelBackend] = {}


def _installed(package: str) -> bool:
    """Cheap availability probe that does not import ``package``."""
    try:
        return importlib.util.find_spec(package) is not None
    except (ImportError, ValueError):
        return False


def available_backends() -> tuple[str, ...]:
    """Names of the backends whose dependencies are installed."""
    return tuple(name for name, (package, _, _) in _LOADERS.items() if _installed(package))


def get_backend(name: str) -> KernelBackend:
    """Return (and cache) the backend called ``name``.

    ``auto`` picks the fastest installed backend.  Raises
    :class:`BackendError` for unknown names and for backends whose
    optional dependency is missing — both messages name the installed
    backends so the fix is obvious from the error alone.
    """
    key = name.strip().lower()
    if key == "auto":
        key = available_backends()[-1]
    cached = _INSTANCES.get(key)
    if cached is not None:
        return cached
    if key not in _LOADERS:
        raise BackendError(
            f"unknown backend {name!r}; installed backends: "
            + ", ".join(available_backends())
            + " (or 'auto' to pick the fastest installed)"
        )
    package, module, cls = _LOADERS[key]
    if not _installed(package):
        raise BackendError(
            f"backend {name!r} is not available: requires the optional {package} "
            f"dependency (pip install {package}); "
            "installed backends: " + ", ".join(available_backends())
        )
    backend = getattr(importlib.import_module(module), cls)()
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
        backend = os.environ.get("REPRO_BACKEND") or "numpy"
    if isinstance(backend, str):
        return get_backend(backend)
    return backend


# The backend the vertex programs call.  Resolved lazily so REPRO_BACKEND
# set by a test runner or CI leg takes effect without any code change.
_ACTIVE: KernelBackend | None = None


def active_backend() -> KernelBackend:
    """The backend the vertex programs' kernel calls currently run on."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve_backend(None)
    return _ACTIVE


@contextmanager
def use_backend(backend: KernelBackend | str | None) -> Iterator[KernelBackend]:
    """Scope the active backend to a ``with`` block (always restores)."""
    global _ACTIVE
    previous = active_backend()
    _ACTIVE = resolve_backend(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
