"""Pluggable compute backends for the kernel layer.

Registers the built-in backends:

* ``numpy`` — always available, the bitwise reference
  (:mod:`repro.core.backends.numpy_backend`).
* ``numba`` — JIT-compiled scatter loops and fused dense push-and-activate;
  optional dependency, probed without importing it
  (:mod:`repro.core.backends.numba_backend`).

The vertex programs call ``active_backend().push_and_activate(...)``
directly.  See :mod:`repro.core.backends.base` for the protocol, the
selection order (explicit > ``REPRO_BACKEND`` > ``numpy``) and the
``auto`` resolution.
"""

from __future__ import annotations

from repro.core.backends.base import (
    DEFAULT_BACKEND,
    ENV_VAR,
    BackendError,
    BackendSpec,
    BackendUnavailableError,
    KernelBackend,
    UnknownBackendError,
    active_backend,
    available_backends,
    get_backend,
    known_backends,
    module_installed,
    register_backend,
    resolve_backend,
    resolve_backend_name,
    set_active_backend,
    use_backend,
)

__all__ = [
    "KernelBackend",
    "BackendError",
    "UnknownBackendError",
    "BackendUnavailableError",
    "BackendSpec",
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


def _load_numpy() -> KernelBackend:
    from repro.core.backends.numpy_backend import NumpyBackend

    return NumpyBackend()


def _load_numba() -> KernelBackend:
    from repro.core.backends.numba_backend import NumbaBackend

    return NumbaBackend()


register_backend(
    BackendSpec(
        name="numpy",
        probe=lambda: True,
        load=_load_numpy,
        description="vectorised numpy kernels (always available, bitwise reference)",
    )
)
register_backend(
    BackendSpec(
        name="numba",
        probe=lambda: module_installed("numba"),
        load=_load_numba,
        description="JIT-compiled scatter loops + fused dense push-and-activate",
        unavailable_reason="requires the optional numba dependency (pip install numba)",
    )
)
