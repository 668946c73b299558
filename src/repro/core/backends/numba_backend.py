"""The numba kernel backend — JIT-compiled scatter loops, optional.

Import-guarded: importing this module never fails, but constructing
:class:`NumbaBackend` (via :func:`~repro.core.backends.get_backend`)
requires ``numba`` to be installed.  Availability is probed with
``find_spec`` so the default environment never pays numba's import cost.

Bitwise equivalence with the numpy reference is structural, not
approximate:

* ``scatter_add`` is a sequential ``target[d[i]] += v[i]`` loop — the
  *definition* of ``np.add.at``'s unbuffered left-to-right fold, so the
  float64 accumulation order (and therefore every rounding step) is
  identical.  Numba compiles with strict IEEE semantics by default
  (``fastmath`` off), so no reassociation can occur.
* ``scatter_min``/``scatter_max`` compare-and-store; min/max are order
  independent and losing bins keep their exact current bits, matching
  ``np.minimum.at`` / ``np.maximum.at``.  On a tie those return the
  message, whose bits differ from the target's when the two are zeros of
  opposite sign, so a tie stores too (it improves nothing).
* ``push_and_activate`` exploits monotonicity: under min (max) combine the
  state only ever decreases (increases), so "some message improved this
  vertex" is equivalent to "final value is strictly better than the value
  before the batch" — the dense kernels record a changed bitmap in the
  same pass as the scatter, the sparse kernels append every improving
  destination and dedupe with ``np.unique`` afterwards.  For ``add`` the
  activation set is the destinations a message other than ``-0.0``
  padding touched whose *final* value exceeds the threshold, evaluated
  after all adds land — exactly the reference semantics (the dense loop
  marks a destination only for such a message, the sparse path uniques
  only their destinations).

The fused dense kernels are where the JIT pays off: one pass over the
messages replaces the reference's snapshot copy + ``ufunc.at`` +
before / after compare (and, for add, its guard reductions over the
messages).

Like the reference, the kernels assume NaN-free float64 state arrays
(graph states are distances/ranks: finite values and ``inf`` only).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.backends import BackendError
from repro.core.backends import numpy_backend as _ref

__all__ = ["NumbaBackend", "NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

NUMBA_AVAILABLE = _numba is not None

_EMPTY = np.zeros(0, dtype=np.int64)


if NUMBA_AVAILABLE:  # pragma: no cover - compiled/exercised in the CI numba leg

    @_numba.njit(cache=True)
    def _scatter_add(target, destinations, values):
        for i in range(destinations.shape[0]):
            target[destinations[i]] += values[i]

    @_numba.njit(cache=True)
    def _scatter_min(target, destinations, values):
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            if v <= target[d]:
                target[d] = v

    @_numba.njit(cache=True)
    def _scatter_max(target, destinations, values):
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            if v >= target[d]:
                target[d] = v

    @_numba.njit(cache=True)
    def _push_min_dense(target, destinations, values):
        changed = np.zeros(target.shape[0], dtype=np.bool_)
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            t = target[d]
            if v <= t:
                target[d] = v
                if v < t:
                    changed[d] = True
        return changed

    @_numba.njit(cache=True)
    def _push_max_dense(target, destinations, values):
        changed = np.zeros(target.shape[0], dtype=np.bool_)
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            t = target[d]
            if v >= t:
                target[d] = v
                if v > t:
                    changed[d] = True
        return changed

    @_numba.njit(cache=True)
    def _push_min_sparse(target, destinations, values):
        improved = np.empty(destinations.shape[0], dtype=np.int64)
        count = 0
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            t = target[d]
            if v <= t:
                target[d] = v
                if v < t:
                    improved[count] = d
                    count += 1
        return improved[:count]

    @_numba.njit(cache=True)
    def _push_max_sparse(target, destinations, values):
        improved = np.empty(destinations.shape[0], dtype=np.int64)
        count = 0
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            t = target[d]
            if v >= t:
                target[d] = v
                if v > t:
                    improved[count] = d
                    count += 1
        return improved[:count]

    @_numba.njit(cache=True)
    def _push_add_dense(target, destinations, values):
        touched = np.zeros(target.shape[0], dtype=np.bool_)
        for i in range(destinations.shape[0]):
            d = destinations[i]
            v = values[i]
            target[d] += v
            if v != 0.0 or math.copysign(1.0, v) > 0.0:  # not -0.0 padding
                touched[d] = True
        return touched


def _as_int64(array) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype != np.int64:
        array = array.astype(np.int64)
    return np.ascontiguousarray(array)


def _as_float64(array) -> np.ndarray:
    array = np.asarray(array, dtype=np.float64)
    return np.ascontiguousarray(array)


class NumbaBackend:
    """JIT-compiled :class:`~repro.core.backends.KernelBackend`.

    Mirrors the numpy backend's density dispatch so the choice of fused
    kernel never changes the (identical) activation set, only the constant
    factors.
    """

    name = "numba"

    def __init__(self) -> None:
        if not NUMBA_AVAILABLE:
            raise BackendError(
                "backend 'numba' requires the optional numba dependency "
                "(pip install numba)"
            )
        self._warm = False

    def warmup(self) -> None:
        """Compile every kernel once on tiny inputs.

        Called by ``get_backend`` at construction, so JIT compilation cost is
        paid before the backend can appear inside any timed region; with
        ``cache=True`` later processes reuse the on-disk compilation cache.
        """
        if self._warm:
            return
        destinations = np.array([0, 1, 1, 2], dtype=np.int64)
        values = np.array([1.0, 2.0, 0.5, 3.0])
        state = np.zeros(4)
        _scatter_add(state.copy(), destinations, values)
        _scatter_min(state.copy(), destinations, values)
        _scatter_max(state.copy(), destinations, values)
        _push_min_dense(state.copy(), destinations, values)
        _push_max_dense(state.copy(), destinations, values)
        _push_min_sparse(state.copy(), destinations, values)
        _push_max_sparse(state.copy(), destinations, values)
        _push_add_dense(state.copy(), destinations, values)
        self._warm = True

    def scatter_add(self, target, destinations, values):
        destinations = _as_int64(destinations)
        if destinations.size:
            _scatter_add(target, destinations, _as_float64(values))
        return target

    def scatter_min(self, target, destinations, values):
        destinations = _as_int64(destinations)
        if destinations.size:
            _scatter_min(target, destinations, _as_float64(values))
        return target

    def scatter_max(self, target, destinations, values):
        destinations = _as_int64(destinations)
        if destinations.size:
            _scatter_max(target, destinations, _as_float64(values))
        return target

    def push_and_activate(self, target, destinations, values, *, combine="min", threshold=None):
        destinations = _as_int64(destinations)
        if destinations.size == 0:
            return _EMPTY
        values = _as_float64(values)
        dense = _ref._is_dense(destinations, target)
        if combine == "add":
            if threshold is None:
                raise ValueError("combine='add' requires a threshold")
            if dense:
                touched = _push_add_dense(target, destinations, values)
                touched_ids = np.flatnonzero(touched)
            else:
                _scatter_add(target, destinations, values)
                touched_ids = np.unique(destinations[values.view(np.uint64) != _ref._PADDING_BITS])
            return touched_ids[target[touched_ids] > threshold]
        if combine == "min":
            if dense:
                return np.flatnonzero(_push_min_dense(target, destinations, values))
            return np.unique(_push_min_sparse(target, destinations, values))
        if combine == "max":
            if dense:
                return np.flatnonzero(_push_max_dense(target, destinations, values))
            return np.unique(_push_max_sparse(target, destinations, values))
        raise ValueError("combine must be 'min', 'max' or 'add'")
