"""The numpy kernel backend — always available, the bitwise reference.

Performance architecture
------------------------
Every push-based vertex program in this reproduction boils down to one
scatter-reduce: a batch of ``(destination, value)`` messages is combined
into a per-vertex state array, either by **minimum** (SSSP, BFS, CC — value
replacement) or by **sum** (PageRank, PHP — value accumulation), followed by
*activation detection* — which destinations changed enough to join the next
frontier.

The scatter itself is ``np.<ufunc>.at``: NumPy >= 1.25 ships indexed inner
loops that run it at native scatter speed (hence the ``numpy>=1.25`` floor),
and it *defines* the unbuffered left-to-right fold every backend must
reproduce bit for bit.

:func:`push_and_activate` picks one of two activation formulations from the
input size.  A batch with at least one message per
:data:`DENSE_FRONTIER_FACTOR` vertices is *dense*: it amortises O(|V|)
work, so it copies the slice of ``target`` its destinations lie in (the
whole target unless the batch is the smaller of the two) and, after the
scatter, returns the ids whose value changed — no sort and no
touched-vertex bitmap.  Under min / max a value changes exactly when a
message improved it.  Under add it does when every message is either
padding (``-0.0``, the identity of a span push, which reaches no
destination) or a positive share above ``2**-52`` times the largest
|target| in reach before or after the batch, which moves its target by
at least one ulp; any other add batch falls back to a bitmap of the
destinations its non-padding messages reached.  Sparse batches never
touch |V|-sized temporaries: they compare each message's destination
before and after the scatter and ``np.unique`` the ones that qualify.
Every formulation gives exactly the activation set of the seed's
snapshot + ``np.unique`` formulation over the non-padding messages.

All kernels mutate ``target`` in place and expect ``float64`` state arrays
(every :class:`~repro.algorithms.base.ProgramState` array is ``float64``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumpyBackend",
    "scatter_add",
    "scatter_min",
    "scatter_max",
    "push_and_activate",
    "DENSE_FRONTIER_FACTOR",
]

_EMPTY = np.zeros(0, dtype=np.int64)

#: A message batch counts as *dense* when it holds at least one message per
#: ``DENSE_FRONTIER_FACTOR`` vertices; dense batches amortise O(|V|) bitmap
#: work, sparse batches avoid it entirely.
DENSE_FRONTIER_FACTOR = 8


#: The bits of ``-0.0``, the add identity: a padding message carries it,
#: changes no target bit and never activates its destination.
_PADDING_BITS = np.float64(-0.0).view(np.uint64)


def _is_dense(destinations: np.ndarray, target: np.ndarray) -> bool:
    return destinations.size * DENSE_FRONTIER_FACTOR >= target.size


def _reach(target: np.ndarray, destinations: np.ndarray) -> tuple[int, np.ndarray]:
    """The first id and the slice of ``target`` the destinations lie in.

    Two reductions over the messages find it when they are fewer than the
    target's entries (the stacked rows of a fused batch); otherwise the
    whole target is cheaper to scan than the messages.
    """
    if destinations.size >= target.size:
        return 0, target
    lo = int(destinations.min())
    return lo, target[lo : int(destinations.max()) + 1]


def _touched_ids(destinations: np.ndarray, num_vertices: int) -> np.ndarray:
    """Unique destination ids via a bitmap (no sort; ascending by construction)."""
    touched = np.zeros(num_vertices, dtype=bool)
    touched[destinations] = True
    return np.flatnonzero(touched)


def scatter_add(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[destinations] += values`` with duplicate support."""
    np.add.at(target, destinations, values)
    return target


def scatter_min(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[d] = min(target[d], v)`` over all messages."""
    np.minimum.at(target, destinations, values)
    return target


def scatter_max(target: np.ndarray, destinations: np.ndarray, values: np.ndarray) -> np.ndarray:
    """In-place ``target[d] = max(target[d], v)`` over all messages."""
    np.maximum.at(target, destinations, values)
    return target


def push_and_activate(
    target: np.ndarray,
    destinations: np.ndarray,
    values: np.ndarray,
    *,
    combine: str = "min",
    threshold: float | None = None,
) -> np.ndarray:
    """Fused scatter + activation detection.

    Applies one scatter-reduce to ``target`` in place and returns the
    unique, sorted ids of the vertices the pushes activated:

    * ``combine="min"`` / ``combine="max"`` (value replacement): the
      destinations whose value strictly improved.
    * ``combine="add"`` (value accumulation): the destinations a message
      other than ``-0.0`` padding reached whose updated value exceeds
      ``threshold`` (required).

    This is the operation every ``VertexProgram.process`` performs; fusing
    it lets dense frontiers derive the activation set from one before /
    after compare of the target instead of an ``np.unique`` over the
    per-message arrays.
    """
    destinations = np.asarray(destinations, dtype=np.int64)
    if destinations.size == 0:
        return _EMPTY
    if combine == "add":
        if threshold is None:
            raise ValueError("combine='add' requires a threshold")
        values = np.asarray(values, dtype=np.float64)
        bits = values.view(np.uint64)
        if not _is_dense(destinations, target):
            np.add.at(target, destinations, values)
            hit = target[destinations] > threshold
            hit &= bits != _PADDING_BITS
            return np.unique(destinations[hit])
        lo, window = _reach(target, destinations)
        snapshot = window.copy()
        np.add.at(target, destinations, values)
        # When every message but the padding is a positive share that no
        # target in reach can absorb, the destinations a share reached are
        # exactly those whose value changed.  The targets then only grow,
        # so the larger of the largest value after and minus the smallest
        # value before bounds every |target| the fold meets, and a share
        # above 2**-52 of it moves its target by at least one ulp.  As
        # unsigned integers the bits of the non-negative floats sort like
        # the floats, below those of -0.0 and every negative float: the
        # smallest bits clear the bound's and the largest are at most
        # -0.0's exactly when that holds.
        bound = 2.0**-52 * max(window.max(), -snapshot.min())
        if bits.min() > bound.view(np.uint64) and bits.max() <= _PADDING_BITS:
            hit = window > snapshot
            hit &= window > threshold
            ids = np.flatnonzero(hit)
            return ids + lo if lo else ids
        touched_ids = _touched_ids(destinations[bits != _PADDING_BITS], target.size)
        return touched_ids[target[touched_ids] > threshold]
    if combine == "min":
        ufunc, improved = np.minimum, np.less
    elif combine == "max":
        ufunc, improved = np.maximum, np.greater
    else:
        raise ValueError("combine must be 'min', 'max' or 'add'")
    if _is_dense(destinations, target):
        lo, window = _reach(target, destinations)
        snapshot = window.copy()
        ufunc.at(target, destinations, values)
        ids = np.flatnonzero(improved(window, snapshot))
        return ids + lo if lo else ids
    previous = target[destinations]
    ufunc.at(target, destinations, values)
    return np.unique(destinations[improved(target[destinations], previous)])


class NumpyBackend:
    """The reference :class:`~repro.core.backends.KernelBackend`.

    The methods *are* the module-level kernels — zero extra indirection on
    the hot path — and :meth:`warmup` is a no-op because there is nothing
    to compile.
    """

    name = "numpy"

    scatter_add = staticmethod(scatter_add)
    scatter_min = staticmethod(scatter_min)
    scatter_max = staticmethod(scatter_max)
    push_and_activate = staticmethod(push_and_activate)

    def warmup(self) -> None:
        return None
