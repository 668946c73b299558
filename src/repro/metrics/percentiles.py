"""The one percentile implementation the whole repo shares.

``ServiceStats`` (whose ``class_row`` now feeds the replay reports too)
and the bench scripts each grew their own ``np.percentile`` call; any
drift between them (dtype, interpolation mode) would skew cross-layer
comparisons.  This helper pins the exact computation — ``np.percentile``
over a float64 array, default linear interpolation — so every latency
percentile in stats tables, replay reports and benchmark artifacts is
bitwise the same function of its inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["percentile", "percentiles"]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) of ``values``; 0.0 when empty."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(np.percentile(array, q))


def percentiles(values, qs) -> list[float]:
    """:func:`percentile` at each of ``qs``, sharing one array conversion."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return [0.0 for _ in qs]
    return [float(np.percentile(array, q)) for q in qs]
