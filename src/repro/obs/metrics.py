"""One registry for every runtime counter.

Ad-hoc counters grew wherever they were first needed — the cache
manager's hit/miss/eviction dict, the fault injector's retry tallies,
the batch runner's amortization bytes, the service's admission counts.
:class:`MetricsRegistry` puts them behind one snapshot/export API:
counters (monotone), gauges (point-in-time values) and histograms with
*fixed* bucket bounds, so a snapshot of the same run is always the same
JSON — deterministic output is what lets CI diff it.

The registry is an *export view*, not a second store: the serving
numbers' one incrementally-updated, mergeable source of truth is the
:class:`~repro.service.stats.ServiceStats` a service bumps at its state
transitions, and ``metrics()`` builds a registry from it (plus cache,
injector and tracer counters) on demand, only to name, sort and export.
"""

from __future__ import annotations

import bisect

__all__ = ["MetricsRegistry", "Histogram", "LATENCY_BUCKETS_S"]

#: Fixed latency bucket upper bounds (simulated seconds).  Fixed — not
#: data-derived — so two runs' histograms are always comparable and a
#: snapshot is deterministic.
LATENCY_BUCKETS_S = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Histogram:
    """Fixed-bound bucket counts plus exact count/sum.

    ``bounds`` are upper bucket edges; values above the last bound land
    in an implicit overflow bucket, so ``len(counts) == len(bounds)+1``.
    """

    def __init__(self, bounds=LATENCY_BUCKETS_S):
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += float(value)

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms with one deterministic snapshot."""

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, object] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount=1) -> None:
        """Add ``amount`` to a monotone counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value) -> None:
        """Set a point-in-time value (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float, bounds=LATENCY_BUCKETS_S) -> None:
        """Fold one observation into the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def merge_counters(self, prefix: str, counters: dict) -> None:
        """Adopt a source's counter dict under ``prefix.`` names."""
        for key, value in counters.items():
            self.count("%s.%s" % (prefix, key), value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-friendly dump, keys sorted for deterministic output."""
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }
