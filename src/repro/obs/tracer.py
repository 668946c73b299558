"""Structured span tracing over *simulated* time.

The runtime is a deterministic simulation: every interesting instant —
a query entering a scheduling wave, a super-iteration boundary, a PCIe
copy occupying its stream slot, a cache admission — already has an exact
simulated timestamp.  The tracer records those instants as
:class:`Span` records instead of printing or aggregating them, which is
what the Chrome-trace exporter, the JSONL span log and the per-query
flight recorder (:mod:`repro.obs.export`, :mod:`repro.obs.flight`) are
built on.

Two invariants shape the design:

* **Zero overhead when disabled.**  The default tracer everywhere is the
  module-level :data:`NULL_TRACER`, whose methods are no-ops and whose
  ``enabled`` flag lets hot paths skip even argument construction with
  one attribute check.  A run without tracing executes the exact same
  arithmetic as before the tracer existed.
* **Determinism.**  Span ids are a monotone counter, every timestamp is
  a simulated clock value, and query sampling is a pure hash of
  ``(seed, request_id)`` — no wall clock, no global RNG — so equal runs
  emit bitwise-equal span streams (the golden-file test relies on it).

When enabled, spans land in a ring buffer of :data:`RING_CAPACITY`
spans: a 10^5-query replay with sampling can run arbitrarily long while
memory stays fixed — the oldest spans fall out, ``dropped_spans`` says
how many.  The query sampling fraction has one home,
:meth:`Tracer.set_sample` (``ReplayHarness(trace_sample=...)`` calls it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["Span", "NullTracer", "Tracer", "NULL_TRACER"]

#: Span categories the runtime emits (the README taxonomy table).
CATEGORIES = (
    "query",       # lifecycle: admitted/queued/suspended/terminal instants
    "wave",        # one scheduling wave of the service
    "super",       # one batch super-iteration
    "iteration",   # one query's planned iteration (its exec tile)
    "device",      # one task stage on a device resource (kernel/pcie/...)
    "cache",       # device-cache admit/hit/evict/invalidate events
    "fault",       # injected faults and transfer retries
    "checkpoint",  # checkpoint/restore/preempt-capture copies
    "network",     # cross-host transfers on a host's net lane
)


#: Ring-buffer span bound; the oldest spans are dropped beyond it.
RING_CAPACITY = 65536

#: Seed of the query-sampling hash: sampling is a deterministic hash of
#: ``(SAMPLE_SEED, request_id)``, so the same trace replayed twice
#: samples the same queries.
SAMPLE_SEED = 0


@dataclass(slots=True)
class Span:
    """One traced interval (or instant, when ``end_s == start_s``).

    ``track`` is the horizontal lane the span renders on: ``"service"``
    for waves and super-iterations, ``"query:<label>"`` for one query's
    latency tiles, ``"dev<d>:<resource>"`` for device timeline segments,
    ``"cache"``/``"faults"`` for event streams.  All times are simulated
    seconds.
    """

    span_id: int
    category: str
    name: str
    track: str
    start_s: float
    end_s: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def is_instant(self) -> bool:
        return self.end_s == self.start_s

    def as_dict(self) -> dict:
        """JSONL-friendly record (one line of the span log)."""
        return {
            "span_id": self.span_id,
            "category": self.category,
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
        }


def _sample_hash(seed: int, value: int) -> float:
    """Deterministic uniform in [0, 1) from (seed, value) — splitmix64-style."""
    mask = 0xFFFFFFFFFFFFFFFF
    x = (seed * 0x9E3779B97F4A7C15 + value * 0xBF58476D1CE4E5B9 + 1) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x / 2.0**64


class NullTracer:
    """The default no-op tracer: every hook collapses to nothing.

    ``enabled`` is a class attribute so hot paths can guard with one
    attribute load; the methods exist so instrumentation never needs a
    ``tracer is not None`` dance.
    """

    enabled = False

    def span(self, category, name, track, start_s, end_s, **attrs):
        return None

    def instant(self, category, name, track=None, t=None, **attrs):
        return None

    def set_clock(self, t):
        pass

    def cursor(self, track, default=0.0):
        return default

    def trace_query(self, request_id) -> bool:
        return False

    def set_sample(self, sample) -> None:
        pass

    def spans(self):
        return []


#: Shared no-op instance every instrumented object defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: bounded ring buffer of :class:`Span` records."""

    enabled = True

    def __init__(self):
        self._buffer: deque[Span] = deque(maxlen=RING_CAPACITY)
        self._next_id = 0
        #: Simulated-clock cursor instants default to (set by whichever
        #: layer currently owns the clock: the service at wave starts,
        #: the batch runner at super-iteration boundaries).
        self.clock_s = 0.0
        #: Last span end per track — what lets the service close a
        #: query's wait gap exactly where its previous tile ended.
        self._cursors: dict[str, float] = {}
        #: Fraction of queries whose per-query spans are recorded (global
        #: spans — waves, supers, cache/fault events — are always kept).
        self._sample = 1.0
        self.total_spans = 0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def span(self, category, name, track, start_s, end_s, **attrs) -> Span:
        """Record one interval; advances the track's cursor to ``end_s``."""
        record = Span(self._next_id, category, name, track, float(start_s), float(end_s), attrs)
        self._next_id += 1
        self.total_spans += 1
        self._buffer.append(record)
        self._cursors[track] = record.end_s
        return record

    def instant(self, category, name, track=None, t=None, **attrs) -> Span:
        """Record one zero-duration event (cursor untouched).

        ``t`` defaults to the current simulated clock (:meth:`set_clock`);
        ``track`` defaults to the category's own event lane.
        """
        at = self.clock_s if t is None else float(t)
        record = Span(self._next_id, category, name, track or category, at, at, attrs)
        self._next_id += 1
        self.total_spans += 1
        self._buffer.append(record)
        return record

    def set_clock(self, t) -> None:
        """Move the simulated-clock cursor instants default to."""
        self.clock_s = float(t)

    def cursor(self, track, default=0.0) -> float:
        """Where the last span on ``track`` ended (``default`` if none)."""
        return self._cursors.get(track, default)

    # ------------------------------------------------------------------
    # Query sampling
    # ------------------------------------------------------------------
    def trace_query(self, request_id: int) -> bool:
        """Whether this query's per-query spans are recorded."""
        if self._sample >= 1.0:
            return True
        if self._sample <= 0.0:
            return False
        return _sample_hash(SAMPLE_SEED, int(request_id)) < self._sample

    def set_sample(self, sample: float) -> None:
        """Override the query sampling fraction (the replay-harness hook)."""
        if not 0.0 <= sample <= 1.0:
            raise ValueError("tracing sample must be in [0, 1]")
        self._sample = float(sample)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dropped_spans(self) -> int:
        """Spans pushed out of the ring buffer so far."""
        return self.total_spans - len(self._buffer)

    def spans(self) -> list[Span]:
        """The retained spans, in emission (span-id) order."""
        return list(self._buffer)
