"""Request traces: synthetic mixes, arrival processes, trace-file loading.

Three layers of trace tooling share this module:

* :func:`synthetic_mixed_trace` — the everything-at-t=0 multi-tenant
  starvation scenario (heavy BULK analytics queued ahead of a burst of
  INTERACTIVE point lookups) used by the ``serve`` CLI demo and the
  scheduling benchmarks;
* the **arrival processes** (:func:`iter_arrival_times` /
  :func:`timed_mixed_trace`) — seed-deterministic Poisson, bursty
  (two-state MMPP) and diurnal (sinusoidally modulated Poisson)
  generators that stamp every request with an ``arrival_s`` timestamp,
  turning the service event-driven: waves form only over requests that
  have arrived, queue wait is measured from the stamp, and the replay
  harness streams these generators without materializing the trace;
* :func:`load_trace_file` — validated loading of client trace files
  (a JSON list, or JSON Lines for very large traces) with
  entry/line-numbered errors instead of a mid-replay ``KeyError``.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.service.request import Priority, QueryRequest

__all__ = [
    "synthetic_mixed_trace",
    "ARRIVAL_PROCESSES",
    "iter_arrival_times",
    "arrival_times",
    "timed_mixed_trace",
    "load_trace_file",
    "requests_from_entries",
]

#: The supported arrival-process names.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


def synthetic_mixed_trace(graph, point_lookups: int, analytical: int, seed: int) -> list[QueryRequest]:
    """BULK PageRank analytics first, seeded INTERACTIVE BFS lookups after.

    The analytics lead the queue (they were already submitted when the
    lookups arrive), which is exactly the ordering a FIFO co-schedule
    serves worst.  Lookup sources are sampled seed-deterministically
    through :func:`repro.bench.workloads.batch_sources`.
    """
    if point_lookups < 0 or analytical < 0:
        raise ValueError("trace sizes must be non-negative")
    if point_lookups == 0 and analytical == 0:
        raise ValueError("a synthetic trace needs at least one request")
    requests = [
        QueryRequest(algorithm="pagerank", priority=Priority.BULK, label="analytical-%d" % index)
        for index in range(analytical)
    ]
    if point_lookups > 0:
        from repro.bench.workloads import batch_sources

        requests.extend(
            QueryRequest(
                algorithm="bfs",
                source=source,
                priority=Priority.INTERACTIVE,
                label="lookup-%d" % index,
            )
            for index, source in enumerate(batch_sources(graph, point_lookups, seed=seed))
        )
    return requests


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------


def iter_arrival_times(
    process: str,
    rate: float,
    count: int,
    seed: int = 0,
    *,
    burstiness: float = 4.0,
    burst_fraction: float = 0.1,
    cycle_s: float | None = None,
    amplitude: float = 0.8,
    period_s: float | None = None,
) -> Iterator[float]:
    """Stream ``count`` arrival timestamps of one arrival process.

    All three processes have long-run mean rate ``rate`` (arrivals per
    simulated second) and are fully determined by ``seed`` — the same
    arguments always yield the identical timestamp sequence, which is
    what makes replay runs reproducible and CI-gateable.

    ``poisson``
        Memoryless: exponential inter-arrival times at ``rate``.
    ``bursty``
        Two-state Markov-modulated Poisson process: a *burst* state
        whose rate is ``burstiness`` times the quiet state's, occupied
        ``burst_fraction`` of the time (exponential dwell times, mean
        cycle ``cycle_s``, default ``50 / rate``).  The quiet rate is
        scaled so the time-averaged rate stays ``rate``.
    ``diurnal``
        Non-homogeneous Poisson with a sinusoidal day curve
        ``rate * (1 + amplitude * sin(2 pi t / period_s))`` sampled by
        thinning (``period_s`` defaults to ``1000 / rate``, i.e. one
        "day" per ~1000 mean arrivals).
    """
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            "unknown arrival process %r; pick one of: %s"
            % (process, ", ".join(ARRIVAL_PROCESSES))
        )
    if rate <= 0.0:
        raise ValueError("arrival rate must be positive")
    if count < 0:
        raise ValueError("arrival count must be non-negative")
    rng = np.random.default_rng(seed)
    if process == "poisson":
        return _poisson_arrivals(rng, rate, count)
    if process == "bursty":
        if burstiness <= 1.0:
            raise ValueError("burstiness must exceed 1 (1 is plain Poisson)")
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        return _bursty_arrivals(
            rng, rate, count, burstiness, burst_fraction,
            cycle_s if cycle_s is not None else 50.0 / rate,
        )
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("diurnal amplitude must be in [0, 1]")
    return _diurnal_arrivals(
        rng, rate, count, amplitude,
        period_s if period_s is not None else 1000.0 / rate,
    )


def arrival_times(process: str, rate: float, count: int, seed: int = 0, **kwargs) -> np.ndarray:
    """All ``count`` timestamps of one process as one sorted array."""
    return np.fromiter(
        iter_arrival_times(process, rate, count, seed, **kwargs),
        dtype=np.float64,
        count=count,
    )


def _poisson_arrivals(rng, rate: float, count: int) -> Iterator[float]:
    clock = 0.0
    for _ in range(count):
        clock += rng.exponential(1.0 / rate)
        yield clock


def _bursty_arrivals(
    rng, rate: float, count: int, burstiness: float, burst_fraction: float, cycle_s: float
) -> Iterator[float]:
    # Quiet-state rate chosen so the time average over both states is
    # exactly ``rate``: f*B*q + (1-f)*q = rate.
    quiet_rate = rate / (burst_fraction * burstiness + (1.0 - burst_fraction))
    state_rates = (quiet_rate, burstiness * quiet_rate)
    dwell_means = ((1.0 - burst_fraction) * cycle_s, burst_fraction * cycle_s)
    clock = 0.0
    state = 0  # start quiet; the dwell draw below is still stochastic
    state_end = rng.exponential(dwell_means[state])
    emitted = 0
    while emitted < count:
        candidate = clock + rng.exponential(1.0 / state_rates[state])
        if candidate <= state_end:
            clock = candidate
            emitted += 1
            yield clock
        else:
            # The exponential clock is memoryless, so truncating the
            # draw at the state boundary and redrawing at the new rate
            # samples the MMPP exactly.
            clock = state_end
            state = 1 - state
            state_end = clock + rng.exponential(dwell_means[state])


def _diurnal_arrivals(
    rng, rate: float, count: int, amplitude: float, period_s: float
) -> Iterator[float]:
    # Lewis-Shedler thinning against the envelope rate.
    peak = rate * (1.0 + amplitude)
    omega = 2.0 * np.pi / period_s
    clock = 0.0
    emitted = 0
    while emitted < count:
        clock += rng.exponential(1.0 / peak)
        instantaneous = rate * (1.0 + amplitude * np.sin(omega * clock))
        if rng.uniform() * peak <= instantaneous:
            emitted += 1
            yield clock


# ----------------------------------------------------------------------
# Timed synthetic workload mix
# ----------------------------------------------------------------------


def timed_mixed_trace(
    graph,
    count: int,
    rate: float,
    process: str = "poisson",
    seed: int = 0,
    *,
    interactive_fraction: float = 0.90,
    bulk_fraction: float = 0.02,
    interactive_sla_s: float | None = None,
    **process_kwargs,
) -> Iterator[QueryRequest]:
    """Stream a seeded arrival-stamped request mix (lazily, in time order).

    Each arrival of the chosen process becomes one request: an
    INTERACTIVE BFS point lookup with probability ``interactive_fraction``
    (optionally carrying the ``interactive_sla_s`` deadline), a BULK
    PageRank scan with probability ``bulk_fraction``, and a STANDARD
    SSSP query otherwise.  Lookup sources are sampled uniformly over the
    non-sink vertices from the same seeded stream, so the whole trace —
    timestamps, classes and sources — is one deterministic function of
    ``(graph, count, rate, process, seed)``.  The iterator never holds
    more than one request, which is what lets the replay harness push
    10^5-10^6 queries through without materializing the trace.
    """
    if not 0.0 <= interactive_fraction <= 1.0 or not 0.0 <= bulk_fraction <= 1.0:
        raise ValueError("trace mix fractions must be in [0, 1]")
    if interactive_fraction + bulk_fraction > 1.0:
        raise ValueError("interactive_fraction + bulk_fraction must not exceed 1")
    mix_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7261]))
    candidates = np.flatnonzero(graph.out_degrees > 0)
    if candidates.size == 0:
        raise ValueError("graph has no vertex with outgoing edges to sample sources from")
    for index, arrival in enumerate(
        iter_arrival_times(process, rate, count, seed, **process_kwargs)
    ):
        draw = mix_rng.uniform()
        source = int(candidates[mix_rng.integers(candidates.size)])
        if draw < interactive_fraction:
            yield QueryRequest(
                algorithm="bfs",
                source=source,
                priority=Priority.INTERACTIVE,
                deadline_s=interactive_sla_s,
                arrival_s=float(arrival),
            )
        elif draw < interactive_fraction + bulk_fraction:
            yield QueryRequest(
                algorithm="pagerank",
                priority=Priority.BULK,
                arrival_s=float(arrival),
            )
        else:
            yield QueryRequest(
                algorithm="sssp",
                source=source,
                priority=Priority.STANDARD,
                arrival_s=float(arrival),
            )


# ----------------------------------------------------------------------
# Trace-file loading and validation
# ----------------------------------------------------------------------

#: The keys a trace entry may carry.
_TRACE_KEYS = ("algorithm", "source", "priority", "deadline_s", "label", "arrival_s")


def _parse_trace_entry(entry, where: str) -> QueryRequest:
    """One validated trace entry -> request; errors name ``where``."""
    from repro.algorithms import ALGORITHMS

    if not isinstance(entry, dict):
        raise ValueError("%s: expected a JSON object, got %s" % (where, type(entry).__name__))
    unknown = sorted(set(entry) - set(_TRACE_KEYS))
    if unknown:
        raise ValueError(
            "%s: unknown key(s) %s; a trace entry takes: %s"
            % (where, ", ".join(map(repr, unknown)), ", ".join(_TRACE_KEYS))
        )
    algorithm = entry.get("algorithm")
    if not isinstance(algorithm, str):
        raise ValueError(
            "%s: missing or non-string 'algorithm' (available: %s)"
            % (where, ", ".join(sorted(ALGORITHMS)))
        )
    if algorithm.lower() not in ALGORITHMS:
        raise ValueError(
            "%s: unknown algorithm %r (available: %s)"
            % (where, algorithm, ", ".join(sorted(ALGORITHMS)))
        )
    source = entry.get("source")
    if source is not None and (isinstance(source, bool) or not isinstance(source, numbers.Integral)):
        raise ValueError("%s: 'source' must be an integer vertex id or null" % where)
    deadline = entry.get("deadline_s")
    if deadline is not None:
        deadline = _seconds(deadline)
        if deadline is None:
            raise ValueError("%s: 'deadline_s' must be a non-negative number" % where)
    label = entry.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("%s: 'label' must be a string or null, got %r" % (where, label))
    arrival = _seconds(entry.get("arrival_s", 0.0))
    if arrival is None or math.isinf(arrival):
        raise ValueError(
            "%s: 'arrival_s' must be a finite non-negative number, got %r"
            % (where, entry["arrival_s"])
        )
    try:
        priority = Priority.parse(entry.get("priority", Priority.STANDARD))
    except ValueError as error:
        raise ValueError("%s: %s" % (where, error)) from None
    return QueryRequest(
        algorithm=algorithm.lower(),
        source=None if source is None else int(source),
        priority=priority,
        deadline_s=deadline,
        label=label,
        arrival_s=arrival,
    )


def _seconds(value) -> float | None:
    """A JSON number as non-negative float seconds (``None`` if it is not one).

    Booleans, NaN, negatives and integers beyond float range are not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        seconds = float(value)
    except OverflowError:
        return None
    return seconds if seconds >= 0 else None


def requests_from_entries(entries, wheres=None) -> list[QueryRequest]:
    """Validate a sequence of trace entries into requests.

    ``wheres`` names each entry's position in error messages (defaults
    to ``entry #i``).  Beyond per-entry validation, arrival stamping must
    be all-or-nothing: a trace where only some entries carry
    ``arrival_s`` is almost certainly a half-edited file, and silently
    defaulting the rest to t=0 would reorder it.
    """
    entries = list(entries)
    if wheres is None:
        wheres = ["entry #%d" % index for index in range(len(entries))]
    stamped = ["arrival_s" in entry for entry in entries if isinstance(entry, dict)]
    if any(stamped) and not all(stamped):
        missing = next(
            where
            for entry, where in zip(entries, wheres)
            if isinstance(entry, dict) and "arrival_s" not in entry
        )
        raise ValueError(
            "%s: missing 'arrival_s' while other entries carry one; stamp every "
            "entry (or none, for t=0 submission)" % missing
        )
    return [
        _parse_trace_entry(entry, where) for entry, where in zip(entries, wheres)
    ]


def load_trace_file(path: Path | str) -> list[QueryRequest]:
    """Load and validate a trace file (JSON list or JSON Lines).

    A file whose first non-space character is ``[`` is parsed as one
    JSON list (errors name the entry index); anything else is parsed as
    JSON Lines — one entry per line, blank lines skipped — and errors
    carry the 1-based line number, which is the format to use for
    traces too large to hold as one document.
    """
    path = Path(path)
    text = path.read_text()
    if not text.strip():
        raise ValueError("trace %s is empty" % path)
    if text.lstrip()[0] == "[":
        entries = json.loads(text)
        if not isinstance(entries, list) or not entries:
            raise ValueError("trace %s must be a non-empty JSON list" % path)
        return requests_from_entries(entries)
    entries, wheres = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ValueError("%s line %d: invalid JSON (%s)" % (path, lineno, error)) from None
        wheres.append("%s line %d" % (path, lineno))
    if not entries:
        raise ValueError("trace %s is empty" % path)
    return requests_from_entries(entries, wheres)
