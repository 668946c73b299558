"""Observability: structured tracing, one metrics registry, exporters.

The simulation already knows every timestamp exactly; this package
records them.  :mod:`repro.obs.tracer` emits spans over simulated time,
:mod:`repro.obs.metrics` unifies the runtime's scattered counters,
:mod:`repro.obs.export` writes Chrome ``trace_event`` JSON and JSONL
span logs, and :mod:`repro.obs.flight` reconstructs a single query's
latency budget from an exported trace.

This package imports nothing from the rest of :mod:`repro` (the
instrumented layers import *it*), so it can never create a cycle.
"""

from repro.obs.export import (
    chrome_trace,
    spans_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import flight_report, load_trace, query_summary, query_tracks
from repro.obs.metrics import LATENCY_BUCKETS_S, Histogram, MetricsRegistry
from repro.obs.tracer import (
    CATEGORIES,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TracingConfig,
    make_tracer,
)

__all__ = [
    "CATEGORIES",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "TracingConfig",
    "chrome_trace",
    "flight_report",
    "load_trace",
    "make_tracer",
    "query_summary",
    "query_tracks",
    "spans_to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
]
