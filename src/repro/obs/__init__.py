"""Observability: structured tracing and trace exporters.

The simulation already knows every timestamp exactly; this package
records them.  :mod:`repro.obs.tracer` emits spans over simulated time,
:mod:`repro.obs.export` writes Chrome ``trace_event`` JSON and JSONL
span logs, and :mod:`repro.obs.flight` reconstructs a single query's
latency budget from an exported trace.  Serving counters live in
:class:`~repro.service.stats.ServiceStats` alone and leave through
``observability()`` (``--stats-json``), never through a trace file.

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
from repro.obs.tracer import (
    CATEGORIES,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "CATEGORIES",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "flight_report",
    "load_trace",
    "query_summary",
    "query_tracks",
    "spans_to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
]
