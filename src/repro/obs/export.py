"""Trace exporters: Chrome ``trace_event`` JSON and a JSONL span log.

The Chrome format is the JSON object form — ``{"traceEvents": [...]}`` —
loadable in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
Each tracer track becomes one named thread: device resources
(``dev0:gpu``, ``dev0:pcie``, ``cpu``, ``interconnect``), the service
lane (waves and super-iterations), one lane per traced query, and the
cache/fault event streams.  Simulated seconds map to trace microseconds.

Everything here is a pure function of the span list, so exporting never
perturbs a run; ``validate_chrome_trace`` is the schema check the test
suite and the CI trace-smoke job share.  A trace file carries no serving
counters: those leave once, through ``--stats-json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "spans_to_jsonl",
    "validate_chrome_trace",
]

#: The one simulated process every track lives under.
_PID = 0

#: Required keys of every emitted trace event.
_EVENT_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")


def _track_order(spans: list[Span]) -> list[str]:
    """Tracks in first-appearance order (deterministic given the spans)."""
    seen: dict[str, None] = {}
    for span in spans:
        if span.track not in seen:
            seen[span.track] = None
    return list(seen)


def chrome_trace(spans: list[Span], dropped: int = 0) -> dict:
    """The Chrome ``trace_event`` payload for a span list.

    ``otherData`` carries the clock, the span count, ``dropped``
    (ring-buffer overflow) and the track names.
    """
    tracks = _track_order(spans)
    tids = {track: index for index, track in enumerate(tracks)}
    events: list[dict] = [
        {
            "name": "process_name",
            "cat": "__metadata",
            "ph": "M",
            "ts": 0,
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro-graph (simulated)"},
        }
    ]
    for track in tracks:
        events.append(
            {
                "name": "thread_name",
                "cat": "__metadata",
                "ph": "M",
                "ts": 0,
                "pid": _PID,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "i" if span.is_instant else "X",
            "ts": span.start_s * 1e6,
            "pid": _PID,
            "tid": tids[span.track],
            "args": {"span_id": span.span_id, **span.attrs},
        }
        if span.is_instant:
            event["s"] = "t"  # thread-scoped instant
        else:
            event["dur"] = span.duration_s * 1e6
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated",
            "spans": len(spans),
            "dropped_spans": dropped,
            "tracks": tracks,
        },
    }


def write_chrome_trace(path, spans: list[Span], dropped: int = 0) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans, dropped=dropped)))
    return path


def spans_to_jsonl(spans: list[Span]) -> str:
    """The span log: one JSON object per line, in span-id order."""
    return "".join(json.dumps(span.as_dict()) + "\n" for span in spans)


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema-check one Chrome trace payload; returns problem strings.

    An empty list means the payload is structurally valid: every event
    carries the required keys, complete events have non-negative
    timestamps and durations, and every tid used by an event has a
    ``thread_name`` metadata record (the per-track naming Perfetto
    renders lanes from).
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    named_tids: set[int] = set()
    used_tids: set[int] = set()
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append("event %d is not an object" % position)
            continue
        missing = [key for key in _EVENT_KEYS if key not in event]
        if missing:
            problems.append("event %d missing keys: %s" % (position, ", ".join(missing)))
            continue
        phase = event["ph"]
        if phase == "M":
            if event["name"] == "thread_name":
                named_tids.add(event["tid"])
            continue
        used_tids.add(event["tid"])
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            problems.append("event %d has bad ts %r" % (position, event["ts"]))
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append("event %d has bad dur %r" % (position, duration))
        elif phase != "i":
            problems.append("event %d has unexpected phase %r" % (position, phase))
    unnamed = used_tids - named_tids
    if unnamed:
        problems.append("tids without thread_name metadata: %s" % sorted(unnamed))
    return problems
