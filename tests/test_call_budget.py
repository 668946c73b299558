"""Call budget of the serving hot path: a noise-free proxy for host time.

A fixed 60-query mixed replay (SK stand-in at scale 0.05, fixed seed,
numpy backend) runs under ``sys.setprofile`` and the number of calls into
functions *defined in this package* is held to a budget.  The count is a
pure function of the code: no machine, numpy version or hash seed moves
it (frames of numpy and the standard library are not counted; Python 3.12
inlines comprehensions, so it can only count fewer than the 3.11 the
budget was measured on).  Per-task object churn between engine selection
and the batch fold — a record class per task, a property chain per
aggregate, a scan per wave — shows up here long before it shows up in a
wall-clock benchmark.

After an intentional change, re-measure with::

    PYTHONPATH=src python tests/test_call_budget.py
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import repro
from repro.bench.workloads import build_workload
from repro.service import GraphService, ReplayHarness, ServiceConfig, timed_mixed_trace

QUERIES = 60
#: Calls per query measured at the commit that last changed the hot path.
MEASURED_CALLS_PER_QUERY = 1667
BUDGET_CALLS_PER_QUERY = MEASURED_CALLS_PER_QUERY * 1.1

_PACKAGE = os.path.dirname(repro.__file__) + os.sep


def _replay() -> None:
    workload = build_workload("SK", "sssp", scale=0.05)
    service = GraphService(
        ServiceConfig(system="hytgraph", backend="numpy"), graph=workload.graph, hardware=workload.config
    )
    trace = timed_mixed_trace(
        workload.graph, QUERIES, 5_000.0, seed=13, interactive_fraction=0.8, bulk_fraction=0.05
    )
    report = ReplayHarness(service, lookahead=32).replay(trace)
    assert report.completed == QUERIES


def count_package_calls() -> Counter:
    """``(file, function) -> calls`` of one replay, package frames only."""
    counts: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_PACKAGE):
                counts[code.co_filename[len(_PACKAGE):], code.co_name] += 1

    sys.setprofile(profiler)
    try:
        _replay()
    finally:
        sys.setprofile(None)
    return counts


def _top(counts: Counter, limit: int = 10) -> str:
    return "\n".join(
        "  %7d  %s:%s" % (calls, path, name) for (path, name), calls in counts.most_common(limit)
    )


def test_calls_per_query_within_budget():
    counts = count_package_calls()
    per_query = sum(counts.values()) / QUERIES
    assert per_query <= BUDGET_CALLS_PER_QUERY, (
        "%.0f package calls per query, budget %.0f (measured %d x 1.1); top callees:\n%s"
        % (per_query, BUDGET_CALLS_PER_QUERY, MEASURED_CALLS_PER_QUERY, _top(counts))
    )


if __name__ == "__main__":
    measured = count_package_calls()
    print("%.1f package calls per query; top callees:\n%s" % (sum(measured.values()) / QUERIES, _top(measured)))
