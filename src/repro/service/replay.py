"""Streaming trace replay: 10^5-10^6 queries through one service.

The harness pumps an arrival-ordered request stream through a
:class:`~repro.service.GraphService` without ever materializing the
whole trace or its results:

* requests are submitted from the iterator with a bounded *lookahead*
  (enough in-flight work for waves to batch and for the preemption
  check to see imminent arrivals, never the full trace);
* after every scheduling wave the finished handles are
  :meth:`~repro.service.GraphService.harvest`-ed and their per-vertex
  result arrays dropped — memory stays bounded by the lookahead window,
  not the trace length; the service's own cumulative
  :class:`~repro.service.stats.ServiceStats` keeps the latencies and
  SLA outcomes, and the report is read off it at the end;
* a seeded reservoir of completed queries is kept aside and re-run solo
  after the replay, asserting the serving path returned bitwise the
  values a standalone ``system.run`` produces.

The :class:`ReplayReport` this emits (per-class p50/p95/p99, SLA
attainment, rejection breakdown, simulated queries/s) is what
``benchmarks/bench_replay.py`` snapshots and what the CI replay gate
compares against.  Either tier (``GraphService``, ``ClusterService``) is
driven through public members only: ``submit`` / ``step`` / ``harvest`` /
``stats`` / ``in_flight``, plus ``tracer`` and ``system``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.service.core import GraphService
from repro.service.request import Priority, QueryRequest, RequestStatus

__all__ = ["ReplayHarness", "ReplayReport"]


@dataclass
class ReplayReport:
    """What one trace replay measured.

    Read off the service's cumulative stats at the end, so it covers the
    service's whole lifetime — replay on a fresh service.  A class's
    ``sla_missed`` counts late completions only, never cancellations.
    """

    #: Requests drawn from the trace (= submitted to the service).
    queries: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    #: Scheduling waves the replay served.
    waves: int = 0
    #: Super-iteration-boundary preemptions, and queries preempted >= once.
    preemptions: int = 0
    preempted_queries: int = 0
    #: Simulated end-to-end serving time (arrival of the first request
    #: to completion of the last wave).
    makespan_s: float = 0.0
    #: Latest simulated completion time of a BULK query (0 when none).
    bulk_makespan_s: float = 0.0
    #: Wall-clock seconds the replay itself took.
    wall_s: float = 0.0
    #: Per-class latency/SLA rows keyed by class name.
    classes: dict[str, dict[str, object]] = field(default_factory=dict)
    #: Rejection counts keyed by class name.
    rejections_by_class: dict[str, int] = field(default_factory=dict)
    #: Bitwise verification outcome (``None`` when no sample was drawn).
    verified_bitwise: bool | None = None
    verified_queries: int = 0

    @property
    def queries_per_second(self) -> float:
        """Completed queries over the simulated makespan."""
        if self.makespan_s <= 0.0:
            return 0.0
        return self.completed / self.makespan_s

    def sla_attainment(self, priority: Priority | str) -> float:
        row = self.classes.get(Priority.parse(priority).name.lower())
        return float(row["sla_attainment"]) if row else 1.0

    def latency_percentile(self, priority: Priority | str, percentile: int) -> float:
        row = self.classes.get(Priority.parse(priority).name.lower())
        return float(row["p%d_s" % percentile]) if row else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly dump (benchmark artifacts, CI gates)."""
        return {**asdict(self), "queries_per_second": self.queries_per_second}


class ReplayHarness:
    """Pump an arrival-ordered request stream through one service.

    Parameters
    ----------
    service:
        The (warmed) service to replay against.  Its config decides the
        serving semantics — scheduling, admission, preemption.
    lookahead:
        Maximum in-flight (queued or running) requests before the
        harness pauses submission and serves a wave.  Bounds memory and
        is also the horizon the preemption check can see: an arrival
        beyond the lookahead window cannot preempt a running wave.
    verify_sample:
        Size of the seeded reservoir of completed queries re-run solo
        after the replay for the bitwise-equality check (0 disables).
    seed:
        Seed of the reservoir-sampling stream (not of the trace).
    trace_sample:
        When the service traces (``ServiceConfig(tracing=...)``), the
        fraction of queries whose per-query spans are recorded — a
        deterministic hash of the request id, so 10^5-query replays keep
        the span buffer bounded while still tracing a representative
        seeded sample.  ``None`` leaves the tracer's own sampling alone.
    """

    def __init__(
        self,
        service: GraphService,
        *,
        lookahead: int = 512,
        verify_sample: int = 0,
        seed: int = 0,
        trace_sample: float | None = None,
    ):
        if lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if verify_sample < 0:
            raise ValueError("verify_sample must be non-negative")
        self.service = service
        self.lookahead = lookahead
        self.verify_sample = verify_sample
        self._rng = np.random.default_rng(seed)
        if trace_sample is not None:
            service.tracer.set_sample(trace_sample)

    # ------------------------------------------------------------------
    def replay(self, requests: Iterable[QueryRequest]) -> ReplayReport:
        """Serve the stream to exhaustion; returns the aggregate report.

        The stream must be arrival-ordered (every trace generator in
        :mod:`repro.service.trace` is); the replay interleaves bounded
        submission with :meth:`~repro.service.GraphService.step` /
        :meth:`~repro.service.GraphService.harvest` so neither handles
        nor per-vertex results of 10^5-10^6 queries accumulate.
        """
        service = self.service
        stream: Iterator[QueryRequest] = iter(requests)
        reservoir: list[tuple] = []  # (program, source, values) samples
        sampled = 0
        exhausted = False
        started = time.perf_counter()
        while True:
            # Submit up to the lookahead window (REJECTED handles do not
            # occupy a slot — they are terminal the moment they exist).
            while not exhausted and service.in_flight < self.lookahead:
                try:
                    request = next(stream)
                except StopIteration:
                    exhausted = True
                    break
                service.submit(request)
            batch = service.step()
            finished, _batches = service.harvest()
            if self.verify_sample:
                sampled = self._sample(finished, reservoir, sampled)
            if batch is None and exhausted:
                break
        stats = service.stats()
        bulk = stats.classes.get(Priority.BULK)
        report = ReplayReport(
            queries=stats.submitted,
            completed=stats.completed,
            failed=stats.failed,
            cancelled=stats.cancelled,
            rejected=stats.rejected,
            waves=stats.waves,
            preemptions=stats.preemptions,
            preempted_queries=stats.preempted_queries,
            makespan_s=stats.makespan_s,
            bulk_makespan_s=bulk.last_completion_s if bulk is not None else 0.0,
            classes=stats.rows(),
            rejections_by_class={
                priority.name.lower(): stats.classes[priority].rejected
                for priority in sorted(stats.classes)
                if stats.classes[priority].rejected
            },
        )
        if self.verify_sample and reservoir:
            report.verified_queries = len(reservoir)
            report.verified_bitwise = self._verify(reservoir)
        report.wall_s = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def _sample(self, finished, reservoir: list, sampled: int) -> int:
        """Reservoir-sample one harvest's completed queries for verification."""
        for handle in finished:
            if handle.status is not RequestStatus.DONE:
                continue
            sampled += 1
            sample = (handle._query[0], handle._query[1], handle._result.values)
            if len(reservoir) < self.verify_sample:
                reservoir.append(sample)
            else:
                # Classic reservoir sampling: keep each completed query
                # with probability sample_size / seen_so_far.
                slot = int(self._rng.integers(sampled))
                if slot < self.verify_sample:
                    reservoir[slot] = sample
        return sampled

    def _verify(self, reservoir: list) -> bool:
        """Re-run the sampled queries solo; True when all values match bitwise."""
        for program, source, served_values in reservoir:
            solo = self.service.system.run(program, source=source)
            if not np.array_equal(served_values, solo.values):
                return False
        return True
