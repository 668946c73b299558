"""The one serving-statistics accumulator: counters, per-class tallies, merge.

A :class:`~repro.service.GraphService` bumps one cumulative
:class:`ServiceStats` at its state transitions and ``stats()`` snapshots
it — nothing is re-derived from handles or batch records, so
``harvest()`` cannot invalidate it, and :meth:`ServiceStats.merge` makes
the cluster aggregate a fold.  The replay report, ``--stats-json`` and
the ``service.*`` / ``cluster.host<h>.*`` metrics are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.metrics.percentiles import percentile, percentiles
from repro.service.request import Priority, RequestStatus

__all__ = ["ClassTally", "ServiceStats", "class_row", "register_service_metrics"]

#: The counter- and gauge-valued members of one stats snapshot that the
#: metrics registry exports, in emission order.
COUNTER_FIELDS = (
    "submitted", "admitted", "rejected", "completed", "failed",
    "cancelled", "queued", "waves", "preemptions", "deadline_met",
    "deadline_missed", "faults_injected", "retries", "breaker_trips",
    "total_transfer_bytes",
)
GAUGE_FIELDS = (
    "makespan_s", "queries_per_second", "deadline_attainment", "breaker_open",
    "retry_time_s", "checkpoint_time_s", "recovery_time_s",
)

#: Fields a merge takes the maximum of (everything else adds up).
_MAX_FIELDS = ("makespan_s", "last_completion_s")


def _merge_fields(total, other):
    """Fold dataclass ``other`` into ``total``: counts, totals and sample
    lists add, flags OR, :data:`_MAX_FIELDS` take the maximum, dicts of
    tallies merge per key.  Commutative and associative — float totals up
    to rounding, sample lists up to order (no derived row depends on it).
    """
    for spec in fields(total):
        mine, theirs = getattr(total, spec.name), getattr(other, spec.name)
        if isinstance(mine, dict):
            for key, tally in theirs.items():
                _merge_fields(mine.setdefault(key, type(tally)()), tally)
        elif spec.name in _MAX_FIELDS:
            setattr(total, spec.name, max(mine, theirs))
        elif isinstance(mine, bool):
            setattr(total, spec.name, mine or theirs)
        else:
            setattr(total, spec.name, mine + theirs)
    return total


@dataclass
class ClassTally:
    """Everything counted per priority class, once.

    ``sla_met`` / ``sla_missed`` cover *completed* deadline-carrying
    queries only: a query cancelled by deadline enforcement is its
    class's ``cancelled``, never its ``sla_missed``.
    """

    #: Arrival-to-completion latencies / queue waits of completed queries.
    latencies: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    sla_met: int = 0
    sla_missed: int = 0
    rejected: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Latest simulated completion time of a completed query.
    last_completion_s: float = 0.0


def class_row(tally: ClassTally) -> dict[str, object]:
    """The per-class latency/SLA row — the only place percentiles are taken.
    Means use :func:`math.fsum` (exactly rounded): like the percentiles
    they do not depend on the order the samples were merged in."""
    latencies = tally.latencies
    count = len(latencies)
    p50, p95, p99 = percentiles(latencies, (50, 95, 99))
    waits = tally.queue_waits
    carrying = tally.sla_met + tally.sla_missed
    return {
        "count": count,
        "p50_s": p50,
        "p95_s": p95,
        "p99_s": p99,
        "mean_s": math.fsum(latencies) / count if count else 0.0,
        "max_s": max(latencies, default=0.0),
        "mean_wait_s": math.fsum(waits) / len(waits) if waits else 0.0,
        "sla_met": tally.sla_met,
        "sla_missed": tally.sla_missed,
        "sla_attainment": (tally.sla_met / carrying) if carrying else 1.0,
    }


def register_service_metrics(registry, stats: "ServiceStats") -> None:
    """Emit one stats snapshot as ``service.*`` rows of ``registry``.

    Shared by :meth:`~repro.service.GraphService.metrics` and the
    cluster tier's aggregate registry, so the single-host and cluster
    ``--stats-json`` payloads carry the same ``service.*`` vocabulary.
    """
    for name in COUNTER_FIELDS:
        registry.count("service.%s" % name, getattr(stats, name))
    for name in GAUGE_FIELDS:
        registry.gauge("service.%s" % name, getattr(stats, name))
    for priority, latencies in stats.latencies_by_class.items():
        name = "service.latency_s.%s" % priority.name.lower()
        for value in latencies:
            registry.observe(name, value)


def _class_total(name: str) -> property:
    """A service-wide count read as the sum of one :class:`ClassTally` field."""
    return property(lambda self: sum(getattr(tally, name) for tally in self.classes.values()))


@dataclass
class ServiceStats:
    """Cumulative counters of a :class:`~repro.service.GraphService`.

    Terminal outcomes and latencies are tallied per priority class
    (:attr:`classes`) so the multi-tenant questions — "what's the p95 of
    my point lookups while the analytical tenant is hammering the
    service?" — read straight off the record; the service-wide
    ``completed`` / ``failed`` / ``rejected`` / SLA counts are sums over
    those tallies, never a second set of counters.
    """

    #: Requests handed to ``submit`` (rejected ones included).
    submitted: int = 0
    #: Admitted requests still waiting for a scheduling wave.
    queued: int = 0
    #: Scheduling waves served so far.
    waves: int = 0
    #: Super-iteration-boundary preemptions, counted where they happen —
    #: so a preempted query that later fails or is cancelled still
    #: counts — and the number of queries preempted at least once.
    preemptions: int = 0
    preempted_queries: int = 0
    #: Simulated seconds of every served wave, end to end.
    makespan_s: float = 0.0
    # --- per-wave totals, added as each wave's batch record lands ---
    total_transfer_bytes: int = 0
    amortized_bytes: int = 0
    super_iterations: int = 0
    # --- fault/recovery accounting (all zero on fault-free services) ---
    faults_injected: int = 0
    retries: int = 0
    retry_time_s: float = 0.0
    checkpoint_time_s: float = 0.0
    recovery_time_s: float = 0.0
    #: Whether the circuit breaker is currently shedding BULK work.
    breaker_open: bool = False
    #: How many times the breaker tripped so far.
    breaker_trips: int = 0
    classes: dict[Priority, ClassTally] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def record(self, handle) -> None:
        """Tally one handle that just reached a terminal state."""
        tally = self.classes.setdefault(handle.request.priority, ClassTally())
        if handle.status is RequestStatus.REJECTED:
            tally.rejected += 1
        elif handle.status is RequestStatus.FAILED:
            tally.failed += 1
        elif handle.status is RequestStatus.CANCELLED:
            tally.cancelled += 1
        else:
            tally.latencies.append(handle.latency_s)
            tally.queue_waits.append(handle.queue_wait_s)
            # Completion in simulated time: the latency clock runs from
            # arrival.
            tally.last_completion_s = max(
                tally.last_completion_s, handle.arrival_s + handle.latency_s
            )
            if handle.deadline_met is True:
                tally.sla_met += 1
            elif handle.deadline_met is False:
                tally.sla_missed += 1

    def merge(self, other: "ServiceStats") -> "ServiceStats":
        """Fold ``other`` in (see :func:`_merge_fields`); returns self."""
        return _merge_fields(self, other)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    rejected = _class_total("rejected")
    #: Terminal faults: permanent transfer failure, breaker shed, last host lost.
    failed = _class_total("failed")
    cancelled = _class_total("cancelled")
    deadline_met = _class_total("sla_met")

    @property
    def admitted(self) -> int:
        return self.submitted - self.rejected

    @property
    def completed(self) -> int:
        return sum(len(tally.latencies) for tally in self.classes.values())

    @property
    def deadline_missed(self) -> int:
        """Completed-late plus cancelled deadline-carrying requests."""
        missed = sum(tally.sla_missed for tally in self.classes.values())
        return missed + self.cancelled

    @property
    def queries_per_second(self) -> float:
        """Completed queries over the served makespan (0 when idle)."""
        if self.makespan_s <= 0.0:
            return 0.0
        return self.completed / self.makespan_s

    @property
    def deadline_attainment(self) -> float:
        """Fraction of deadline-carrying requests that met their SLA."""
        carrying = self.deadline_met + self.deadline_missed
        if carrying == 0:
            return 1.0
        return self.deadline_met / carrying

    @property
    def latencies_by_class(self) -> dict[Priority, list[float]]:
        """Completed-request latencies per class that completed any."""
        return {
            priority: self.classes[priority].latencies
            for priority in sorted(self.classes)
            if self.classes[priority].latencies
        }

    def class_latencies(self, priority: Priority) -> list[float]:
        """Completed-request latencies of one priority class."""
        tally = self.classes.get(Priority.parse(priority))
        return tally.latencies if tally is not None else []

    def latency_percentile(self, priority: Priority, q: float) -> float:
        """A latency percentile (e.g. ``95``) of one class; 0.0 when empty."""
        return percentile(self.class_latencies(priority), q)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def rows(self) -> dict[str, dict[str, object]]:
        """:func:`class_row` of every class that completed a query, by name."""
        return {
            priority.name.lower(): class_row(self.classes[priority])
            for priority in self.latencies_by_class
        }

    def class_rows(self) -> list[dict[str, object]]:
        """Per-class latency table rows (for ``format_table``)."""
        return [
            {
                "class": name,
                "queries": row["count"],
                "p50 (s)": round(row["p50_s"], 6),
                "p95 (s)": round(row["p95_s"], 6),
                "p99 (s)": round(row["p99_s"], 6),
                "max (s)": round(row["max_s"], 6),
            }
            for name, row in self.rows().items()
        ]

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly dump (benchmark artifacts, trace reports)."""
        names = [spec.name for spec in fields(self) if spec.name != "classes"]
        payload = {
            name: getattr(self, name) for name in (*names, *COUNTER_FIELDS, *GAUGE_FIELDS)
        }
        payload["latencies_by_class"] = {
            priority.name.lower(): list(latencies)
            for priority, latencies in self.latencies_by_class.items()
        }
        payload["classes"] = [
            {"class": name, "queries": row["count"], **row}
            for name, row in self.rows().items()
        ]
        return payload
