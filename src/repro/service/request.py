"""Typed request/response surface of the serving API.

A :class:`QueryRequest` is what a client of :class:`~repro.service.GraphService`
submits: which algorithm, from which source, at which :class:`Priority`
class, optionally with a latency deadline (the SLA).  Submission returns
a :class:`QueryHandle` that walks the request lifecycle::

    submit() ──▶ QUEUED ──▶ RUNNING ──▶ DONE ──▶ result()
          │
          └────▶ REJECTED (admission control; see repro.service.admission)

Handles are poll-based: :meth:`QueryHandle.poll` never executes anything,
:meth:`QueryHandle.result` drains the service's queue on demand.

Under fault injection two more terminal states exist: ``FAILED`` (a
fault persisted through the retry policy, or the circuit breaker shed
the request) and ``CANCELLED`` (deadline enforcement).  Demanding such a
request's result raises :class:`QueryFailed` carrying the fault cause
and the attempt count, mirroring how :class:`RequestRejected` surfaces
admission refusals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

from repro.metrics.results import RunResult

__all__ = [
    "Priority",
    "QueryRequest",
    "RequestStatus",
    "QueryHandle",
    "RequestRejected",
    "QueryFailed",
]


class Priority(IntEnum):
    """Request priority classes (lower value = served first).

    The scheduler orders merged per-device task lists in strict class
    order — every stream task of a higher class is scheduled before any
    task of a lower class — so one INTERACTIVE point lookup is never
    stuck behind a BULK analytical scan.
    """

    #: Cheap point lookups with tight latency expectations.
    INTERACTIVE = 0
    #: The default class for ordinary queries.
    STANDARD = 1
    #: Heavy analytical work that tolerates queueing.
    BULK = 2

    @classmethod
    def parse(cls, value: "Priority | str | int") -> "Priority":
        """Coerce an enum member, name (``"interactive"``) or value."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ValueError(
                    "unknown priority %r; pick one of: %s"
                    % (value, ", ".join(member.name.lower() for member in cls))
                ) from None
        return cls(value)


@dataclass(frozen=True)
class QueryRequest:
    """One typed query submission.

    Attributes
    ----------
    algorithm:
        Registry key of the vertex program (``"sssp"``, ``"bfs"``,
        ``"cc"``, ``"pagerank"``, ``"php"``).
    source:
        Traversal source for source-based algorithms (``None`` for the
        sourceless ones; ``None`` on a source-based algorithm lets the
        service pick its default source).
    priority:
        Scheduling class; also accepts the class name as a string.
    deadline_s:
        Optional latency SLA in simulated seconds.  Missing it never
        cancels the query — the service records the miss per request
        (:attr:`QueryHandle.deadline_met`) and aggregates SLA attainment
        in :class:`~repro.service.stats.ServiceStats`.  With arrival
        timestamps the SLA clock starts at :attr:`arrival_s`, not at
        the start of the serving run.
    label:
        Free-form client tag carried through to the handle (trace names,
        tenant ids).
    arrival_s:
        Simulated arrival timestamp.  ``0.0`` (the default) reproduces
        the historical everything-at-once behaviour; a trace whose
        requests carry increasing arrivals is served event-driven —
        waves form only over requests that have arrived, and queue wait
        is measured from this timestamp.
    """

    algorithm: str
    source: int | None = None
    priority: Priority = Priority.STANDARD
    deadline_s: float | None = None
    label: str | None = None
    arrival_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "priority", Priority.parse(self.priority))
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        if not (self.arrival_s >= 0.0):  # also catches NaN
            raise ValueError("arrival_s must be a non-negative time")


class RequestStatus(Enum):
    """Lifecycle state of a submitted request."""

    #: Admitted and waiting for a scheduling wave.
    QUEUED = "queued"
    #: Refused by admission control (terminal; see ``reject_reason``).
    REJECTED = "rejected"
    #: Being executed in the current scheduling wave.
    RUNNING = "running"
    #: Finished; the result is available (terminal).
    DONE = "done"
    #: A fault persisted through recovery, or the circuit breaker shed
    #: the request (terminal; see ``fault_cause``).
    FAILED = "failed"
    #: Deadline enforcement cancelled the query mid-run (terminal).
    CANCELLED = "cancelled"


#: The states no request leaves.
_TERMINAL = frozenset(
    {RequestStatus.DONE, RequestStatus.REJECTED, RequestStatus.FAILED, RequestStatus.CANCELLED}
)


class RequestRejected(RuntimeError):
    """Raised when a rejected request's result is demanded."""


class QueryFailed(RuntimeError):
    """Raised when a failed or cancelled request's result is demanded.

    Attributes
    ----------
    cause:
        The fault cause recorded by the runtime (e.g. ``"transfer fault
        persisted through 4 attempts"`` or a deadline message).
    attempts:
        Transfer attempts of the fatal fault (0 for cancellations and
        breaker sheds).
    """

    def __init__(self, message: str, cause: str | None = None, attempts: int = 0):
        super().__init__(message)
        self.cause = cause
        self.attempts = attempts


@dataclass
class QueryHandle:
    """Client-side view of one submitted request (submit → poll → result)."""

    request: QueryRequest
    request_id: int
    status: RequestStatus = RequestStatus.QUEUED
    #: Why admission control refused the request (``None`` unless REJECTED).
    reject_reason: str | None = None
    #: Admission-control estimate of the request's bytes in flight.
    estimated_bytes: int = 0
    #: Scheduling wave the request ran in (``None`` until it runs).
    wave: int | None = None
    #: Simulated arrival-to-completion latency (queue wait + execution).
    latency_s: float | None = None
    #: Simulated seconds between arrival and the first wave that ran the
    #: request (``None`` until it runs).
    queue_wait_s: float | None = None
    #: How many times the query was preempted at a super-iteration
    #: boundary and later resumed from its checkpoint.
    preemptions: int = 0
    #: SLA outcome (``None`` when the request carried no deadline).
    deadline_met: bool | None = None
    #: Why the request FAILED / was CANCELLED (``None`` otherwise).
    fault_cause: str | None = None
    #: Transfer attempts of the fatal fault (0 unless FAILED on one).
    attempts: int = 0
    #: Earliest simulated time a scheduling wave may take this handle:
    #: the arrival stamp, raised above it only by cross-host checkpoint
    #: shipping, whose network transfer must land before the query can
    #: resume.
    ready_s: float = field(default=0.0, repr=False)
    #: Suspended-state checkpoint of a preempted query (``None`` unless
    #: the request is currently waiting to resume).
    _checkpoint: object | None = field(default=None, repr=False)
    _service: object | None = field(default=None, repr=False)
    #: The resolved (program, source) pair the service will execute.
    _query: tuple | None = field(default=None, repr=False)
    _result: RunResult | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.ready_s = max(self.request.arrival_s, self.ready_s)

    @property
    def arrival_s(self) -> float:
        """The request's simulated arrival timestamp."""
        return self.request.arrival_s

    @property
    def done(self) -> bool:
        """Whether the request reached a terminal state."""
        return self.status in _TERMINAL

    def poll(self) -> RequestStatus:
        """Current lifecycle state; never triggers execution."""
        return self.status

    def result(self, wait: bool = True) -> RunResult | None:
        """The query's :class:`RunResult`.

        ``wait=True`` (default) drains the owning service's queue until
        this request completes; ``wait=False`` returns ``None`` when the
        result is not ready yet.  Raises :class:`RequestRejected` for
        requests refused by admission control and :class:`QueryFailed`
        for requests that failed terminally or were cancelled.
        """
        if self.status is RequestStatus.REJECTED:
            raise RequestRejected(
                "request %d (%s) was rejected: %s"
                % (self.request_id, self.request.algorithm, self.reject_reason)
            )
        if self._result is None and not self.done and wait:
            self._service.drain()
        if self.status in (RequestStatus.FAILED, RequestStatus.CANCELLED):
            raise QueryFailed(
                "request %d (%s) %s: %s"
                % (
                    self.request_id,
                    self.request.algorithm,
                    "failed" if self.status is RequestStatus.FAILED else "was cancelled",
                    self.fault_cause,
                ),
                cause=self.fault_cause,
                attempts=self.attempts,
            )
        return self._result
