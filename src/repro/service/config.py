"""One dataclass for every serving knob.

A deployment is a graph and a :class:`~repro.sim.config.HardwareConfig`
(:func:`repro.bench.workloads.build_workload` builds both; they are
passed to the service, never described here) plus one
:class:`ServiceConfig` value — which system, which cache policy, and
the serving policies (scheduling discipline,
admission budget) layered on top.  It is the only place those knobs are
assembled: the CLI builds one from its flags, the service builds its
system from it.

Checkpointing (every super-iteration), retries, the circuit breaker and
the iteration bound are constants of :mod:`repro.faults` and the system;
the tracer's ring capacity and sampling seed are constants of
:mod:`repro.obs.tracer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policy import CACHE_POLICIES
from repro.faults import FaultSchedule
from repro.systems import SYSTEMS

__all__ = ["ServiceConfig", "SCHEDULING_POLICIES", "ADMISSION_POLICIES"]

#: How a wave's merged task lists are ordered.
SCHEDULING_POLICIES = ("priority", "fifo")

#: What happens to a request that does not fit the admission budget.
ADMISSION_POLICIES = ("queue", "reject")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.GraphService` needs besides its platform.

    The system name and the cache knobs build the system
    over the caller's graph and hardware (they are not consulted when a
    prebuilt ``system=`` is substituted); serving knobs configure the
    scheduler and the admission controller.
    """

    # --- system ---------------------------------------------------------
    system: str = "hytgraph"
    # --- device-memory cache -------------------------------------------
    cache_policy: str = "static-prefix"
    cache_budget: int | None = None
    # --- serving --------------------------------------------------------
    #: ``"priority"`` orders merged tasks by request priority class;
    #: ``"fifo"`` reproduces the historical submission-order co-schedule.
    scheduling: str = "priority"
    #: Estimated-bytes-in-flight ceiling per scheduling wave
    #: (``None`` = unlimited; ``0`` admits only zero-estimate requests).
    admission_budget_bytes: int | None = None
    #: ``"queue"`` holds overflow requests for a later wave; ``"reject"``
    #: refuses them outright (hard back-pressure).
    admission_policy: str = "queue"
    #: When True, a running BULK query yields at super-iteration
    #: boundaries to newly arrived INTERACTIVE work: its state is
    #: checkpointed (copy billed), the wave closes, and it resumes from
    #: the checkpoint in a later wave.  Off by default — the historical
    #: run-to-completion wave behaviour, bitwise.
    preemption: bool = False
    # --- faults and recovery ---------------------------------------------
    #: Default latency SLA applied to requests that carry none
    #: (``None`` = no default; must be positive when set).
    deadline_s: float | None = None
    #: When True, a query whose accumulated latency exceeds its
    #: (request or default) deadline is cancelled mid-run instead of
    #: merely recorded as an SLA miss.
    enforce_deadlines: bool = False
    #: Fault schedule to inject (a :class:`FaultSchedule`, a spec string
    #: such as ``"device-loss@3:device=1;transfer-flaky:p=0.05"``, or
    #: ``None`` for fault-free serving).
    faults: FaultSchedule | str | None = None
    #: Seed of the injector's random stream (applied when ``faults`` is
    #: given as a spec string).
    chaos_seed: int = 0
    # --- observability ---------------------------------------------------
    #: Span tracing (:mod:`repro.obs`): ``False`` for the no-op tracer
    #: (zero overhead, the default), ``True`` for a recording
    #: :class:`~repro.obs.tracer.Tracer`.  Tracing only records spans —
    #: every served number is bitwise unchanged.
    tracing: bool = False

    def __post_init__(self):
        if self.system.lower() not in SYSTEMS:
            raise ValueError(
                "unknown system %r; available: %s"
                % (self.system, ", ".join(sorted(SYSTEMS)))
            )
        if self.scheduling not in SCHEDULING_POLICIES:
            raise ValueError(
                "unknown scheduling policy %r; pick one of: %s"
                % (self.scheduling, ", ".join(SCHEDULING_POLICIES))
            )
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                "unknown admission policy %r; pick one of: %s"
                % (self.admission_policy, ", ".join(ADMISSION_POLICIES))
            )
        if self.cache_policy.lower() not in CACHE_POLICIES:
            raise ValueError(
                "unknown cache policy %r; pick one of: %s"
                % (self.cache_policy, ", ".join(sorted(CACHE_POLICIES)))
            )
        if self.admission_budget_bytes is not None and self.admission_budget_bytes < 0:
            raise ValueError("admission_budget_bytes must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (omit it for no deadline)")
        if isinstance(self.faults, str):
            object.__setattr__(
                self, "faults", FaultSchedule.parse(self.faults, seed=self.chaos_seed)
            )

    def system_kwargs(self) -> dict:
        """Constructor kwargs for ``make_system`` (the cache knobs)."""
        kwargs: dict = {}
        if self.cache_policy != "static-prefix":
            kwargs["cache_policy"] = self.cache_policy
        if self.cache_budget is not None:
            kwargs["cache_budget"] = self.cache_budget
        return kwargs
