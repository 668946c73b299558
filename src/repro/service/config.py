"""One dataclass for every serving knob.

A deployment is described by one :class:`ServiceConfig` value — which
graph, which system, how many devices over which interconnect, which
cache policy and compute backend, and the serving policies (scheduling
discipline, admission budget) layered on top.  It is the only place
those knobs are assembled: the CLI builds one from its flags, the
service builds its system from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.policy import CACHE_POLICIES
from repro.core.backends import resolve_backend_name
from repro.faults import FaultSchedule, RetryPolicy
from repro.obs.tracer import TracingConfig
from repro.systems import SYSTEMS

__all__ = ["ServiceConfig", "SCHEDULING_POLICIES", "ADMISSION_POLICIES"]

#: How a wave's merged task lists are ordered.
SCHEDULING_POLICIES = ("priority", "fifo")

#: What happens to a request that does not fit the admission budget.
ADMISSION_POLICIES = ("queue", "reject")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.GraphService` needs to exist.

    Graph/platform knobs (``dataset``/``scale``/``gpu``/``devices``/
    ``interconnect``) feed :func:`repro.bench.workloads.build_workload`
    when the service builds its own graph; a caller that passes
    ``graph=``/``hardware=`` has already applied them.  The system name
    and the cache, backend and iteration knobs build the system (they
    are not consulted when a prebuilt ``system=`` is substituted);
    serving knobs configure the scheduler and the admission controller.
    """

    # --- system/platform ------------------------------------------------
    system: str = "hytgraph"
    dataset: str = "SK"
    scale: float = 1.0
    gpu: str | None = None
    devices: int = 1
    interconnect: str | None = None
    # --- device-memory cache -------------------------------------------
    cache_policy: str = "static-prefix"
    cache_budget: int | None = None
    # --- compute backend -------------------------------------------------
    #: Kernel-layer compute backend (``"numpy"``, ``"numba"`` or
    #: ``"auto"``); ``None`` keeps the ambient default
    #: (``REPRO_BACKEND`` env override, numpy otherwise).  Validated at
    #: config construction so an unknown or uninstalled backend fails the
    #: deployment immediately, naming the installed backends.
    backend: str | None = None
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
    max_iterations: int | None = None
    # --- faults and recovery ---------------------------------------------
    #: Default latency SLA applied to requests that carry none
    #: (``None`` = no default; must be positive when set).
    deadline_s: float | None = None
    #: When True, a query whose accumulated latency exceeds its
    #: (request or default) deadline is cancelled mid-run instead of
    #: merely recorded as an SLA miss.
    enforce_deadlines: bool = False
    #: Retry policy for transient transfer faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Fault schedule to inject (a :class:`FaultSchedule`, a spec string
    #: such as ``"device-loss@3:device=1;transfer-flaky:p=0.05"``, or
    #: ``None`` for fault-free serving).
    faults: FaultSchedule | str | None = None
    #: Seed of the injector's random stream (applied when ``faults`` is
    #: given as a spec string).
    chaos_seed: int = 0
    #: Checkpoint query state every this many super-iterations.
    checkpoint_interval: int = 1
    #: Consecutive faulty waves before the circuit breaker opens and
    #: queued BULK work is shed.
    breaker_threshold: int = 3
    #: Consecutive clean waves before an open breaker closes again.
    breaker_cooldown: int = 1
    # --- observability ---------------------------------------------------
    #: Span tracing (:mod:`repro.obs`): ``None``/``False`` for the no-op
    #: tracer (zero overhead, the default), ``True`` for a recording
    #: tracer with default :class:`~repro.obs.tracer.TracingConfig`, or
    #: a ``TracingConfig`` for explicit capacity/sampling.  Tracing only
    #: records spans — every served number is bitwise unchanged.
    tracing: TracingConfig | bool | None = None

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
        if self.backend is not None:
            # Raises BackendError (a ValueError) naming the installed
            # backends for unknown or uninstalled names.
            resolve_backend_name(self.backend)
        if self.cache_policy.lower() not in CACHE_POLICIES:
            raise ValueError(
                "unknown cache policy %r; pick one of: %s"
                % (self.cache_policy, ", ".join(sorted(CACHE_POLICIES)))
            )
        if self.admission_budget_bytes is not None and self.admission_budget_bytes < 0:
            raise ValueError("admission_budget_bytes must be non-negative")
        if self.devices < 1:
            raise ValueError("devices must be at least 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (omit it for no deadline)")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_cooldown < 1:
            raise ValueError("breaker_cooldown must be at least 1")
        if isinstance(self.faults, str):
            object.__setattr__(
                self, "faults", FaultSchedule.parse(self.faults, seed=self.chaos_seed)
            )
        if self.tracing is True:
            object.__setattr__(self, "tracing", TracingConfig())
        elif self.tracing is False:
            object.__setattr__(self, "tracing", None)
        elif self.tracing is not None and not isinstance(self.tracing, TracingConfig):
            raise ValueError("tracing must be None, a bool, or a TracingConfig")

    def system_kwargs(self) -> dict:
        """Constructor kwargs for ``make_system`` (cache + backend knobs)."""
        kwargs: dict = {}
        if self.cache_policy != "static-prefix":
            kwargs["cache_policy"] = self.cache_policy
        if self.cache_budget is not None:
            kwargs["cache_budget"] = self.cache_budget
        if self.backend is not None:
            kwargs["backend"] = self.backend
        if self.max_iterations is not None:
            kwargs["max_iterations"] = self.max_iterations
        return kwargs
