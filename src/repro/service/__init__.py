"""Session-oriented serving API: typed requests, priorities/SLAs, admission.

This package is the public entry point for running queries — the API
spine the scaling features (priority scheduling, admission control,
future async pipelining and multi-backend execution) plug into:

* :class:`~repro.service.core.GraphService` — one warmed execution
  session per (graph, hardware, config), serving typed requests;
* :class:`~repro.service.request.QueryRequest` /
  :class:`~repro.service.request.QueryHandle` — the submit → poll →
  result lifecycle, with per-request :class:`~repro.service.request.Priority`
  classes and optional latency deadlines;
* :class:`~repro.service.config.ServiceConfig` — system, cache
  and serving knobs as one dataclass (the platform is the
  graph and hardware passed next to it);
* :class:`~repro.service.admission.AdmissionController` — bounded
  estimated bytes in flight per scheduling wave;
* :class:`~repro.service.stats.ServiceStats` — admission counters,
  per-class latency percentiles, SLA attainment.

The executing CLI subcommands serve through this package; a solo run
without a service is ``make_system(...).run`` (``Workload.run`` for a
benchmark cell).
"""

from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.core import GraphService
from repro.service.replay import ReplayHarness, ReplayReport
from repro.service.request import (
    Priority,
    QueryFailed,
    QueryHandle,
    QueryRequest,
    RequestRejected,
    RequestStatus,
)
from repro.service.stats import ServiceStats
from repro.service.trace import (
    ARRIVAL_PROCESSES,
    arrival_times,
    iter_arrival_times,
    load_trace_file,
    synthetic_mixed_trace,
    timed_mixed_trace,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "arrival_times",
    "iter_arrival_times",
    "load_trace_file",
    "synthetic_mixed_trace",
    "timed_mixed_trace",
    "AdmissionController",
    "GraphService",
    "Priority",
    "QueryFailed",
    "QueryHandle",
    "QueryRequest",
    "ReplayHarness",
    "ReplayReport",
    "RequestRejected",
    "RequestStatus",
    "ServiceConfig",
    "ServiceStats",
]
