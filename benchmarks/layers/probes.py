"""Outside-in tracing: wrap each layer's public callables for one traced run.

Nothing in ``src/`` knows about this.  :func:`install` replaces the
callables named in :data:`PROBES` (class attributes, so import style
does not matter; ``staticmethod``/``classmethod`` wrappers are kept) with
timing wrappers bound to a :class:`Recorder`, and returns the function
that puts the originals back.

A wrapper opens a span at call and closes it at return.  A span's *self
time* is its duration minus the durations of the spans opened inside it,
so every nanosecond of a traced pass lands in exactly one metric and the
per-layer self times add up to the pass.  Totals are always kept; full
spans (name, start, end, parent, wave) are kept for a seeded sample of
waves and written out as Chrome ``trace_event`` JSON at the end.

A target that no longer exists is skipped and counted in
``Recorder.missing`` rather than raised: a later change may move a
callable, and the benchmark that judges that change must still run.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Share of waves (``GraphService.step`` / ``system.run`` calls) whose
#: full spans are kept, beyond the first one.
WAVE_SAMPLE_RATE = 0.05
#: Hard cap on kept spans (a sampled PageRank wave holds ~10^4).
MAX_SPANS = 200_000


@dataclass(frozen=True)
class Probe:
    """One public callable to wrap.

    ``target`` is ``"module:Class.attr"`` (or ``"module:Class.attr+"`` to
    also wrap every subclass that overrides ``attr``).  ``self_metric``
    receives the spans' self time, ``calls_metric`` (optional) their
    count, ``size_metric`` (optional) the sum of ``size(args)``.
    ``wave`` marks the callable whose every call starts a new wave — the
    unit span sampling works in.
    """

    target: str
    self_metric: str
    calls_metric: str | None = None
    size_metric: str | None = None
    size: Callable | None = None
    wave: bool = False


def _destinations(args) -> int:
    # (target, destinations, values): the backend kernels are static.
    return int(args[1].size)


def _layer(layer: str, *targets: str, calls: str | None = "calls", **kwargs) -> list[Probe]:
    return [
        Probe(target, "%s.self_s" % layer, calls and "%s.%s" % (layer, calls), **kwargs)
        for target in targets
    ]


_KERNEL = "repro.core.backends:active_backend()"

PROBES: list[Probe] = (
    _layer("algorithms", "repro.algorithms.base:VertexProgram.process+")
    + _layer(
        "kernel",
        *("%s.%s" % (_KERNEL, name) for name in ("push_and_activate", "scatter_add", "scatter_min", "scatter_max")),
        size_metric="kernel.edges", size=_destinations,
    )
    # HyTGraph's solo ``run`` and its batch-runner ``plan_iteration`` meet
    # in ``_plan``; the baselines plan in ``plan_iteration`` itself.
    # ``HyTGraphSystem.plan_iteration`` only forwards and stays unwrapped
    # so a planned iteration counts once.
    + _layer(
        "plan",
        "repro.core.engine:HyTGraphEngine._plan",
        "repro.systems.emogi:EmogiSystem.plan_iteration",
        "repro.systems.subway:SubwaySystem.plan_iteration",
        "repro.systems.exptm_filter:ExpTMFilterSystem.plan_iteration",
    )
    + _layer("cost_model", "repro.core.cost_model:CostModel.estimate")
    + _layer("selection", "repro.core.selection:EngineSelector.select")
    + _layer("combiner", "repro.core.combiner:TaskCombiner.combine")
    + _layer("priority", "repro.core.priority:ContributionScheduler.prioritize")
    + _layer("transfer", "repro.transfer.base:TransferEngine.transfer_task+")
    + _layer("streams", "repro.sim.streams:StreamScheduler.place", calls="place_calls")
    + _layer("streams", "repro.sim.streams:StreamScheduler.schedule", calls=None)
    + _layer("schedule", "repro.runtime.context:ExecutionContext.schedule")
    + _layer(
        "driver",
        "repro.runtime.driver:IterationDriver.plan",
        "repro.runtime.driver:IterationDriver.finish",
        "repro.runtime.driver:IterationDriver.snapshot",
    )
    # The solo iteration loops: the root spans of ``solo_grid``.
    + _layer(
        "driver",
        "repro.systems.base:GraphSystem.run",
        "repro.systems.hytgraph:HyTGraphSystem.run",
        calls=None, wave=True,
    )
    + _layer("batch", "repro.runtime.batch:QueryBatchRunner.run")
    + _layer(
        "cache",
        *("repro.cache.manager:CacheManager.%s" % name for name in (
            "begin_iteration", "observe_frontier", "split_billable", "claim_billable", "fill",
        )),
    )
    + _layer(
        "admission",
        *("repro.service.admission:AdmissionController.%s" % name for name in (
            "estimate_request_bytes", "decide", "take_wave", "release",
        )),
    )
    + [
        Probe("repro.service.core:GraphService.submit", "service.submit_self_s", "service.submit_calls"),
        Probe("repro.service.core:GraphService.step", "service.step_self_s", "service.step_calls", wave=True),
        Probe("repro.service.core:GraphService.harvest", "service.harvest_self_s"),
    ]
    + _layer("replay", "repro.service.replay:ReplayHarness.replay", calls=None)
    + _layer(
        "faults",
        "repro.faults.checkpoint:QueryCheckpoint.capture",
        "repro.faults.checkpoint:QueryCheckpoint.restore",
        calls="checkpoint_calls",
    )
    + _layer(
        "faults",
        "repro.faults.injector:FaultInjector.begin_super_iteration",
        "repro.faults.injector:FaultInjector.perturb_transfers",
        calls=None,
    )
    + _layer("router", "repro.cluster.router:Router.route")
    + _layer("cluster", "repro.cluster.service:ClusterService.step", calls="step_calls")
    + _layer(
        "cluster",
        "repro.cluster.service:ClusterService.submit",
        "repro.cluster.service:ClusterService.harvest",
        calls=None,
    )
)


class Recorder:
    """Span stack, per-metric totals and the sampled span list of one run."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        #: Targets of :data:`PROBES` that could not be resolved.
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: Open spans, innermost last: ``[child_ns, span_id]``.
        self.stack: list[list[int]] = []
        self.wave = 0
        self.sampling = False

    def reset(self) -> None:
        """Zero the totals before a pass (sampled spans and the wave counter stay)."""
        self.self_ns.clear()
        self.counts.clear()

    def totals(self) -> dict[str, float]:
        """Self seconds and counts by metric name."""
        totals = {name: ns / 1e9 for name, ns in self.self_ns.items()}
        totals.update(self.counts)
        return totals

    def begin_wave(self) -> None:
        self.wave += 1
        self.sampling = len(self.spans) < MAX_SPANS and (
            self.wave == 1 or self._rng.random() < WAVE_SAMPLE_RATE
        )

    def wrap(self, function: Callable, name: str, probe: Probe) -> Callable:
        stack, now = self.stack, time.perf_counter_ns
        self_metric, calls_metric = probe.self_metric, probe.calls_metric
        size_metric, size, wave = probe.size_metric, probe.size, probe.wave

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if wave:
                self.begin_wave()
            span_id = len(self.spans) if self.sampling else -1
            if span_id >= 0:
                self.spans.append(None)  # reserve the slot: ids are start-ordered
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            stack.append(frame)
            started = now()
            try:
                return function(*args, **kwargs)
            finally:
                ended = now()
                stack.pop()
                duration = ended - started
                self.self_ns[self_metric] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if calls_metric is not None:
                    self.counts[calls_metric] += 1
                if size is not None:
                    self.counts[size_metric] += size(args)
                if span_id >= 0:
                    self.spans[span_id] = (name, self_metric, started, ended, parent, self.wave)

        return traced

    def timed_iterator(self, self_metric: str, name: str, iterator):
        """Wrap an iterator so each ``next`` is a span (the load generator's own cost)."""
        # iter(callable, sentinel) ends when the callable raises StopIteration.
        return iter(self.wrap(iterator.__next__, name, Probe(name, self_metric)), object())

    def write_chrome_trace(self, path: Path) -> Path:
        """The sampled spans as Chrome ``trace_event`` JSON (host clock)."""
        from repro.obs import chrome_trace
        from repro.obs.tracer import Span

        kept = [(index, span) for index, span in enumerate(self.spans) if span is not None]
        origin = min((span[2] for _, span in kept), default=0)
        payload = chrome_trace([
            Span(
                index, self_metric.split(".")[0], name, "host",
                (started - origin) / 1e9, (ended - origin) / 1e9,
                {"parent": parent, "wave": wave},
            )
            for index, (name, self_metric, started, ended, parent, wave) in kept
        ])
        payload["otherData"]["clock"] = "host"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return path


def _resolve(target: str) -> list[tuple[object, str]]:
    """``(owner, attr)`` pairs a probe target names (empty when it is gone)."""
    module_name, _, path = target.partition(":")
    subclasses = path.endswith("+")
    owner_path, _, attr = path.rstrip("+").rpartition(".")
    try:
        owner = importlib.import_module(module_name)
        for part in owner_path.split("."):
            owner = getattr(owner, part[:-2])() if part.endswith("()") else getattr(owner, part)
    except (ImportError, AttributeError):
        return []
    if not isinstance(owner, type):
        owner = type(owner)  # ``active_backend()`` yields an instance
    owners = [owner]
    if subclasses:
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            owners.append(cls)
            pending.extend(cls.__subclasses__())
    return [
        (cls, attr)
        for cls in owners
        if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False)
    ]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every resolvable probe target; returns the ``remove`` function.

    ``remove`` restores the original attribute objects and raises if any
    wrapper is still reachable afterwards.
    """
    originals: list[tuple[type, str, object]] = []
    seen: set[tuple[type, str]] = set()
    recorder.missing = []
    for probe in PROBES:
        resolved = _resolve(probe.target)
        if not resolved:
            recorder.missing.append(probe.target)
        for owner, attr in resolved:
            if (owner, attr) in seen:
                continue
            seen.add((owner, attr))
            raw = vars(owner)[attr]
            name = "%s.%s" % (owner.__name__, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(recorder.wrap(raw.__func__, name, probe))
            else:
                wrapped = recorder.wrap(raw, name, probe)
            originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove() -> None:
        for owner, attr, raw in originals:
            setattr(owner, attr, raw)
        left = [
            "%s.%s" % (owner.__name__, attr)
            for owner, attr, raw in originals
            if vars(owner)[attr] is not raw
        ]
        if left:
            raise RuntimeError("probes still installed after removal: %s" % ", ".join(left))

    return remove
