"""Tests of the observability layer (:mod:`repro.obs`).

Four guarantees anchor the tracer:

1. **Invisibility** — tracing never changes a served number: with the
   no-op tracer the instrumented paths execute the exact pre-tracer
   arithmetic, and a recording tracer observes bitwise the same run.
2. **Tiling** — a traced query's track is tiled with non-overlapping
   spans (queue wait, restore/capture copies, exec tiles, suspensions)
   whose durations sum to its measured service latency.
3. **Determinism** — equal runs emit bitwise-equal span streams (the
   golden-file test), and query sampling is a pure hash of the request
   id.
4. **Exportability** — the Chrome trace payload passes the shared schema
   validator and reconstructs per-query latency budgets through the
   flight recorder.

Regenerating the golden span stream after an intentional instrumentation
change (module-level scenario of ``test_golden_span_stream``)::

    PYTHONPATH=src python - <<'EOF'
    from repro.graph.generators import rmat_graph
    from repro.obs import spans_to_jsonl
    from repro.service import GraphService, QueryRequest, ServiceConfig
    from repro.sim.config import HardwareConfig
    graph = rmat_graph(400, 3200, seed=11, weighted=True, name="obs-rmat")
    hw = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2,
                        pcie_bandwidth=1e9)
    service = GraphService(ServiceConfig(system="hytgraph", tracing=True),
                           graph=graph, hardware=hw)
    service.submit(QueryRequest(algorithm="pagerank", priority="bulk",
                                label="analytic"))
    service.submit(QueryRequest(algorithm="bfs", source=0,
                                priority="interactive", label="lookup"))
    service.drain()
    open("tests/data/golden_trace_spans.jsonl", "w").write(
        spans_to_jsonl(service.tracer.spans()))
    EOF
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph.generators import rmat_graph
from repro.metrics.percentiles import percentile, percentiles
from repro.obs import (
    CATEGORIES,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TracingConfig,
    chrome_trace,
    flight_report,
    make_tracer,
    query_summary,
    query_tracks,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.service import (
    GraphService,
    QueryRequest,
    ReplayHarness,
    ServiceConfig,
)
from repro.sim.config import HardwareConfig
from repro.systems import make_system

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace_spans.jsonl"


@pytest.fixture(scope="module")
def obs_graph():
    """A weighted RMAT graph small enough for golden files."""
    return rmat_graph(400, 3200, seed=11, weighted=True, name="obs-rmat")


@pytest.fixture(scope="module")
def obs_hardware(obs_graph):
    """Half the edge data fits on device: transfers and cache churn."""
    return HardwareConfig(
        gpu_memory_bytes=obs_graph.edge_data_bytes // 2, pcie_bandwidth=1e9
    )


def _mixed_service(obs_graph, obs_hardware, **config_kwargs):
    config = ServiceConfig(system="hytgraph", **config_kwargs)
    return GraphService(config, graph=obs_graph, hardware=obs_hardware)


def _serve_mix(service):
    """One bulk PageRank + one interactive BFS, drained."""
    handles = [
        service.submit(
            QueryRequest(algorithm="pagerank", priority="bulk", label="analytic")
        ),
        service.submit(
            QueryRequest(algorithm="bfs", source=0, priority="interactive", label="lookup")
        ),
    ]
    service.drain()
    return handles


class TestTracer:
    def test_null_tracer_is_inert(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.span("query", "x", "t", 0.0, 1.0) is None
        assert NULL_TRACER.instant("query", "x") is None
        assert NULL_TRACER.cursor("t", default=7.5) == 7.5
        assert NULL_TRACER.trace_query(3) is False
        assert NULL_TRACER.spans() == []
        NULL_TRACER.set_clock(5.0)
        NULL_TRACER.set_sample(0.5)  # no-op, not an error

    def test_make_tracer(self):
        assert make_tracer(None) is NULL_TRACER
        assert make_tracer(False) is NULL_TRACER
        assert isinstance(make_tracer(True), Tracer)
        config = TracingConfig(capacity=8)
        tracer = make_tracer(config)
        assert tracer.config is config

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TracingConfig(capacity=0)
        with pytest.raises(ValueError):
            TracingConfig(sample=1.5)
        with pytest.raises(ValueError):
            Tracer().set_sample(-0.1)

    def test_span_ids_and_cursor(self):
        tracer = Tracer()
        a = tracer.span("iteration", "iter0", "query:q0", 0.0, 1.5)
        b = tracer.instant("query", "done", track="query:q0", t=1.5)
        assert (a.span_id, b.span_id) == (0, 1)
        assert b.is_instant and not a.is_instant
        # Spans advance the track cursor; instants do not.
        assert tracer.cursor("query:q0") == 1.5
        assert tracer.cursor("query:q1", default=3.0) == 3.0

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(TracingConfig(capacity=3))
        for index in range(5):
            tracer.span("iteration", "iter%d" % index, "t", float(index), index + 1.0)
        retained = tracer.spans()
        assert [span.name for span in retained] == ["iter2", "iter3", "iter4"]
        assert tracer.total_spans == 5
        assert tracer.dropped_spans == 2

    def test_sampling_is_deterministic_hash(self):
        tracer = Tracer(TracingConfig(sample=0.5, seed=3))
        picked = {rid for rid in range(200) if tracer.trace_query(rid)}
        again = {rid for rid in range(200) if tracer.trace_query(rid)}
        assert picked == again
        assert 0 < len(picked) < 200
        # Edge samples short-circuit the hash entirely.
        tracer.set_sample(0.0)
        assert not any(tracer.trace_query(rid) for rid in range(50))
        tracer.set_sample(1.0)
        assert all(tracer.trace_query(rid) for rid in range(50))

    def test_instant_defaults_to_clock_and_category_lane(self):
        tracer = Tracer()
        tracer.set_clock(2.25)
        record = tracer.instant("cache", "evict", bytes=64)
        assert record.track == "cache"
        assert record.start_s == record.end_s == 2.25


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.count("service.completed", 2)
        registry.count("service.completed", 3)
        registry.gauge("service.makespan_s", 1.5)
        for value in (0.0002, 0.003, 0.003, 20.0, 1000.0):
            registry.observe("service.latency_s.bulk", value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["service.completed"] == 5
        assert snapshot["gauges"]["service.makespan_s"] == 1.5
        histogram = snapshot["histograms"]["service.latency_s.bulk"]
        assert histogram["count"] == 5
        assert histogram["sum"] == pytest.approx(1020.0062)
        assert list(histogram["bounds"]) == list(LATENCY_BUCKETS_S)
        # One overflow bucket beyond the last bound, and it caught 1000.0.
        assert len(histogram["counts"]) == len(LATENCY_BUCKETS_S) + 1
        assert histogram["counts"][-1] == 1

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.count("z.last", 1)
        registry.count("a.first", 1)
        registry.merge_counters("cache", {"hits": 3, "admits": 1})
        snapshot = registry.snapshot()
        names = list(snapshot["counters"])
        assert names == sorted(names)
        assert snapshot["counters"]["cache.hits"] == 3


class TestPercentileHelper:
    def test_matches_numpy_bitwise(self):
        values = np.random.default_rng(7).random(101)
        for q in (50, 95, 99):
            assert percentile(values, q) == float(np.percentile(values, q))
        assert list(percentiles(values, (50, 95))) == [
            percentile(values, 50),
            percentile(values, 95),
        ]

    def test_empty_is_zero(self):
        assert percentile([], 95) == 0.0


class TestChromeExport:
    def test_schema_and_metadata(self):
        tracer = Tracer()
        tracer.span("wave", "wave0", "service", 0.0, 1.0)
        tracer.instant("query", "done", track="query:q0", t=1.0, latency_s=1.0)
        payload = chrome_trace(tracer.spans(), metrics={"counters": {}}, dropped=0)
        assert validate_chrome_trace(payload) == []
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"service", "query:q0"}
        assert payload["otherData"]["clock"] == "simulated"
        assert payload["otherData"]["metrics"] == {"counters": {}}
        assert payload["otherData"]["tracks"] == ["service", "query:q0"]

    def test_validator_catches_problems(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        bad = {
            "traceEvents": [
                {"name": "x", "cat": "query", "ph": "X", "ts": -1.0, "pid": 0, "tid": 9},
                {"name": "y", "cat": "query", "ph": "B", "ts": 0.0, "pid": 0, "tid": 9},
                {"name": "z", "ph": "X"},
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("bad ts" in problem for problem in problems)
        assert any("unexpected phase" in problem for problem in problems)
        assert any("missing keys" in problem for problem in problems)
        assert any("without thread_name" in problem for problem in problems)

    def test_jsonl_round_trip(self):
        span = Span(0, "iteration", "iter0", "query:q0", 0.0, 0.5, {"kernel_s": 0.1})
        lines = spans_to_jsonl([span]).splitlines()
        assert json.loads(lines[0]) == span.as_dict()


class TestServiceTracing:
    def test_tracing_is_bitwise_invisible(self, obs_graph, obs_hardware):
        def run(tracing):
            service = _mixed_service(
                obs_graph, obs_hardware, tracing=tracing,
                preemption=True, faults="transfer-flaky:p=0.02", cache_policy="lru",
            )
            handles = _serve_mix(service)
            outcomes = [
                (
                    handle.status.name,
                    handle.latency_s,
                    None
                    if handle._result is None or handle._result.values is None
                    else handle._result.values.tobytes(),
                )
                for handle in handles
            ]
            return outcomes, json.dumps(service.stats().as_dict(), default=str)

        assert run(None) == run(True)

    def test_traced_wave_has_identical_batch_numbers(self, obs_graph, obs_hardware):
        """One scheduling path, traced or not: the wave's ``BatchResult`` —
        makespan, per-query latencies and every per-iteration stat the
        timeline's running aggregates fill — does not see the tracer."""

        def wave(tracing):
            service = _mixed_service(
                obs_graph, obs_hardware, tracing=tracing,
                faults="transfer-flaky:p=0.02", cache_policy="lru",
            )
            _serve_mix(service)
            (batch,) = service.batches
            numbers = {
                spec.name: getattr(batch, spec.name)
                for spec in dataclasses.fields(batch)
                if spec.name not in ("results", "extra")
            }
            numbers["iterations"] = [
                [dataclasses.asdict(stats) for stats in result.iterations] for result in batch.results
            ]
            return numbers

        assert wave(None) == wave(True)

    def test_query_tiles_sum_to_latency(self, obs_graph, obs_hardware):
        service = _mixed_service(obs_graph, obs_hardware, tracing=True)
        handles = _serve_mix(service)
        payload = chrome_trace(service.tracer.spans())
        assert validate_chrome_trace(payload) == []
        # Interactive sorts ahead of bulk, so its lane opens first.
        assert query_tracks(payload) == ["lookup", "analytic"]
        for handle in handles:
            label = handle.request.label
            summary = query_summary(payload, label)
            assert summary["status"] == "done"
            assert summary["latency_s"] == pytest.approx(handle.latency_s, abs=1e-12)
            assert summary["components_total_s"] == pytest.approx(
                handle.latency_s, abs=1e-9
            )
            assert summary["iterations"] > 0

    def test_wave_and_device_tracks_present(self, obs_graph, obs_hardware):
        service = _mixed_service(obs_graph, obs_hardware, tracing=True)
        _serve_mix(service)
        spans = service.tracer.spans()
        categories = {span.category for span in spans}
        assert categories <= set(CATEGORIES)
        tracks = {span.track for span in spans}
        assert "service" in tracks
        assert any(track.startswith("dev0:") for track in tracks)
        waves = [span for span in spans if span.category == "wave"]
        supers = [span for span in spans if span.category == "super"]
        assert waves and supers
        # Super-iterations tile their wave.
        wave = waves[0]
        assert supers[0].start_s == wave.start_s
        assert supers[-1].end_s == pytest.approx(wave.end_s)

    def test_preempted_bulk_flight_recorder(self, obs_graph, obs_hardware):
        solo = _mixed_service(obs_graph, obs_hardware)
        total = solo.run(QueryRequest(algorithm="pagerank", priority="bulk")).total_time

        service = _mixed_service(
            obs_graph, obs_hardware, tracing=True, preemption=True
        )
        bulk = service.submit(
            QueryRequest(algorithm="pagerank", priority="bulk", label="bulk-pr")
        )
        service.submit(
            QueryRequest(
                algorithm="bfs", source=0, priority="interactive",
                arrival_s=total * 0.3, label="probe",
            )
        )
        service.drain()
        assert bulk.preemptions >= 1

        payload = chrome_trace(service.tracer.spans())
        summary = query_summary(payload, "bulk-pr")
        assert summary["preemptions"] == bulk.preemptions
        assert summary["copy_bytes"] > 0
        assert summary["copies"]["preemption capture"] > 0
        assert summary["copies"]["resume restore"] > 0
        assert summary["components_total_s"] == pytest.approx(
            bulk.latency_s, abs=1e-9
        )
        # The capture/restore copies bracket the suspension on the track.
        # A zero-length suspension (resume wave forming the instant the
        # capture ends) is elided — the tiling stays exact either way.
        brackets = [
            span
            for span in service.tracer.spans()
            if span.track == "query:bulk-pr"
            and span.name in ("preempt-capture", "suspended", "resume-restore")
        ]
        names = [span.name for span in brackets]
        assert names in (
            ["preempt-capture", "suspended", "resume-restore"],
            ["preempt-capture", "resume-restore"],
        )
        capture, restore = brackets[0], brackets[-1]
        assert capture.end_s <= restore.start_s
        assert capture.attrs["checkpoint_bytes"] > 0
        assert restore.attrs["checkpoint_bytes"] > 0

        report = flight_report(payload, "bulk-pr")
        assert "1 preemption(s)" in report
        assert "preemption capture" in report
        assert "%d checkpoint bytes moved" % summary["copy_bytes"] in report

    def test_golden_span_stream(self, obs_graph, obs_hardware):
        service = _mixed_service(obs_graph, obs_hardware, tracing=True)
        _serve_mix(service)
        emitted = spans_to_jsonl(service.tracer.spans())
        assert emitted == GOLDEN_PATH.read_text(), (
            "the traced span stream changed; if intentional, regenerate "
            "tests/data/golden_trace_spans.jsonl (see the module docstring "
            "of tests/test_obs.py)"
        )

    def test_rejected_request_is_traced(self, obs_graph, obs_hardware):
        service = _mixed_service(
            obs_graph, obs_hardware, tracing=True,
            admission_budget_bytes=0, admission_policy="reject",
        )
        handle = service.submit(
            QueryRequest(algorithm="pagerank", priority="bulk", label="big")
        )
        assert handle.status.name == "REJECTED"
        (span,) = service.tracer.spans()
        assert (span.name, span.track) == ("rejected", "query:big")
        assert "reason" in span.attrs

    def test_sampling_bounds_query_lanes(self, obs_graph, obs_hardware):
        service = _mixed_service(
            obs_graph, obs_hardware, tracing=TracingConfig(sample=0.0)
        )
        _serve_mix(service)
        tracks = {span.track for span in service.tracer.spans()}
        assert not any(track.startswith("query:") for track in tracks)
        assert "service" in tracks  # global lanes always recorded

    def test_metrics_registry_covers_the_service(self, obs_graph, obs_hardware):
        service = _mixed_service(
            obs_graph, obs_hardware, tracing=True, cache_policy="lru",
            faults="transfer-flaky:p=0.05",
        )
        _serve_mix(service)
        snapshot = service.metrics().snapshot()
        stats = service.stats()
        assert snapshot["counters"]["service.completed"] == stats.completed
        assert snapshot["gauges"]["service.makespan_s"] == stats.makespan_s
        assert snapshot["counters"]["trace.spans"] == service.tracer.total_spans
        assert "cache.hit_bytes" in snapshot["counters"]
        assert "faults.injected" in snapshot["counters"]
        for priority, latencies in stats.latencies_by_class.items():
            name = "service.latency_s.%s" % priority.name.lower()
            assert snapshot["histograms"][name]["count"] == len(latencies)

    def test_observability_superset(self, obs_graph, obs_hardware):
        service = _mixed_service(obs_graph, obs_hardware, tracing=True)
        _serve_mix(service)
        payload = service.observability()
        as_dict = service.stats().as_dict()
        for key in as_dict:
            assert key in payload
        assert "metrics" in payload and "device_health" in payload
        json.dumps(payload)  # machine-readable end to end

    def test_export_requires_tracing(self, obs_graph, obs_hardware, tmp_path):
        service = _mixed_service(obs_graph, obs_hardware)
        with pytest.raises(ValueError, match="tracing"):
            service.export_trace(tmp_path / "trace.json")


class TestSoloRunTracing:
    def test_driver_emits_iteration_and_device_spans(self, obs_graph, obs_hardware):
        system = make_system("hytgraph", obs_graph, config=obs_hardware)
        tracer = Tracer()
        system.context.tracer = tracer
        from repro.algorithms import make_algorithm

        result = system.run(make_algorithm("bfs"), source=0)
        spans = tracer.spans()
        tiles = [span for span in spans if span.category == "iteration"]
        assert len(tiles) == result.num_iterations
        assert tiles[0].start_s == 0.0
        assert tiles[-1].end_s == pytest.approx(result.total_time)
        for tile, stats in zip(tiles, result.iterations):
            assert tile.duration_s == pytest.approx(stats.time)
            assert tile.attrs["active_vertices"] == stats.active_vertices
        assert any(span.category == "device" for span in spans)


class TestRunResultObservability:
    def test_run_observability(self, obs_graph, obs_hardware):
        system = make_system("hytgraph", obs_graph, config=obs_hardware)
        from repro.algorithms import make_algorithm

        result = system.run(make_algorithm("pagerank"))
        payload = result.observability()
        assert payload["system"] == result.system
        metrics = payload["metrics"]
        assert metrics["counters"]["run.iterations"] == result.num_iterations
        assert metrics["gauges"]["run.total_time_s"] == result.total_time
        assert metrics["histograms"]["run.iteration_time_s"]["count"] == (
            result.num_iterations
        )
        json.dumps(payload)


class TestReplayTracing:
    def test_trace_sample_hook(self, obs_graph, obs_hardware):
        from repro.service import synthetic_mixed_trace

        service = _mixed_service(obs_graph, obs_hardware, tracing=True)
        harness = ReplayHarness(service, trace_sample=0.0)
        harness.replay(synthetic_mixed_trace(obs_graph, 4, 1, 17))
        tracks = {span.track for span in service.tracer.spans()}
        assert not any(track.startswith("query:") for track in tracks)
        assert "service" in tracks

    def test_null_tracer_accepts_the_hook(self, obs_graph, obs_hardware):
        from repro.service import synthetic_mixed_trace

        service = _mixed_service(obs_graph, obs_hardware)
        harness = ReplayHarness(service, trace_sample=0.25)
        report = harness.replay(synthetic_mixed_trace(obs_graph, 2, 1, 17))
        assert report.completed == 3


class TestCLI:
    def test_serve_trace_out_and_inspect(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "spans.json"
        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "serve", "--dataset", "SK", "--scale", "0.05",
                "--point-lookups", "2", "--analytical", "1",
                "--trace-out", str(trace_path), "--stats-json", str(stats_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "trace: wrote" in output and "stats: wrote" in output

        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        stats = json.loads(stats_path.read_text())
        assert "metrics" in stats and "classes" in stats

        assert main(["inspect", str(trace_path)]) == 0
        listing = capsys.readouterr().out
        assert "lookup-0" in listing and "analytical-0" in listing

        assert main(["inspect", str(trace_path), "--query", "lookup-0"]) == 0
        report = capsys.readouterr().out
        assert "flight recorder: lookup-0" in report
        assert "queue wait" in report

    def test_inspect_unknown_query(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "spans.json"
        trace_path.write_text(json.dumps(chrome_trace([])))
        with pytest.raises(SystemExit, match="traced queries"):
            main(["inspect", str(trace_path), "--query", "nope"])

    def test_batch_stats_json(self, capsys, tmp_path):
        from repro.cli import main

        stats_path = tmp_path / "batch.json"
        code = main(
            [
                "batch", "--dataset", "SK", "--scale", "0.05",
                "--algorithm", "bfs", "--num-queries", "2", "--no-baseline",
                "--stats-json", str(stats_path),
            ]
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["queries"] == 2
        assert len(stats["latencies_s"]) == 2

    def test_run_trace_out(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "run.json"
        code = main(
            [
                "run", "--dataset", "SK", "--scale", "0.05",
                "--algorithm", "bfs", "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert query_tracks(payload) == ["q0"]


class TestClusterTracing:
    """The tiling invariant holds across host loss and migration."""

    def _lossy_cluster(self, obs_graph, obs_hardware):
        from repro.cluster import ClusterConfig, ClusterService

        probe = _mixed_service(obs_graph, obs_hardware)
        estimate = probe.admission.estimate_request_bytes(
            *probe.submit(QueryRequest(algorithm="sssp", source=0))._query
        )
        config = ClusterConfig(
            hosts=2,
            service=ServiceConfig(
                system="hytgraph", tracing=True,
                admission_budget_bytes=int(estimate * 1.5),
                faults="host-loss@1:host=1",
            ),
        )
        return ClusterService(config, graph=obs_graph, hardware=obs_hardware)

    def test_migrated_query_tiles_sum_to_latency(self, obs_graph, obs_hardware):
        cluster = self._lossy_cluster(obs_graph, obs_hardware)
        handles = cluster.submit_many(
            QueryRequest(algorithm="sssp", source=0, label="s%d" % index)
            for index in range(8)
        )
        cluster.drain()
        assert all(handle.done for handle in handles)
        assert cluster.router.failovers > 0

        payload = chrome_trace(cluster.trace_spans())
        assert validate_chrome_trace(payload) == []
        shipped = 0
        for handle in handles:
            summary = query_summary(payload, handle.request.label)
            assert summary["status"] == "done"
            assert summary["components_total_s"] == pytest.approx(
                handle.latency_s, abs=1e-9
            )
            if summary["copies"]["checkpoint shipping"] > 0:
                shipped += 1
        assert shipped == cluster.router.failovers

    def test_flight_report_names_the_shipment(self, obs_graph, obs_hardware):
        cluster = self._lossy_cluster(obs_graph, obs_hardware)
        handles = cluster.submit_many(
            QueryRequest(algorithm="sssp", source=0, label="s%d" % index)
            for index in range(8)
        )
        cluster.drain()
        payload = chrome_trace(cluster.trace_spans())
        migrated = next(
            handle.request.label
            for handle in handles
            if query_summary(payload, handle.request.label)["copies"]["checkpoint shipping"] > 0
        )
        report = flight_report(payload, migrated)
        assert "checkpoint shipping" in report
