"""Tests of time-aware serving (:mod:`repro.service` + runtime preemption).

Four guarantees anchor the event-driven serving path:

1. **Arrival processes** — Poisson / bursty / diurnal generators are
   seed-deterministic (same seed, identical trace), strictly ordered in
   time, and hit their configured long-run mean rate empirically.
2. **Event-driven waves** — waves form only over requests that have
   arrived by the service clock, the clock jumps over idle gaps, and
   latency/queue-wait are measured from each request's arrival stamp.
3. **Preemption invariants** — a BULK query preempted at super-iteration
   boundaries and resumed from its checkpoint converges to per-vertex
   values bitwise equal to an uninterrupted run, across HyTGraph,
   ExpTM-F and Subway; with preemption off nothing changes.
4. **Replay harness** — streamed replays account for every query,
   detach finished handles (bounded memory), and the seeded bitwise
   verification sample matches solo runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.faults.checkpoint import QueryCheckpoint
from repro.graph.generators import rmat_graph
from repro.service import (
    ARRIVAL_PROCESSES,
    GraphService,
    Priority,
    QueryRequest,
    ReplayHarness,
    RequestStatus,
    ServiceConfig,
    arrival_times,
    iter_arrival_times,
    timed_mixed_trace,
)
from repro.sim.config import HardwareConfig

PREEMPTIBLE_SYSTEMS = ["hytgraph", "exptm-f", "subway"]


@pytest.fixture(scope="module")
def graph():
    """One weighted graph every trace algorithm can run against."""
    return rmat_graph(400, 3200, seed=11, weighted=True, name="rmat-timed")


def _transfer_bound_config(graph):
    return HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)


def _service(graph, **config_kwargs):
    config = ServiceConfig(**config_kwargs)
    return GraphService(config, graph=graph, hardware=_transfer_bound_config(graph))


# ----------------------------------------------------------------------
# (1) arrival processes
# ----------------------------------------------------------------------


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_same_seed_identical_trace(self, process):
        first = arrival_times(process, rate=100.0, count=500, seed=42)
        second = arrival_times(process, rate=100.0, count=500, seed=42)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_different_seeds_differ(self, process):
        first = arrival_times(process, rate=100.0, count=200, seed=0)
        second = arrival_times(process, rate=100.0, count=200, seed=1)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_strictly_increasing_nonnegative(self, process):
        times = arrival_times(process, rate=50.0, count=400, seed=3)
        assert times[0] >= 0.0
        assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_empirical_rate_matches_configured(self, process):
        rate = 250.0
        count = 6000
        times = arrival_times(process, rate=rate, count=count, seed=8)
        empirical = count / times[-1]
        # All three processes are parametrized to share the long-run
        # mean rate; 6000 arrivals pin the sample mean within ~10%.
        assert empirical == pytest.approx(rate, rel=0.10)

    def test_streaming_iterator_matches_materialized(self):
        streamed = list(iter_arrival_times("bursty", 80.0, 100, seed=5))
        assert np.array_equal(np.asarray(streamed), arrival_times("bursty", 80.0, 100, seed=5))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            arrival_times("weibull", 1.0, 10)
        with pytest.raises(ValueError, match="rate must be positive"):
            arrival_times("poisson", 0.0, 10)
        with pytest.raises(ValueError, match="rate must be positive, got nan"):
            arrival_times("poisson", float("nan"), 10)
        with pytest.raises(ValueError, match="count must be non-negative"):
            arrival_times("poisson", 1.0, -1)

    def test_timed_mixed_trace_deterministic(self, graph):
        def snapshot():
            return [
                (r.algorithm, r.source, r.priority, r.arrival_s, r.deadline_s)
                for r in timed_mixed_trace(graph, 200, rate=100.0, seed=13, interactive_sla_s=0.5)
            ]

        assert snapshot() == snapshot()

    def test_timed_mixed_trace_mix_and_stamps(self, graph):
        requests = list(
            timed_mixed_trace(
                graph, 400, rate=100.0, seed=2,
                interactive_fraction=0.6, bulk_fraction=0.2, interactive_sla_s=0.25,
            )
        )
        assert len(requests) == 400
        classes = [r.priority for r in requests]
        interactive = classes.count(Priority.INTERACTIVE)
        bulk = classes.count(Priority.BULK)
        assert interactive == pytest.approx(240, abs=60)
        assert bulk == pytest.approx(80, abs=40)
        assert all(r.arrival_s >= 0 for r in requests)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        for request in requests:
            if request.priority is Priority.INTERACTIVE:
                assert request.deadline_s == 0.25
            else:
                assert request.deadline_s is None


# ----------------------------------------------------------------------
# (2) event-driven serving
# ----------------------------------------------------------------------


class TestEventDrivenServing:
    def test_wave_forms_only_over_arrived_requests(self, graph):
        service = _service(graph)
        early = service.submit(QueryRequest("bfs", source=0, arrival_s=0.0))
        late = service.submit(QueryRequest("bfs", source=1, arrival_s=1000.0))
        batch = service.step()
        assert batch is not None
        assert early.status is RequestStatus.DONE
        assert late.status is RequestStatus.QUEUED

    def test_clock_jumps_idle_gaps_and_latency_runs_from_arrival(self, graph):
        service = _service(graph)
        first = service.submit(QueryRequest("bfs", source=0, arrival_s=0.0))
        second = service.submit(QueryRequest("bfs", source=1, arrival_s=5.0))
        service.drain()
        # The second request only exists from t=5; its latency must be
        # its own service time, not five idle seconds of queue wait.
        assert first.latency_s < 1.0
        assert second.latency_s < 1.0
        assert second.queue_wait_s == 0.0
        assert service._clock_s >= 5.0

    def test_queue_wait_measured_from_arrival(self, graph):
        # Both requests arrive at t=0 but a zero admission budget is not
        # used here; instead the second waits for the first wave under a
        # one-request budget.
        estimate = _service(graph).admission.estimate_request_bytes(
            make_algorithm("bfs"), 0
        )
        service = _service(graph, admission_budget_bytes=estimate)
        first = service.submit(QueryRequest("bfs", source=0))
        second = service.submit(QueryRequest("bfs", source=1))
        service.drain()
        assert first.queue_wait_s == 0.0
        assert second.queue_wait_s > 0.0
        assert second.latency_s > second.queue_wait_s

    def test_arrival_stamped_values_bitwise_equal_solo(self, graph):
        service = _service(graph)
        handles = [
            service.submit(QueryRequest("bfs", source=index, arrival_s=0.001 * index))
            for index in range(4)
        ]
        service.drain()
        for index, handle in enumerate(handles):
            solo = service.system.run(make_algorithm("bfs"), source=index)
            assert np.array_equal(handle.result().values, solo.values)

    def test_stats_track_waves_and_preemptions(self, graph):
        service = _service(graph)
        service.submit(QueryRequest("bfs", source=0, arrival_s=0.0))
        service.submit(QueryRequest("bfs", source=1, arrival_s=50.0))
        service.drain()
        stats = service.stats()
        assert stats.waves == 2
        assert stats.preemptions == 0
        assert stats.completed == 2

    def test_harvest_detaches_finished_handles(self, graph):
        service = _service(graph)
        for index in range(3):
            service.submit(QueryRequest("bfs", source=index))
        service.drain()
        before = service.stats()
        finished, batches = service.harvest()
        assert len(finished) == 3
        assert len(batches) >= 1
        assert service._finished == []
        assert service.batches == []
        # The cumulative stats do not depend on the detached records.
        after = service.stats()
        assert after.waves >= 1
        assert after.completed == 3
        assert after.as_dict() == before.as_dict()


# ----------------------------------------------------------------------
# (3) preemption invariants
# ----------------------------------------------------------------------


def _mid_run_scenario(graph, system_name, preemption):
    """BULK PageRank at t=0; INTERACTIVE BFS arriving mid-run."""
    service = _service(graph, system=system_name, preemption=preemption)
    solo = service.system.run(make_algorithm("pagerank"))
    mid_arrival = solo.total_time * 0.3
    bulk = service.submit(QueryRequest("pagerank", priority=Priority.BULK, arrival_s=0.0))
    lookup = service.submit(
        QueryRequest("bfs", source=0, priority=Priority.INTERACTIVE, arrival_s=mid_arrival)
    )
    service.drain()
    return service, solo, bulk, lookup


class TestPreemption:
    @pytest.mark.parametrize("system_name", PREEMPTIBLE_SYSTEMS)
    def test_preempted_bulk_bitwise_equal_uninterrupted(self, graph, system_name):
        service, solo, bulk, lookup = _mid_run_scenario(graph, system_name, preemption=True)
        assert bulk.preemptions >= 1
        assert bulk.status is RequestStatus.DONE
        assert np.array_equal(bulk.result().values, solo.values)
        solo_bfs = service.system.run(make_algorithm("bfs"), source=0)
        assert np.array_equal(lookup.result().values, solo_bfs.values)

    @pytest.mark.parametrize("system_name", PREEMPTIBLE_SYSTEMS)
    def test_preemption_off_runs_to_completion(self, graph, system_name):
        service, solo, bulk, lookup = _mid_run_scenario(graph, system_name, preemption=False)
        assert bulk.preemptions == 0
        assert np.array_equal(bulk.result().values, solo.values)

    def test_preemption_improves_interactive_latency(self, graph):
        _, _, _, waited = _mid_run_scenario(graph, "hytgraph", preemption=False)
        _, _, _, served = _mid_run_scenario(graph, "hytgraph", preemption=True)
        assert served.latency_s < waited.latency_s

    def test_no_preemption_without_interactive_arrivals(self, graph):
        service = _service(graph, preemption=True)
        bulk = service.submit(QueryRequest("pagerank", priority=Priority.BULK))
        other = service.submit(QueryRequest("pagerank", priority=Priority.BULK))
        service.drain()
        assert bulk.preemptions == 0 and other.preemptions == 0
        assert service.stats().preemptions == 0

    def test_preempted_handle_requeues_with_reservation(self, graph):
        service = _service(graph, preemption=True)
        solo = service.system.run(make_algorithm("pagerank"))
        bulk = service.submit(QueryRequest("pagerank", priority=Priority.BULK))
        service.submit(
            QueryRequest(
                "bfs", source=0, priority=Priority.INTERACTIVE,
                arrival_s=solo.total_time * 0.3,
            )
        )
        batch = service.step()
        assert batch.extra.get("suspended"), "first wave should suspend the BULK query"
        assert bulk.status is RequestStatus.QUEUED
        assert bulk._checkpoint is not None
        # Its admission reservation is still held while suspended.
        assert service.admission.pending_bytes > 0
        service.drain()
        assert bulk.status is RequestStatus.DONE
        assert bulk._checkpoint is None
        assert np.array_equal(bulk.result().values, solo.values)

    def test_harvested_preempting_batch_holds_no_checkpoint(self, graph):
        # The suspended query's checkpoint moves onto its handle; the batch
        # record a harvest hands out keeps only the suspended positions.
        service = _service(graph, preemption=True)
        solo = service.system.run(make_algorithm("pagerank"))
        bulk = service.submit(QueryRequest("pagerank", priority=Priority.BULK))
        service.submit(
            QueryRequest(
                "bfs", source=0, priority=Priority.INTERACTIVE,
                arrival_s=solo.total_time * 0.3,
            )
        )
        service.step()
        _, [batch] = service.harvest()
        assert isinstance(bulk._checkpoint, QueryCheckpoint)
        assert batch.extra["suspended"] == [0]
        assert batch.as_dict()["extra"]["suspended_queries"] == [0]
        found, seen, stack = [], set(), [batch]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, QueryCheckpoint):
                found.append(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
        assert found == []

    def test_preempted_then_cancelled_bulk_is_counted_once_each_way(self, graph):
        # Pins the two unified stats definitions: a preemption counts
        # where it happens even if the query never completes, and a
        # CANCELLED query is its class's ``cancelled``, never its
        # ``sla_missed`` (``deadline_missed`` covers both).
        solo = _service(graph).system.run(make_algorithm("pagerank"))
        service = _service(graph, preemption=True, enforce_deadlines=True)
        bulk = service.submit(
            QueryRequest(
                "pagerank", priority=Priority.BULK, deadline_s=solo.total_time * 0.6
            )
        )
        lookup = service.submit(
            QueryRequest(
                "bfs", source=0, priority=Priority.INTERACTIVE,
                arrival_s=solo.total_time * 0.3,
            )
        )
        service.drain()
        assert lookup.status is RequestStatus.DONE
        assert bulk.status is RequestStatus.CANCELLED and bulk.preemptions >= 1
        stats = service.stats()
        assert stats.preemptions == bulk.preemptions
        assert stats.preempted_queries == 1
        tally = stats.classes[Priority.BULK]
        assert (tally.cancelled, tally.sla_missed, tally.sla_met) == (1, 0, 0)
        assert (stats.cancelled, stats.deadline_missed, stats.completed) == (1, 1, 1)
        assert "bulk" not in stats.rows()  # rows cover classes that completed a query
        assert stats.admitted == stats.completed + stats.failed + stats.cancelled


# ----------------------------------------------------------------------
# (4) replay harness
# ----------------------------------------------------------------------


class TestReplayHarness:
    def test_streamed_replay_accounts_for_every_query(self, graph):
        service = _service(graph)
        harness = ReplayHarness(service, lookahead=32)
        report = harness.replay(timed_mixed_trace(graph, 150, rate=2000.0, seed=4))
        assert report.queries == 150
        assert (
            report.completed + report.rejected + report.failed + report.cancelled
            == report.queries
        )
        assert report.completed == 150
        assert report.waves >= 1
        assert report.makespan_s > 0
        # Finished handles were harvested along the way: nothing left.
        assert service._finished == []
        assert service._queue == []

    def test_verify_sample_bitwise(self, graph):
        service = _service(graph)
        harness = ReplayHarness(service, lookahead=32, verify_sample=5, seed=9)
        report = harness.replay(timed_mixed_trace(graph, 80, rate=2000.0, seed=4))
        assert report.verified_queries == 5
        assert report.verified_bitwise is True

    def test_rejection_breakdown(self, graph):
        service = _service(graph, admission_budget_bytes=0, admission_policy="reject")
        harness = ReplayHarness(service, lookahead=16)
        report = harness.replay(timed_mixed_trace(graph, 40, rate=2000.0, seed=4))
        assert report.rejected == 40
        assert report.completed == 0
        assert sum(report.rejections_by_class.values()) == 40

    def test_preemptive_replay_counts_preemptions(self, graph):
        service = _service(graph, preemption=True)
        harness = ReplayHarness(service, lookahead=64)
        report = harness.replay(
            timed_mixed_trace(
                graph, 200, rate=4000.0, seed=6,
                interactive_fraction=0.75, bulk_fraction=0.15,
            )
        )
        assert report.completed == 200
        assert report.preemptions > 0
        assert report.preempted_queries > 0

    def test_report_is_the_service_stats_after_full_harvest(self, graph):
        # One bookkeeper: a fully harvested replay leaves stats() and
        # observability() reading the report's totals, and the report's class
        # rows are what the harvested handles themselves say.
        service = _service(graph, preemption=True)
        harvested = []
        harvest = service.harvest

        def collecting_harvest():
            finished, batches = harvest()
            harvested.extend(finished)
            return finished, batches

        service.harvest = collecting_harvest
        report = ReplayHarness(service, lookahead=48).replay(
            timed_mixed_trace(
                graph, 200, rate=4000.0, seed=6, interactive_fraction=0.75,
                bulk_fraction=0.15, interactive_sla_s=0.002,
            )
        )
        assert service._finished == [] and len(harvested) == 200
        stats = service.stats()
        payload = service.observability()
        assert report.completed == 200
        assert stats.completed == payload["completed"] == report.completed
        assert stats.submitted == payload["submitted"] == report.queries
        assert stats.preemptions == payload["preemptions"] == report.preemptions
        assert report.preemptions == sum(handle.preemptions for handle in harvested)
        assert report.preempted_queries == sum(bool(h.preemptions) for h in harvested)
        assert stats.total_transfer_bytes == payload["total_transfer_bytes"] > 0
        assert stats.makespan_s == report.makespan_s
        assert stats.rows() == report.classes
        expected = {}
        for priority in Priority:
            done = [h for h in harvested if h.request.priority is priority]
            if not done:
                continue
            latencies = np.array([h.latency_s for h in done])
            met = sum(h.deadline_met is True for h in done)
            missed = sum(h.deadline_met is False for h in done)
            expected[priority.name.lower()] = {
                "count": len(done),
                "p50_s": float(np.percentile(latencies, 50)),
                "p95_s": float(np.percentile(latencies, 95)),
                "p99_s": float(np.percentile(latencies, 99)),
                "mean_s": pytest.approx(latencies.mean(), rel=1e-12),
                "max_s": float(latencies.max()),
                "mean_wait_s": pytest.approx(
                    np.mean([h.queue_wait_s for h in done]), rel=1e-12
                ),
                "sla_met": met,
                "sla_missed": missed,
                "sla_attainment": met / (met + missed) if met + missed else 1.0,
            }
        assert report.classes == expected
        assert expected["interactive"]["sla_missed"] > 0
        bulk = [h for h in harvested if h.request.priority is Priority.BULK]
        assert report.bulk_makespan_s == max(h.arrival_s + h.latency_s for h in bulk)

    def test_report_is_json_serializable(self, graph):
        service = _service(graph)
        harness = ReplayHarness(service, lookahead=16)
        report = harness.replay(timed_mixed_trace(graph, 30, rate=1000.0, seed=1))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["queries"] == 30
        assert "interactive" in payload["classes"] or "standard" in payload["classes"]

    def test_validation(self, graph):
        service = _service(graph)
        with pytest.raises(ValueError, match="lookahead"):
            ReplayHarness(service, lookahead=0)
        with pytest.raises(ValueError, match="verify_sample"):
            ReplayHarness(service, verify_sample=-1)
