"""Tests of the multi-node cluster tier (:mod:`repro.cluster`).

Four guarantees anchor the cluster layer:

1. **Degenerate equivalence** — ``hosts=1`` is bitwise a plain
   :class:`~repro.service.GraphService`: same results, same
   :class:`~repro.service.ServiceStats`, same trace spans modulo the
   ``host0:`` track prefix.
2. **Router determinism** — consistent-hash assignment is seed-free and
   stable across processes, spill decisions under identical load are
   deterministic, and the decision procedure (affinity → spill →
   cluster rejection) is exactly the documented order.
3. **Bitwise serving** — per-query values on an N-host cluster equal
   solo ``system.run`` values; routing changes placement, never
   semantics.
4. **Failover** — a lost host's queued and suspended queries migrate to
   survivors over the network fabric and complete bitwise; with no
   survivor they fail typed, never silently.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.bench.workloads import build_workload
from repro.cluster import ClusterConfig, ClusterService, ConsistentHashRing, Router, stable_hash
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.obs import validate_chrome_trace
from repro.service import (
    GraphService,
    QueryRequest,
    ReplayHarness,
    RequestStatus,
    ServiceConfig,
    ServiceStats,
    timed_mixed_trace,
)
from repro.sim.config import HardwareConfig, NetworkConfig


@pytest.fixture(scope="module")
def graph():
    """A weighted RMAT graph (also serves the unweighted algorithms)."""
    return rmat_graph(400, 3200, seed=11, weighted=True, name="cluster-rmat")


@pytest.fixture(scope="module")
def symmetric_graph(graph):
    sym = graph.symmetrize()
    return CSRGraph(sym.row_offset, sym.column_index, sym.edge_value, name="cluster-sym")


@pytest.fixture(scope="module")
def hardware(graph):
    """Half the edge data fits on device: transfers are priced."""
    return HardwareConfig(
        gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9
    )


def _mixed_requests():
    return [
        QueryRequest(algorithm="pagerank", priority="bulk", label="analytic"),
        QueryRequest(algorithm="bfs", source=0, priority="interactive", label="lookup"),
        QueryRequest(algorithm="sssp", source=3, priority="interactive", label="route"),
    ]


def _service(graph, hardware, **kwargs):
    return GraphService(
        ServiceConfig(system="hytgraph", **kwargs), graph=graph, hardware=hardware
    )


def _cluster(graph, hardware, hosts=2, network="tcp", **service_kwargs):
    config = ClusterConfig(
        hosts=hosts,
        network=network,
        service=ServiceConfig(system="hytgraph", **service_kwargs),
    )
    return ClusterService(config, graph=graph, hardware=hardware)


# ----------------------------------------------------------------------
# (1) hosts=1 is bitwise-degenerate to GraphService
# ----------------------------------------------------------------------


class TestDegenerateSingleHost:
    def _serve_both(self, graph, hardware, **kwargs):
        single = _service(graph, hardware, **kwargs)
        cluster = _cluster(graph, hardware, hosts=1, **kwargs)
        single_handles = single.submit_many(_mixed_requests())
        cluster_handles = cluster.submit_many(_mixed_requests())
        single.drain()
        cluster.drain()
        return single, cluster, single_handles, cluster_handles

    def test_results_bitwise_equal(self, graph, hardware):
        _, _, singles, clustered = self._serve_both(graph, hardware)
        for alone, routed in zip(singles, clustered):
            assert routed.status is RequestStatus.DONE
            assert routed.request_id == alone.request_id
            assert routed.latency_s == alone.latency_s
            assert np.array_equal(
                np.asarray(routed.result().values), np.asarray(alone.result().values)
            )

    def test_stats_identical(self, graph, hardware):
        single, cluster, _, _ = self._serve_both(graph, hardware)
        assert cluster.stats().as_dict() == single.stats().as_dict()

    def test_trace_spans_equal_modulo_host_prefix(self, graph, hardware):
        single, cluster, _, _ = self._serve_both(graph, hardware, tracing=True)

        def shape(span, track):
            return (span.category, span.name, track, span.start_s, span.end_s,
                    tuple(sorted(span.attrs.items())))

        lone = [shape(span, span.track) for span in single.tracer.spans()]
        merged = []
        for span in cluster.trace_spans():
            track = span.track
            if track.startswith("host0:"):
                track = track[len("host0:"):]
            merged.append(shape(span, track))
        assert merged == lone

    def test_routing_probes_are_pure(self, graph, hardware):
        # A tight budget exercises the saturated/refuses probes; they
        # must not reserve bytes, so the lone replica's admission
        # decisions match the single service byte for byte.
        single, cluster, singles, clustered = self._serve_both(
            graph, hardware, admission_budget_bytes=graph.edge_data_bytes // 4
        )
        assert [h.status for h in clustered] == [h.status for h in singles]
        assert cluster.stats().as_dict() == single.stats().as_dict()


class TestStatsMerge:
    """``ClusterService.stats()`` is a fold of ``ServiceStats.merge``."""

    @staticmethod
    def _canonical(stats):
        # Sample lists concatenate in merge order; nothing derived from
        # them (rows, percentiles, means) depends on that order.
        payload = stats.as_dict()
        payload["latencies_by_class"] = {
            name: sorted(values) for name, values in payload["latencies_by_class"].items()
        }
        for name in ("retry_time_s", "checkpoint_time_s", "recovery_time_s"):
            payload[name] = pytest.approx(payload[name], rel=1e-12)
        return payload

    def test_cluster_stats_is_the_merge_in_any_host_order(self, graph, hardware):
        cluster = _cluster(graph, hardware, hosts=3, preemption=True)
        report = ReplayHarness(cluster, lookahead=64).replay(
            timed_mixed_trace(
                graph, 120, rate=6000.0, seed=3, interactive_fraction=0.7,
                bulk_fraction=0.2, interactive_sla_s=0.002,
            )
        )
        snapshots = [replica.stats() for replica in cluster.replicas]
        assert sum(s.completed > 0 for s in snapshots) == 3 and report.preemptions > 0
        total = cluster.stats()
        in_order = ServiceStats()
        for snapshot in snapshots:
            in_order.merge(snapshot)
        assert total.as_dict() == in_order.as_dict()
        for order in itertools.permutations(range(3)):
            merged = ServiceStats()
            for host in order:
                merged.merge(snapshots[host])
            assert self._canonical(merged) == self._canonical(total)
        assert total.completed == report.completed == 120
        assert total.makespan_s == max(s.makespan_s for s in snapshots) == report.makespan_s
        assert total.rows() == report.classes
        # The per-host rows read the same single row function.
        per_host = cluster.observability()["cluster"]["per_host"]
        for host, snapshot in enumerate(snapshots):
            rows = {row["class"]: row for row in per_host[host]["classes"]}
            for name, row in snapshot.rows().items():
                assert rows[name]["p95_s"] == row["p95_s"]

    def test_merge_leaves_the_replica_snapshots_alone(self, graph, hardware):
        cluster = _cluster(graph, hardware, hosts=2)
        cluster.submit_many(_mixed_requests() * 2)
        cluster.drain()
        before = [replica.stats().as_dict() for replica in cluster.replicas]
        cluster.stats(), cluster.observability()
        assert [replica.stats().as_dict() for replica in cluster.replicas] == before


# ----------------------------------------------------------------------
# (2) router determinism
# ----------------------------------------------------------------------


class TestRouterDeterminism:
    def test_stable_hash_is_pinned(self):
        # blake2b over the key bytes: seed-free, PYTHONHASHSEED-
        # independent, identical on every platform.  These constants are
        # the contract.
        assert stable_hash("alpha") == 5982700193828047002
        assert stable_hash("lookup") == 7379961564278518687
        assert stable_hash("q0") == 2195274083305894413

    def test_affinity_stable_across_instances(self):
        first, second = ConsistentHashRing(4), ConsistentHashRing(4)
        alive = [0, 1, 2, 3]
        keys = ["q%d" % i for i in range(200)]
        assert [first.affine_host(k, alive) for k in keys] == [
            second.affine_host(k, alive) for k in keys
        ]
        assert first.affine_host("alpha", alive) == 3
        assert first.affine_host("lookup", alive) == 0
        assert first.affine_host("analytic", alive) == 1

    def test_host_loss_only_moves_the_lost_hosts_keys(self):
        ring = ConsistentHashRing(4)
        keys = ["q%d" % i for i in range(200)]
        before = {k: ring.affine_host(k, [0, 1, 2, 3]) for k in keys}
        after = {k: ring.affine_host(k, [0, 1, 3]) for k in keys}
        for key in keys:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] != 2

    def test_ring_validation(self):
        with pytest.raises(ValueError, match="hosts"):
            ConsistentHashRing(0)
        with pytest.raises(ValueError, match="alive"):
            ConsistentHashRing(2).affine_host("k", [])

    def test_route_decision_order(self):
        alive = [0, 1, 2, 3]
        load_order = [2, 1, 3, 0]
        router = Router(4)
        affine = router.ring.affine_host("alpha", alive)  # host 3

        # 1. affine not saturated -> affinity.
        host, outcome = router.route(
            "alpha", alive, load_order, lambda h: False, lambda h: False
        )
        assert (host, outcome) == (affine, "affinity")
        # 2. affine saturated -> least-loaded non-saturated host.
        host, outcome = router.route(
            "alpha", alive, load_order, lambda h: h == affine, lambda h: False
        )
        assert (host, outcome) == (2, "spill")
        # 3. everything saturated but the affine host still queues.
        host, outcome = router.route(
            "alpha", alive, load_order, lambda h: True, lambda h: False
        )
        assert (host, outcome) == (affine, "affinity")
        # 4. affine refuses -> first non-refusing host in load order.
        host, outcome = router.route(
            "alpha", alive, load_order, lambda h: True, lambda h: h == affine
        )
        assert (host, outcome) == (2, "spill")
        # 5. every host refuses -> cluster rejection on the affine host.
        host, outcome = router.route(
            "alpha", alive, load_order, lambda h: True, lambda h: True
        )
        assert (host, outcome) == (affine, "reject")
        assert router.counters() == {
            "affinity_hits": 2, "spills": 2, "rejections": 1, "failovers": 0,
        }

    def test_identical_streams_route_identically(self, graph, hardware):
        def serve():
            cluster = _cluster(graph, hardware, hosts=3)
            handles = cluster.submit_many(_mixed_requests() * 3)
            cluster.drain()
            return (
                [h.request_id for h in handles],
                [h.status for h in handles],
                cluster.router.counters(),
                [len(r._finished) for r in cluster.replicas],
            )

        assert serve() == serve()


# ----------------------------------------------------------------------
# (3) multi-host serving stays bitwise; spills and rejections
# ----------------------------------------------------------------------


class TestClusterServing:
    def test_values_bitwise_equal_solo_runs(self, graph, hardware):
        cluster = _cluster(graph, hardware, hosts=2)
        handles = cluster.submit_many(_mixed_requests())
        cluster.drain()
        for handle in handles:
            assert handle.status is RequestStatus.DONE
            solo = _service(graph, hardware).run(handle.request)
            assert np.array_equal(
                np.asarray(handle.result().values), np.asarray(solo.values)
            )
        counters = cluster.router.counters()
        assert counters["affinity_hits"] + counters["spills"] == len(handles)

    @pytest.mark.parametrize("label", [7, 2.5, ["tenant"]])
    def test_non_string_label_rejected_before_routing(self, graph, hardware, label):
        # The router hashes the label for host affinity.
        cluster = _cluster(graph, hardware, hosts=2)
        with pytest.raises(ValueError, match="label must be a string"):
            cluster.submit(QueryRequest(algorithm="sssp", source=3, label=label))
        assert cluster.submit(QueryRequest(algorithm="sssp", source=3, label="7")).request_id == 0

    def test_request_ids_cluster_global(self, graph, hardware):
        cluster = _cluster(graph, hardware, hosts=3)
        handles = cluster.submit_many(_mixed_requests() * 2)
        assert [h.request_id for h in handles] == list(range(len(handles)))

    def test_saturated_affine_spills_to_least_loaded(self, graph, hardware):
        # Two same-label requests hash to one host; a budget sized for
        # one of them saturates the affine host after the first, so the
        # second spills instead of queueing behind it.
        probe = _service(graph, hardware)
        estimate = probe.admission.estimate_request_bytes(
            *probe.submit(QueryRequest(algorithm="pagerank", priority="bulk"))._query
        )
        cluster = _cluster(
            graph, hardware, hosts=2,
            admission_budget_bytes=int(estimate * 1.5),
        )
        first = cluster.submit(QueryRequest(algorithm="pagerank", label="tenant"))
        second = cluster.submit(QueryRequest(algorithm="pagerank", label="tenant"))
        assert cluster.router.counters()["spills"] == 1
        hosts_of = [
            host
            for handle in (first, second)
            for host, replica in enumerate(cluster.replicas)
            if handle in replica._queue
        ]
        assert sorted(hosts_of) == [0, 1]
        cluster.drain()
        assert first.status is RequestStatus.DONE
        assert second.status is RequestStatus.DONE

    def test_cluster_rejects_only_when_every_host_refuses(self, graph, hardware):
        cluster = _cluster(
            graph, hardware, hosts=2, admission_budget_bytes=1,
            admission_policy="reject",
        )
        handle = cluster.submit(QueryRequest(algorithm="pagerank", label="big"))
        assert handle.status is RequestStatus.REJECTED
        assert cluster.router.counters()["rejections"] == 1
        assert cluster.stats().rejected == 1

    def test_merged_trace_is_host_qualified_and_valid(self, graph, hardware, tmp_path):
        cluster = _cluster(graph, hardware, hosts=2, tracing=True)
        cluster.submit_many(_mixed_requests() * 2)
        cluster.drain()
        spans = cluster.trace_spans()
        assert [span.span_id for span in spans] == list(range(len(spans)))
        roots = {span.track.split(":", 1)[0] for span in spans}
        assert "query" in roots
        assert roots - {"query"} <= {"host0", "host1"}
        assert all(
            span.track.startswith(("query:", "host0:", "host1:")) for span in spans
        )
        path = tmp_path / "cluster_trace.json"
        cluster.export_trace(path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_replay_harness_drives_a_cluster(self, graph, hardware):
        cluster = _cluster(graph, hardware, hosts=2)
        harness = ReplayHarness(cluster, lookahead=64, verify_sample=5, seed=3)
        report = harness.replay(timed_mixed_trace(graph, 200, 2000.0, seed=3))
        assert report.completed == 200
        assert report.verified_bitwise is True
        # The harness harvests as it streams; the routed totals live in
        # its report, the router keeps the placement counters.
        counters = cluster.router.counters()
        assert counters["affinity_hits"] + counters["spills"] == 200


# ----------------------------------------------------------------------
# (4) host loss and failover
# ----------------------------------------------------------------------


def _loss_requests(algorithm):
    source = None if algorithm in ("cc", "pagerank") else 0
    return [
        QueryRequest(algorithm=algorithm, source=source, label="s%d" % index)
        for index in range(8)
    ]


class TestHostLoss:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc"])
    def test_failover_completes_bitwise(self, graph, symmetric_graph, hardware, algorithm):
        served_graph = symmetric_graph if algorithm == "cc" else graph
        served_hardware = HardwareConfig(
            gpu_memory_bytes=served_graph.edge_data_bytes // 2, pcie_bandwidth=1e9
        )
        # A budget that admits one request per wave keeps the rest
        # queued past wave 1, so the host-loss there migrates real work.
        probe = _service(served_graph, served_hardware)
        estimate = probe.admission.estimate_request_bytes(
            *probe.submit(_loss_requests(algorithm)[0])._query
        )
        budget = int(estimate * 1.5)
        cluster = _cluster(
            served_graph, served_hardware, hosts=2,
            admission_budget_bytes=budget, faults="host-loss@1:host=1",
        )
        handles = cluster.submit_many(_loss_requests(algorithm))
        cluster.drain()

        assert cluster.alive_hosts() == [0]
        assert cluster.router.counters()["failovers"] > 0
        assert cluster.events and cluster.events[0]["kind"] == "host-loss"
        assert cluster.events[0]["migrated"] == cluster.router.failovers
        reference = _service(
            served_graph, served_hardware, admission_budget_bytes=budget
        )
        expected = {
            request.label: reference.run(request) for request in _loss_requests(algorithm)
        }
        for handle in handles:
            assert handle.status is RequestStatus.DONE, handle
            assert np.array_equal(
                np.asarray(handle.result().values),
                np.asarray(expected[handle.request.label].values),
            )

    def test_shipping_is_billed_on_the_fabric(self, graph, hardware):
        def run(network):
            cluster = _cluster(
                graph, hardware, hosts=2, network=network,
                admission_budget_bytes=graph.edge_data_bytes // 4,
                faults="host-loss@1:host=1",
            )
            cluster.submit_many(_loss_requests("sssp"))
            cluster.drain()
            return cluster

        tcp, rdma = run("tcp"), run("rdma")
        assert tcp.router.failovers == rdma.router.failovers > 0
        assert tcp.shipped_bytes == rdma.shipped_bytes
        # Same bytes, faster fabric: rdma ships strictly quicker.
        assert rdma.ship_time_s < tcp.ship_time_s
        assert tcp.stats().completed == rdma.stats().completed == 8

    def test_losing_the_last_host_fails_queries_typed(self, graph, hardware):
        cluster = _cluster(
            graph, hardware, hosts=1,
            admission_budget_bytes=graph.edge_data_bytes // 4,
            faults="host-loss@1:host=0",
        )
        handles = cluster.submit_many(_loss_requests("bfs"))
        cluster.drain()
        assert cluster.alive_hosts() == []
        failed = [h for h in handles if h.status is RequestStatus.FAILED]
        assert failed
        assert all("no surviving replica" in h.fault_cause for h in failed)
        assert cluster.events[0].get("failed") == len(failed)
        # The no-survivor path is counted, so the lost host's row balances.
        stats = cluster.stats()
        assert stats.failed == len(failed)
        assert stats.admitted == stats.completed + stats.failed == len(handles)
        assert stats.queued == cluster.in_flight == 0

    def test_per_host_rows_balance_across_a_failover(self, graph, hardware):
        # The migrated handles' submitted/admitted tally moves with them:
        # on every host, at every wave boundary, admitted == completed +
        # failed + cancelled + in-flight — harvested or not.
        cluster = _cluster(
            graph, hardware, hosts=3,
            admission_budget_bytes=graph.edge_data_bytes // 4,
            faults="host-loss@1:host=1",
        )
        handles = cluster.submit_many(_loss_requests("sssp") * 2)

        def check():
            for replica in cluster.replicas:
                row = replica.stats()
                assert row.queued == replica.in_flight
                assert row.admitted == (
                    row.completed + row.failed + row.cancelled + row.queued
                ), row

        check()
        while cluster.step() is not None:
            cluster.harvest()
            check()
        assert cluster.router.failovers > 0
        lost = cluster.replicas[1].stats()
        assert lost.queued == 0 and lost.submitted == lost.completed
        assert cluster.stats().completed == len(handles)

    def test_duplicate_loss_is_skipped_not_reapplied(self, graph, hardware):
        cluster = _cluster(
            graph, hardware, hosts=2,
            admission_budget_bytes=graph.edge_data_bytes // 4,
            faults="host-loss@1:host=1;host-loss@2:host=1",
        )
        cluster.submit_many(_loss_requests("bfs"))
        cluster.drain()
        assert [event.get("skipped") for event in cluster.events] == [
            None, "host already lost",
        ]

    def test_migrated_queries_trace_their_shipment(self, graph, hardware):
        cluster = _cluster(
            graph, hardware, hosts=2, tracing=True,
            admission_budget_bytes=graph.edge_data_bytes // 4,
            faults="host-loss@1:host=1",
        )
        handles = cluster.submit_many(_loss_requests("sssp"))
        cluster.drain()
        assert all(h.status is RequestStatus.DONE for h in handles)
        ships = [
            span for span in cluster.trace_spans() if span.name == "checkpoint-ship"
        ]
        assert ships
        query_side = [s for s in ships if s.track.startswith("query:")]
        net_side = [s for s in ships if s.track == "host0:net"]
        assert len(query_side) == len(net_side) == cluster.router.failovers
        assert all(s.attrs["src_host"] == 1 and s.attrs["dst_host"] == 0 for s in query_side)
        # The receiver's NIC is serialized: its occupancy spans never overlap.
        net_side.sort(key=lambda s: s.start_s)
        for earlier, later in zip(net_side, net_side[1:]):
            assert later.start_s >= earlier.end_s


# ----------------------------------------------------------------------
# (5) configuration and observability
# ----------------------------------------------------------------------


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="hosts"):
            ClusterConfig(hosts=0)
        with pytest.raises(ValueError, match="gpus_per_host"):
            ClusterConfig(gpus_per_host=0)
        with pytest.raises(KeyError, match="unknown network preset"):
            ClusterConfig(network="carrier-pigeon")
        with pytest.raises(ValueError, match="NetworkConfig or a preset name"):
            ClusterConfig(network=12.5e9)
        with pytest.raises(ValueError, match="ServiceConfig"):
            ClusterConfig(service="not-a-config")

    def test_defaults_and_total_gpus(self):
        default = ClusterConfig()
        assert (default.hosts, default.gpus_per_host) == (1, 1)
        assert default.network == NetworkConfig.from_preset("tcp")
        # hosts x gpus_per_host GPUs: one replica per host, each building
        # gpus_per_host devices of its own over one shared graph.
        workload = build_workload("SK", "sssp", scale=0.05, num_devices=2)
        cluster = ClusterService(
            ClusterConfig(hosts=3, gpus_per_host=2, service=ServiceConfig(system="hytgraph")),
            graph=workload.graph,
            hardware=workload.config,
        )
        assert len(cluster.replicas) == 3
        assert [replica.system.config.num_devices for replica in cluster.replicas] == [2, 2, 2]
        assert len({id(replica.system) for replica in cluster.replicas}) == 3
        assert all(replica.graph is cluster.graph for replica in cluster.replicas)

    def test_replica_config_strips_host_loss(self):
        config = ClusterConfig(
            hosts=2, gpus_per_host=4,
            service=ServiceConfig(
                system="hytgraph", faults="host-loss@1:host=1;device-loss@2:device=0"
            ),
        )
        assert len(config.host_loss_specs()) == 1
        replica = config.replica_config()
        assert [spec.kind.value for spec in replica.faults.specs] == ["device-loss"]

    def test_gpus_per_host_must_match_the_hardware(self, graph, hardware):
        config = ClusterConfig(hosts=2, gpus_per_host=4)
        with pytest.raises(ValueError, match="gpus_per_host=4.*num_devices=1"):
            ClusterService(config, graph=graph, hardware=hardware)

    def test_network_presets_coerced(self):
        config = ClusterConfig(network="rdma")
        assert config.network == NetworkConfig.from_preset("rdma")
        custom = NetworkConfig(kind="lab", bandwidth=1e9, latency=1e-4)
        assert ClusterConfig(network=custom).network is custom
        fast = ClusterConfig(hosts=2, network="tcp")
        assert fast.network.transfer_seconds(10**9) > config.network.transfer_seconds(10**9)

    def test_host_loss_target_must_be_a_configured_host(self):
        service = ServiceConfig(system="hytgraph", faults="host-loss@1:host=7")
        with pytest.raises(ValueError, match=r"host=7.*\[0, 2\)"):
            ClusterConfig(hosts=2, service=service)
        assert ClusterConfig(hosts=8, service=service).host_loss_specs()[0].host == 7

    def test_single_host_service_refuses_host_loss(self, graph, hardware):
        config = ServiceConfig(system="hytgraph", faults="device-loss@2;host-loss@1:host=0")
        with pytest.raises(ValueError, match="host-loss.*ClusterService.*--hosts"):
            GraphService(config, graph=graph, hardware=hardware)


class TestClusterObservability:
    def test_observability_carries_per_host_router_and_network(self, graph, hardware):
        cluster = _cluster(graph, hardware, hosts=2)
        cluster.submit_many(_mixed_requests() * 2)
        cluster.drain()
        payload = cluster.observability()
        assert "metrics" not in payload
        view = payload["cluster"]
        assert view["hosts"] == 2 and view["hosts_alive"] == 2
        assert view["router"] == cluster.router.counters()
        assert set(view["router"]) >= {"affinity_hits", "spills", "rejections", "failovers"}
        assert view["shipped_bytes"] == cluster.shipped_bytes
        assert view["ship_time_s"] == cluster.ship_time_s
        assert view["network"]["bandwidth"] == cluster.network.bandwidth
        assert len(view["per_host"]) == 2
        for host, row in enumerate(view["per_host"]):
            assert row == {
                "host": host, "alive": True, **cluster.replicas[host].stats().as_dict()
            }
        assert sum(row["completed"] for row in view["per_host"]) == payload["completed"]

    def test_device_health_reports_lost_hosts(self, graph, hardware):
        cluster = _cluster(
            graph, hardware, hosts=2,
            admission_budget_bytes=graph.edge_data_bytes // 4,
            faults="host-loss@1:host=1",
        )
        cluster.submit_many(_loss_requests("bfs"))
        cluster.drain()
        health = cluster.device_health()
        assert health["hosts_alive"] == 1
        assert health["hosts_lost"] == [1]
        assert len(health["replicas"]) == 2


class TestClusterCLI:
    def test_serve_hosts_flag_reports_cluster(self, capsys, tmp_path):
        from repro.cli import main

        stats_path = tmp_path / "stats.json"
        code = main(
            [
                "serve", "--dataset", "SK", "--scale", "0.05",
                "--hosts", "2", "--network", "rdma",
                "--point-lookups", "2", "--analytical", "1",
                "--stats-json", str(stats_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cluster: 2 host(s)" in output and "rdma" in output
        stats = json.loads(stats_path.read_text())
        assert stats["cluster"]["hosts"] == 2
        assert stats["cluster"]["network"]["kind"] == "rdma"
        assert len(stats["cluster"]["per_host"]) == 2

    def test_serve_rejects_bad_hosts(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--dataset", "SK", "--scale", "0.05", "--hosts", "0"])
        assert "--hosts: 0 is not a positive integer" in capsys.readouterr().err
