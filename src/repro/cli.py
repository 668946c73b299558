"""Command-line interface.

Six subcommands cover the workflows a user of the original HyTGraph
binaries would expect, plus the serving layer on top:

``repro-graph info``      — describe a dataset stand-in (Table IV style row);
``repro-graph run``       — run one algorithm on one dataset with one system;
``repro-graph compare``   — run one workload on several systems side by side;
``repro-graph batch``     — serve a batch of concurrent queries on one system;
``repro-graph serve``     — serve a mixed-priority request trace through
                            :class:`repro.service.GraphService` and report
                            per-class latency percentiles, SLA attainment
                            and admission decisions;
``repro-graph inspect``   — the query flight recorder: reconstruct one
                            query's latency breakdown from a Chrome trace
                            captured with ``--trace-out``.

Every command that executes builds one workload (graph and hardware)
and one :class:`~repro.service.ServiceConfig` from its flags and serves
typed query requests on the :class:`~repro.service.GraphService` (under
``--hosts``/``--network``, the :class:`~repro.cluster.ClusterService`)
over them — one warmed execution session per (graph, hardware, config).
``--backend`` is resolved before any work and scopes the whole command
(:func:`repro.core.backends.use_backend`).

Examples
--------
::

    repro-graph info --dataset FK
    repro-graph run --dataset SK --algorithm sssp --system hytgraph --scale 0.5
    repro-graph compare --dataset UK --algorithm pagerank --systems subway emogi hytgraph
    repro-graph batch --dataset UK --algorithm sssp --num-queries 16 --devices 2
    repro-graph serve --dataset UK --system hytgraph --point-lookups 8 --analytical 2
    repro-graph serve --dataset SK --trace trace.json --budget 64M --admission queue
    repro-graph serve --dataset SK --trace-out spans.json --stats-json stats.json
    repro-graph inspect spans.json --query q3
"""

from __future__ import annotations

import argparse
import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Sequence

from repro.algorithms import ALGORITHMS
from repro.bench.workloads import batch_sources, build_workload
from repro.cache import CACHE_POLICIES
from repro.core.backends import active_backend, resolve_backend, use_backend
from repro.graph.datasets import dataset_names, load_dataset
from repro.graph.properties import summarize
from repro.metrics.tables import format_table
from repro.service import (
    ARRIVAL_PROCESSES,
    GraphService,
    QueryRequest,
    RequestStatus,
    ServiceConfig,
    load_trace_file,
    synthetic_mixed_trace,
    timed_mixed_trace,
)
from repro.cluster import ClusterConfig, ClusterService
from repro.service.config import ADMISSION_POLICIES, SCHEDULING_POLICIES
from repro.sim.config import GPU_PRESETS, INTERCONNECT_PRESETS, NETWORK_PRESETS
from repro.systems import SYSTEMS

__all__ = ["main", "build_parser", "parse_byte_size"]

DEFAULT_COMPARE_SYSTEMS = ["exptm-f", "imptm-um", "grus", "subway", "emogi", "hytgraph"]

_BYTE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_byte_size(text: str) -> int:
    """Parse a byte count like ``1048576``, ``64M`` or ``2g``.

    Suffixes are case-insensitive: ``K``/``k`` = 1024, ``M``/``m`` =
    1024**2, ``G``/``g`` = 1024**3.
    """
    raw = text.strip().lower()
    multiplier = 1
    if raw and raw[-1] in _BYTE_SUFFIXES:
        multiplier = _BYTE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid byte size %r: accepted forms are a plain integer (1048576) "
            "or an integer with a K/M/G suffix in either case (64M, 2g, 512k)" % text
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("byte size must be non-negative")
    return value * multiplier


def positive_int(text: str) -> int:
    # argparse quotes this function's name in its "invalid ... value" message.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("%d is not a positive integer" % value)
    return value


def _add_platform_arguments(subparser: argparse.ArgumentParser) -> None:
    """The graph/platform/cache/backend flags every executing command shares."""
    subparser.add_argument("--dataset", default="SK", choices=dataset_names(),
                           help="dataset stand-in")
    subparser.add_argument("--scale", type=float, default=0.5, help="stand-in scale factor")
    subparser.add_argument("--gpu", default=None, choices=sorted(GPU_PRESETS),
                           help="GPU preset (default: GTX-2080Ti)")
    subparser.add_argument("--devices", type=positive_int, default=1,
                           help="number of GPUs (>1 enables the sharded multi-GPU layer)")
    subparser.add_argument("--interconnect", default=None, choices=sorted(INTERCONNECT_PRESETS),
                           help="inter-GPU link preset (default: nvlink)")
    subparser.add_argument(
        "--cache-policy", default="static-prefix", choices=sorted(CACHE_POLICIES),
        help="device-memory cache eviction policy (static-prefix reproduces "
             "the historical shard residency; lru/frontier-aware adapt per iteration)",
    )
    subparser.add_argument(
        "--cache-budget", type=parse_byte_size, default=None, metavar="BYTES",
        help="per-device cache budget in bytes, K/M/G suffixes allowed "
             "(default: the device's edge-cache memory)",
    )
    # No argparse choices on purpose: unknown names reach the backend
    # registry, whose error names the *installed* backends (numba is an
    # optional dependency, so the valid set is environment-specific).
    subparser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel compute backend: numpy (reference), numba (JIT, needs "
             "the optional numba dependency), or auto to pick "
             "the fastest installed (default: REPRO_BACKEND env var, else numpy)",
    )


def _add_trace_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace-out", type=Path, default=None, metavar="TRACE.json",
        help="record structured spans over simulated time and write a "
             "Chrome trace_event file (loads in Perfetto, feeds "
             "`repro-graph inspect`); tracing never changes any served "
             "number",
    )


def _add_stats_json_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--stats-json", type=Path, default=None, metavar="STATS.json",
        help="also write the machine-readable statistics as JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro-graph`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-graph",
        description="HyTGraph reproduction: simulated GPU-accelerated graph processing",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="describe a dataset stand-in")
    info.add_argument("--dataset", default="SK", choices=dataset_names() + ["all"],
                      help="dataset name, or all")
    info.add_argument("--scale", type=float, default=1.0, help="stand-in scale factor")

    run = subparsers.add_parser("run", help="run one algorithm on one system")
    _add_platform_arguments(run)
    run.add_argument("--algorithm", default="sssp", choices=sorted(ALGORITHMS))
    run.add_argument("--system", default="hytgraph", choices=sorted(SYSTEMS))
    _add_trace_argument(run)
    run.add_argument("--iterations", action="store_true", help="print the per-iteration table")
    run.add_argument("--verbose", action="store_true",
                     help="print execution detail (active compute backend, "
                          "partitioning, cache residency)")

    compare = subparsers.add_parser("compare", help="run one workload on several systems")
    _add_platform_arguments(compare)
    compare.add_argument("--algorithm", default="pagerank", choices=sorted(ALGORITHMS))
    compare.add_argument("--systems", nargs="+", default=DEFAULT_COMPARE_SYSTEMS,
                         choices=sorted(SYSTEMS))

    batch = subparsers.add_parser(
        "batch", help="serve a batch of concurrent queries on one system"
    )
    _add_platform_arguments(batch)
    batch.add_argument("--algorithm", default="sssp", choices=sorted(ALGORITHMS))
    batch.add_argument("--system", default="hytgraph", choices=sorted(SYSTEMS))
    batch.add_argument("--sources", type=int, nargs="+", default=None,
                       help="explicit traversal sources, one query each")
    batch.add_argument("--num-queries", type=positive_int, default=8,
                       help="query count when --sources is not given "
                            "(top-out-degree sources for source-based algorithms)")
    batch.add_argument("--seed", type=int, default=None,
                       help="sample --num-queries sources seed-deterministically "
                            "instead of taking the top-out-degree ones")
    batch.add_argument("--no-baseline", action="store_true",
                       help="skip the sequential (unbatched) baseline runs")
    _add_trace_argument(batch)
    _add_stats_json_argument(batch)

    serve = subparsers.add_parser(
        "serve", help="serve a mixed-priority request trace through GraphService"
    )
    _add_platform_arguments(serve)
    serve.add_argument("--system", default="hytgraph", choices=sorted(SYSTEMS))
    serve.add_argument("--hosts", type=positive_int, default=1,
                       help="simulated hosts; >1 serves through the replicated "
                            "cluster tier (--devices GPUs per host, consistent-"
                            "hash routing, cross-host failover)")
    serve.add_argument("--network", default=None, choices=sorted(NETWORK_PRESETS),
                       help="host interconnect preset for the cluster tier "
                            "(default: tcp); also enables the cluster path "
                            "at --hosts 1")
    serve.add_argument("--trace", type=Path, default=None, metavar="TRACE.json",
                       help="request trace file (JSON list, or JSON Lines for "
                            "large traces): objects with keys algorithm, source "
                            "(optional), priority (optional), deadline_s "
                            "(optional), label (optional), arrival_s (optional "
                            "simulated arrival timestamp; all-or-none across "
                            "the trace)")
    serve.add_argument("--point-lookups", type=int, default=8,
                       help="synthetic trace: interactive BFS point lookups "
                            "(used when --trace is not given)")
    serve.add_argument("--analytical", type=int, default=2,
                       help="synthetic trace: bulk PageRank analytical queries")
    serve.add_argument("--seed", type=int, default=17,
                       help="seed for the synthetic trace's lookup sources")
    serve.add_argument("--arrivals", default=None, choices=ARRIVAL_PROCESSES,
                       help="generate an arrival-stamped synthetic trace from "
                            "this process instead of the t=0 mix (event-driven "
                            "serving; --requests/--rate size it)")
    serve.add_argument("--requests", type=int, default=64,
                       help="arrival-stamped synthetic trace: request count")
    serve.add_argument("--rate", type=float, default=None, metavar="PER_S",
                       help="arrival-stamped synthetic trace: mean arrivals "
                            "per simulated second (required with --arrivals)")
    serve.add_argument("--preempt", action="store_true",
                       help="let running BULK queries yield to newly arrived "
                            "INTERACTIVE work at super-iteration boundaries "
                            "(resumed from their checkpoints)")
    serve.add_argument("--scheduling", default="priority", choices=SCHEDULING_POLICIES,
                       help="wave scheduling discipline (fifo = historical co-schedule)")
    serve.add_argument("--budget", type=parse_byte_size, default=None, metavar="BYTES",
                       help="admission budget: estimated bytes in flight per wave, "
                            "K/M/G suffixes allowed (default: unlimited)")
    serve.add_argument("--admission", default="queue", choices=ADMISSION_POLICIES,
                       help="what happens to requests that do not fit the budget")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="inject faults while serving: semicolon-separated "
                            "kind[@super][:key=value,...] entries, e.g. "
                            "'device-loss@3:device=1;transfer-flaky:p=0.05' "
                            "(kinds: device-loss, transfer-flaky, "
                            "memory-pressure, interconnect-degrade; plus "
                            "host-loss with --hosts > 1)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the fault injector's random stream")
    serve.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="default latency SLA applied to requests without one")
    serve.add_argument("--enforce-deadlines", action="store_true",
                       help="cancel queries that exceed their deadline mid-run "
                            "instead of only recording the SLA miss")
    _add_trace_argument(serve)
    _add_stats_json_argument(serve)

    inspect = subparsers.add_parser(
        "inspect", help="flight-record one query from a captured Chrome trace"
    )
    inspect.add_argument("trace", type=Path, metavar="TRACE.json",
                         help="Chrome trace written by --trace-out")
    inspect.add_argument("--query", default=None, metavar="NAME",
                         help="query lane to reconstruct (label or q<id>, "
                              "with or without the query: prefix); omitted, "
                              "the traced queries are listed")
    return parser


def _cmd_info(args: argparse.Namespace) -> str:
    rows = []
    names = [args.dataset] if args.dataset != "all" else dataset_names()
    for name in names:
        graph = load_dataset(name, scale=args.scale)
        rows.append(summarize(graph).as_row())
    return format_table(rows, title="Dataset stand-ins (scale=%g)" % args.scale)


@contextmanager
def _user_errors(prefix: str = ""):
    """Bad flag values and malformed requests are the caller's fault: exit
    with the library's named message instead of a traceback."""
    try:
        yield
    except (KeyError, ValueError) as error:
        raise SystemExit(prefix + str(error))


def _workload(args: argparse.Namespace, algorithm: str):
    with _user_errors():
        return build_workload(
            args.dataset, algorithm, scale=args.scale, preset=args.gpu,
            num_devices=args.devices, interconnect=args.interconnect,
        )


def _service(args: argparse.Namespace, system_name: str, workload, clustered=False, **serving):
    """The service the flags describe, over the workload's graph and hardware.

    The workload carries the platform flags; one :class:`ServiceConfig`
    carries the rest (``serving``: the ``serve`` command's policy flags,
    by config field name); ``clustered`` wraps it in the ``--hosts`` x
    ``--devices`` :class:`ClusterConfig`.
    """
    if (
        args.cache_budget is not None
        and args.cache_policy == "static-prefix"
        and args.devices <= 1
    ):
        # Under the default policy a cache exists only on multi-device
        # sessions, so a single-device run would silently ignore the budget.
        raise SystemExit(
            "--cache-budget has no effect here: the default static-prefix policy "
            "builds a device cache only with --devices > 1; pick an adaptive "
            "--cache-policy (lru, frontier-aware) or add devices"
        )
    with _user_errors():
        config = ServiceConfig(
            system=system_name,
            cache_policy=args.cache_policy,
            cache_budget=args.cache_budget,
            tracing=getattr(args, "trace_out", None) is not None,
            **serving,
        )
        if clustered:
            cluster = ClusterConfig(
                hosts=args.hosts, gpus_per_host=args.devices,
                network=args.network or "tcp", service=config,
            )
            return ClusterService(cluster, graph=workload.graph, hardware=workload.config)
        return GraphService(config, graph=workload.graph, hardware=workload.config)


def _export_trace(service: GraphService, path: Path) -> str:
    """Write the service's recorded spans; returns the report line."""
    service.export_trace(path)
    return "trace: wrote %d span(s) to %s%s" % (
        service.tracer.total_spans,
        path,
        " (%d dropped)" % service.tracer.dropped_spans
        if service.tracer.dropped_spans
        else "",
    )


def _write_stats_json(path: Path, payload: dict) -> str:
    """Dump one machine-readable stats payload; returns the report line."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return "stats: wrote %s" % path


def _cmd_run(args: argparse.Namespace) -> str:
    workload = _workload(args, args.algorithm)
    service = _service(args, args.system, workload)
    result = service.run(QueryRequest(algorithm=args.algorithm, source=workload.source))
    lines = [
        "%s / %s on %s (%d vertices, %d edges)" % (
            result.system, result.algorithm, args.dataset,
            workload.graph.num_vertices, workload.graph.num_edges,
        ),
        "simulated time: %.6f s over %d iterations (converged=%s)" % (
            result.total_time, result.num_iterations, result.converged,
        ),
        "transfer volume: %.3f MB (%.2fx the edge data)" % (
            result.total_transfer_bytes / 1e6,
            result.transfer_ratio(workload.graph.edge_data_bytes),
        ),
        "busy time: compaction %.6f s, PCIe %.6f s, GPU %.6f s" % (
            result.total_compaction_time, result.total_transfer_time, result.total_kernel_time,
        ),
    ]
    if args.verbose:
        lines.append("compute backend: %s" % result.extra.get("backend", "numpy"))
        lines.append(
            "partitions: %d, resident in device memory: %d" % (
                service.system.partitioning.num_partitions,
                service.system.context.num_resident_partitions,
            )
        )
    if args.devices > 1:
        lines.append(
            "multi-GPU: %d devices over %s, boundary sync %.3f KB in %.6f s" % (
                args.devices, workload.config.interconnect_kind,
                result.total_interconnect_bytes / 1024, result.total_sync_time,
            )
        )
    if args.cache_policy != "static-prefix" or result.total_cache_hit_bytes:
        lines.append(
            "device cache (%s): %.3f MB hits, %.3f MB misses, %.3f MB evicted "
            "(%.1f%% hit rate)" % (
                args.cache_policy,
                result.total_cache_hit_bytes / 1e6,
                result.total_cache_miss_bytes / 1e6,
                result.total_cache_evicted_bytes / 1e6,
                100.0 * result.cache_hit_rate,
            )
        )
    if args.trace_out is not None:
        lines.append(_export_trace(service, args.trace_out))
    text = "\n".join(lines) + "\n"
    if args.iterations:
        rows = [
            {
                "iter": stats.index,
                "active_vertices": stats.active_vertices,
                "active_edges": stats.active_edges,
                "time": stats.time,
                "transfer_KB": round(stats.transfer_bytes / 1024, 2),
                "engines": ",".join(sorted(stats.engine_partitions)),
            }
            for stats in result.iterations
        ]
        text += format_table(rows, title="Per-iteration detail")
    return text


def _cmd_compare(args: argparse.Namespace) -> str:
    workload = _workload(args, args.algorithm)
    systems = list(args.systems)
    notes = ""
    if args.devices > 1:
        skipped = [name for name in systems if not SYSTEMS[name].supports_multi_device]
        systems = [name for name in systems if name not in skipped]
        if skipped:
            notes = "skipped (no multi-device path): %s\n" % ", ".join(skipped)
        if not systems:
            raise SystemExit(
                "none of the requested systems has a multi-device execution path; drop --devices"
            )
    rows = []
    for system_name in systems:
        service = _service(args, system_name, workload)
        result = service.run(QueryRequest(algorithm=args.algorithm, source=workload.source))
        rows.append(
            {
                "system": result.system,
                "time (s)": result.total_time,
                "iterations": result.num_iterations,
                "transfer (xE)": round(result.transfer_ratio(workload.graph.edge_data_bytes), 2),
            }
        )
    rows.sort(key=lambda row: row["time (s)"])
    fastest = rows[0]["time (s)"]
    for row in rows:
        row["slowdown"] = round(row["time (s)"] / fastest, 2)
    title = "%s on %s (scale=%g, %s)" % (
        args.algorithm.upper(), args.dataset, args.scale, workload.config.name,
    )
    if args.devices > 1:
        title += " x%d GPUs over %s" % (args.devices, workload.config.interconnect_kind)
    return notes + format_table(rows, title=title)


def _cmd_batch(args: argparse.Namespace) -> str:
    workload = _workload(args, args.algorithm)
    if workload.program.needs_source:
        with _user_errors():
            sources = args.sources or batch_sources(workload.graph, args.num_queries, seed=args.seed)
    else:
        if args.sources:
            raise SystemExit("algorithm %r takes no traversal source" % args.algorithm)
        sources = [None] * args.num_queries
    service = _service(args, args.system, workload)
    algorithm = workload.program.name.lower()  # canonical, whatever alias --algorithm used
    with _user_errors():
        service.submit_many([QueryRequest(algorithm=algorithm, source=source) for source in sources])
    (batch,) = service.drain()
    trace_line = (
        _export_trace(service, args.trace_out) if args.trace_out is not None else None
    )

    rows = [
        {
            "query": index,
            "source": "-" if source is None else source,
            "iterations": result.num_iterations,
            "time (s)": round(result.total_time, 6),
            "transfer_KB": round(result.total_transfer_bytes / 1024, 2),
            "converged": result.converged,
        }
        for index, (source, result) in enumerate(zip(sources, batch.results))
    ]
    title = "%s batch of %d queries on %s (%s, scale=%g)" % (
        args.algorithm.upper(), batch.num_queries, args.dataset, batch.system, args.scale,
    )
    if args.devices > 1:
        title += " x%d GPUs over %s" % (args.devices, workload.config.interconnect_kind)
    lines = [
        format_table(rows, title=title).rstrip("\n"),
        "batch makespan: %.6f s over %d super-iterations (%.1f queries/s)" % (
            batch.makespan, batch.super_iterations, batch.queries_per_second,
        ),
        "batch transfer volume: %.3f MB (%.3f MB amortized across queries)" % (
            batch.total_transfer_bytes / 1e6, batch.amortized_bytes / 1e6,
        ),
        "device cache (%s): %.3f MB hits, %.3f MB misses, %.3f MB evicted" % (
            batch.extra.get("cache_policy", args.cache_policy),
            batch.cache_hit_bytes / 1e6,
            batch.cache_miss_bytes / 1e6,
            batch.cache_evicted_bytes / 1e6,
        ),
    ]
    if not args.no_baseline:
        # What a serving layer without batching would do: each query
        # run cold, back to back, on the same system.
        sequential = [service.system.run(workload.program, source=source) for source in sources]
        stats = batch.amortization_vs(sequential)
        lines.append(
            "vs sequential serving: %.2fx speedup (%.6f s -> %.6f s), "
            "%.3f MB transfer saved" % (
                stats["speedup"], stats["sequential_time"], stats["batched_time"],
                stats["transfer_bytes_saved"] / 1e6,
            )
        )
    if trace_line is not None:
        lines.append(trace_line)
    if args.stats_json is not None:
        lines.append(_write_stats_json(args.stats_json, batch.as_dict()))
    return "\n".join(lines) + "\n"


def _load_trace(args: argparse.Namespace, workload) -> list[QueryRequest]:
    """The request trace to serve: a file, an arrival process, or the t=0 mix."""
    if args.trace is not None:
        try:
            return load_trace_file(args.trace)
        except OSError as error:
            raise SystemExit("cannot read trace %s: %s" % (args.trace, error))
        except ValueError as error:
            # Validation names the offending entry/line; keep it verbatim.
            raise SystemExit("bad trace: %s" % error)
    if args.arrivals is not None:
        # Arrival-stamped synthetic mix: event-driven serving in
        # simulated time rather than the everything-at-t=0 queue.
        if args.rate is None or args.rate <= 0:
            raise SystemExit("--arrivals needs a positive --rate (arrivals per second)")
        if args.requests < 1:
            raise SystemExit("--requests must be at least 1")
        return list(
            timed_mixed_trace(
                workload.graph, args.requests, args.rate,
                process=args.arrivals, seed=args.seed,
                interactive_sla_s=args.deadline,
            )
        )
    # Synthetic mixed trace: cheap interactive point lookups arriving
    # *after* the heavy bulk analytics — the starvation scenario the
    # priority scheduler exists for.
    try:
        return synthetic_mixed_trace(
            workload.graph, args.point_lookups, args.analytical, args.seed
        )
    except ValueError as error:
        raise SystemExit("the synthetic trace needs --point-lookups or --analytical > 0 (%s)" % error)


def _cmd_serve(args: argparse.Namespace) -> str:
    clustered = args.hosts > 1 or args.network is not None
    # The SSSP cell loads the dataset weighted, so one service graph can
    # serve every algorithm a trace may carry.
    workload = _workload(args, "sssp")
    service = _service(
        args, args.system, workload, clustered,
        scheduling=args.scheduling, admission_budget_bytes=args.budget,
        admission_policy=args.admission, faults=args.faults, chaos_seed=args.chaos_seed,
        deadline_s=args.deadline, enforce_deadlines=args.enforce_deadlines,
        preemption=args.preempt,
    )
    requests = _load_trace(args, workload)
    # Malformed requests: unknown algorithm, source on a sourceless
    # program, CC on the serve command's directed graph.
    with _user_errors("cannot serve trace: "):
        handles = service.submit_many(requests)
    service.drain()
    stats = service.stats()

    lines = [
        "served %d of %d requests on %s / %s (%s scheduling, %d wave(s))" % (
            stats.completed, stats.submitted, service.system.name, args.dataset,
            args.scheduling, stats.waves,
        ),
        "makespan %.6f s (%.1f queries/s), transfer %.3f MB" % (
            stats.makespan_s, stats.queries_per_second, stats.total_transfer_bytes / 1e6,
        ),
        "compute backend: %s" % active_backend().name,
    ]
    if clustered:
        network = service.network
        lines.insert(1, (
            "cluster: %d host(s) x %d GPU(s) over %s (%.2f GB/s, %.0f us); "
            "router: %d affinity, %d spill(s), %d rejection(s)" % (
                service.config.hosts, service.config.gpus_per_host, network.kind,
                network.bandwidth / 1e9, network.latency * 1e6,
                service.router.affinity_hits, service.router.spills,
                service.router.rejections,
            )
        ))
    if stats.preemptions:
        lines.append(
            "preemption: %d BULK yield(s) to newly arrived interactive work"
            % stats.preemptions
        )
    if args.budget is not None:
        lines.append(
            "admission: budget %d bytes (%s policy), %d admitted, %d rejected" % (
                args.budget, args.admission, stats.admitted, stats.rejected,
            )
        )
        for handle in handles:
            if handle.status is RequestStatus.REJECTED:
                label = handle.request.label or "request-%d" % handle.request_id
                lines.append("  rejected %s: %s" % (label, handle.reject_reason))
    if stats.deadline_met + stats.deadline_missed:
        lines.append(
            "deadlines: %d met, %d missed (%.1f%% attainment)" % (
                stats.deadline_met, stats.deadline_missed, 100.0 * stats.deadline_attainment,
            )
        )
    if args.faults is not None:
        health = service.device_health()
        lines.append(
            "faults: %d injected, %d transfer retries (%.6f s retry time); "
            "%d failed, %d cancelled" % (
                stats.faults_injected, stats.retries, stats.retry_time_s,
                stats.failed, stats.cancelled,
            )
        )
        lines.append(
            "recovery: %.6f s checkpointing, %.6f s restoring; circuit breaker %s "
            "(%d trip(s))" % (
                stats.checkpoint_time_s, stats.recovery_time_s,
                "OPEN" if stats.breaker_open else "closed", stats.breaker_trips,
            )
        )
        if clustered:
            lines.append(
                "hosts: %d of %d alive%s; %d failover(s), %.3f MB checkpoint "
                "shipping (%.6f s on the network)" % (
                    health["hosts_alive"], health["hosts"],
                    ", lost: %s" % health["hosts_lost"] if health["hosts_lost"] else "",
                    service.router.failovers, service.shipped_bytes / 1e6,
                    service.ship_time_s,
                )
            )
        else:
            lines.append(
                "devices: %d of %d alive%s%s" % (
                    health["alive"], health["configured"],
                    ", lost: %s" % health["lost"] if health["lost"] else "",
                    " (host fallback)" if health["host_fallback"] else "",
                )
            )
        for handle in handles:
            if handle.status in (RequestStatus.FAILED, RequestStatus.CANCELLED):
                label = handle.request.label or "request-%d" % handle.request_id
                lines.append(
                    "  %s %s: %s" % (handle.status.value, label, handle.fault_cause)
                )
    if args.trace_out is not None:
        lines.append(_export_trace(service, args.trace_out))
    if args.stats_json is not None:
        lines.append(_write_stats_json(args.stats_json, service.observability()))
    rows = stats.class_rows()
    table = format_table(rows, title="Per-class service latency") if rows else ""
    return "\n".join(lines) + "\n" + table


def _cmd_inspect(args: argparse.Namespace) -> str:
    from repro.obs import flight_report, load_trace, query_tracks

    try:
        payload = load_trace(args.trace)
    except OSError as error:
        raise SystemExit("cannot read trace %s: %s" % (args.trace, error))
    except ValueError as error:
        raise SystemExit("not a Chrome trace: %s" % error)
    if args.query is None:
        queries = query_tracks(payload)
        if not queries:
            return "no traced queries in %s\n" % args.trace
        lines = ["traced queries in %s (pick one with --query):" % args.trace]
        lines.extend("  %s" % name for name in queries)
        return "\n".join(lines) + "\n"
    try:
        return flight_report(payload, args.query)
    except KeyError as error:
        # The error message already lists the traced queries.
        raise SystemExit(str(error.args[0]) if error.args else str(error))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "info": _cmd_info, "run": _cmd_run, "compare": _cmd_compare,
        "batch": _cmd_batch, "serve": _cmd_serve, "inspect": _cmd_inspect,
    }
    name = getattr(args, "backend", None)  # info and inspect take no --backend
    with _user_errors():
        backend = None if name is None else resolve_backend(name)
    with nullcontext() if backend is None else use_backend(backend):
        output = commands[args.command](args)
    print(output, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
