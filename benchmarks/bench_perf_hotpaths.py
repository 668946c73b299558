"""Hot-path performance harness: kernel backends + engine fast paths.

Measures the speedup delivered by the scatter-reduce kernel backends
(:mod:`repro.core.backends`) and the partition-local frontier fast
paths in the HyTGraph engine, against a faithful reconstruction of the
seed ("pre kernel-layer") implementation:

* **Microbenchmarks** — ``scatter_add`` / ``scatter_min`` and the fused
  ``push_and_activate`` against the original ``ufunc.at`` + snapshot +
  ``np.unique`` formulations, on dense and sparse message batches, once
  per installed compute backend (numpy reference first; non-numpy rows
  also record ``vs_numpy``, their ratio over the numpy backend's time);
  plus the vectorised ``CSRGraph.edge_sources`` and
  ``partition_by_bytes`` against their seed per-vertex Python loops
  (numpy section only — they are graph utilities, not backend kernels).
* **Backend A/B** — when a non-numpy backend is active (``--backend`` or
  ``REPRO_BACKEND``), one fixed-size PageRank run through HyTGraph under
  the numpy backend and again under the active backend; per-vertex
  values are asserted bitwise identical and the speedup is recorded.
* **End-to-end** — all five vertex programs (PR, SSSP, BFS, CC, PHP) on
  generated R-MAT and uniform graphs, run through HyTGraph and two
  baseline systems (EMOGI, Subway), once with the seed hot paths
  restored (``seed_baseline``) and once with the current code.  Both
  modes must produce bitwise-identical per-vertex results — the harness
  asserts it.
* **Multi-query serving** — batched vs sequential *simulated* speedup of
  K SSSP sources through :class:`~repro.runtime.batch.QueryBatchRunner`
  on a transfer-bound 2-device workload (HyTGraph and ExpTM-F).  These
  numbers are deterministic simulation outputs, so the regression gate
  holds them to the same tolerance as the wall-clock speedups: a drop
  means the serving layer lost amortization, not that CI was slow.
* **Cache policies** — frontier-aware vs static-prefix device-memory
  caching (:mod:`repro.cache`) on a memory-constrained transfer-bound
  wavefront batch, also a deterministic simulated speedup; a drop means
  the cache subsystem lost reuse (``bench_cache_policies.py`` is the
  full version).
* **Service scheduling** — priority vs FIFO p95 point-lookup latency on
  a mixed INTERACTIVE/BULK trace through
  :class:`~repro.service.GraphService`; deterministic simulated
  latencies, so a drop means the priority scheduler stopped protecting
  the high class (``bench_service_scheduling.py`` is the full version).
* **Tracing overhead** — wall time of one mixed serve with span tracing
  enabled vs disabled, as the median over interleaved rounds of each
  round's traced/untraced ratio.  Gated absolutely: the ratio must stay
  within ``TRACING_OVERHEAD_CEILING`` (1.10x), the zero-overhead promise
  of :mod:`repro.obs`.  The two runs' simulated makespans are asserted
  identical — tracing must never change a served number.

Results are written to ``BENCH_perf.json`` in the repository root so
future PRs can track the perf trajectory.

**Perf-regression gate.**  ``--check-against REF.json`` compares the
run's end-to-end speedups with a reference file of the same shape and
fails (exit code 1) when a system's speedup geomean drops below
``reference * (1 - tolerance)``.  Because every speedup is normalised
against the in-run seed baseline, absolute CI-runner speed cancels out;
the geomean across the five algorithms averages away the per-entry noise
of tiny smoke graphs while a real hot-path regression still drags it
down.  ``--inject-slowdown F`` multiplies the measured "after" times by
``F`` — the end-to-end rows and the traced side of the tracing-overhead
row — to validate that the gate actually fires.

Usage::

    python benchmarks/bench_perf_hotpaths.py            # full run (~1M edges)
    python benchmarks/bench_perf_hotpaths.py --smoke    # tiny CI smoke run
    python benchmarks/bench_perf_hotpaths.py --smoke \
        --check-against benchmarks/BENCH_perf_smoke.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.algorithms.bfs as bfs_module
import repro.algorithms.cc as cc_module
import repro.algorithms.pagerank as pagerank_module
import repro.algorithms.php as php_module
import repro.algorithms.sssp as sssp_module
from repro.algorithms.bfs import BFS
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.pagerank import DeltaPageRank
from repro.algorithms.php import PHP
from repro.algorithms.sssp import SSSP
from repro.core.backends import (
    available_backends,
    get_backend,
    resolve_backend_name,
    set_active_backend,
    use_backend,
)
from repro.core.combiner import ScheduledTask, TaskCombiner
from repro.core.cost_model import CostModel, PartitionCosts
from repro.core.engine import HyTGraphEngine
from repro.graph.generators import grid_graph, rmat_graph, uniform_random_graph
from repro.graph.partition import partition_by_bytes
from repro.bench.workloads import batch_sources
from repro.metrics.results import IterationStats
from repro.runtime.batch import QueryBatchRunner
from repro.sim.config import HardwareConfig
from repro.sim.streams import StreamScheduler, StreamTask
from repro.systems.emogi import EmogiSystem
from repro.systems.exptm_filter import ExpTMFilterSystem
from repro.systems.hytgraph import HyTGraphSystem
from repro.systems.subway import SubwaySystem
from repro.transfer.base import EngineKind

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"

# ----------------------------------------------------------------------
# Faithful seed (pre-PR) implementations of the replaced hot paths.
# These are verbatim copies of the seed code and exist only so the
# harness can measure "before" timings; they must not be used elsewhere.
# ----------------------------------------------------------------------


class _SeedKernels:
    """The seed scatter kernels as a backend: ``ufunc.at`` + snapshot + ``np.unique``."""

    name = "seed"

    @staticmethod
    def scatter_add(target, destinations, values):
        np.add.at(target, destinations, values)
        return target

    @staticmethod
    def scatter_min(target, destinations, values):
        np.minimum.at(target, destinations, values)
        return target

    @staticmethod
    def push_and_activate(target, destinations, values, *, combine="min", threshold=None):
        destinations = np.asarray(destinations, dtype=np.int64)
        if combine == "add":
            np.add.at(target, destinations, values)
            active = target[destinations] > threshold
            return np.unique(destinations[active])
        previous = target[destinations].copy()
        if combine == "min":
            np.minimum.at(target, destinations, values)
            changed = target[destinations] < previous
        else:
            np.maximum.at(target, destinations, values)
            changed = target[destinations] > previous
        return np.unique(destinations[changed])


def _seed_gather_edge_indices(graph, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    starts = graph.row_offset[vertices]
    degrees = graph.row_offset[vertices + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    repeats = np.repeat(np.arange(vertices.size), degrees)
    cumulative = np.concatenate([[0], np.cumsum(degrees)])[:-1]
    within = np.arange(total) - np.repeat(cumulative, degrees)
    edge_indices = np.repeat(starts, degrees) + within
    sources = vertices[repeats]
    return edge_indices, sources


def _seed_task_vertex_mask(self, task):
    mask = np.zeros(self.graph.num_vertices, dtype=bool)
    for index in task.partition_indices:
        partition = self.partitioning[index]
        mask[partition.vertex_start : partition.vertex_end] = True
    return mask


def _seed_execute_task(self, task, program, state, pending):
    graph = self.graph
    partition_mask = _seed_task_vertex_mask(self, task)
    first_round = np.nonzero(pending & partition_mask)[0]
    if first_round.size == 0:
        return 0
    pending[first_round] = False
    processed_edges = int(graph.out_degrees[first_round].sum())
    newly_active = program.process(graph, state, first_round)
    if newly_active.size:
        pending[newly_active] = True
    if not self.options.recompute_loaded:
        return processed_edges
    if task.engine == EngineKind.EXP_FILTER:
        loaded_mask = partition_mask
    else:
        loaded_mask = np.zeros(graph.num_vertices, dtype=bool)
        loaded_mask[first_round] = True
    second_round = np.nonzero(pending & loaded_mask)[0]
    if second_round.size:
        pending[second_round] = False
        processed_edges += int(graph.out_degrees[second_round].sum())
        newly_active = program.process(graph, state, second_round)
        if newly_active.size:
            pending[newly_active] = True
    return processed_edges


def _seed_account_transfer(self, task):
    from repro.transfer.base import TransferOutcome

    engine = self.engines[task.engine]
    partitions = [self.partitioning[index] for index in task.partition_indices]
    bytes_total = 0
    transfer_time = 0.0
    cpu_time = 0.0
    overlapped = False
    active = task.active_vertices
    for partition in partitions:
        in_partition = active[(active >= partition.vertex_start) & (active < partition.vertex_end)]
        outcome = engine.transfer(partition, in_partition)
        bytes_total += outcome.bytes_transferred
        transfer_time += outcome.transfer_time
        cpu_time += outcome.cpu_time
        overlapped = overlapped or outcome.overlapped
    return TransferOutcome(
        engine=task.engine,
        bytes_transferred=bytes_total,
        transfer_time=transfer_time,
        cpu_time=cpu_time,
        overlapped=overlapped,
    )


def _seed_run_iteration(self, iteration, program, state, pending):
    graph = self.graph
    active_mask = pending.copy()
    active_vertex_count = int(active_mask.sum())
    active_edge_count = int(graph.out_degrees[active_mask].sum())

    sinks = np.nonzero(pending & (graph.out_degrees == 0))[0]
    if sinks.size:
        pending[sinks] = False
        program.process(graph, state, sinks)

    costs = self.cost_model.estimate(active_mask)
    selection = self.selector.select(costs)
    tasks = self.combiner.combine(self.partitioning, selection, active_mask)
    tasks = self.priority.prioritize(tasks, program, state)
    generation_overhead = self.kernel_model.device_scan_time(self.partitioning.num_partitions)

    stream_tasks = []
    total_transfer_bytes = 0
    total_processed_edges = 0
    engine_task_counts = {}
    for order, task in enumerate(tasks):
        processed_edges = _seed_execute_task(self, task, program, state, pending)
        outcome = _seed_account_transfer(self, task)
        kernel_time = self.kernel_model.kernel_time(processed_edges, num_kernels=1)
        stream_tasks.append(
            StreamTask(
                name=task.label,
                engine=task.engine.value,
                cpu_time=outcome.cpu_time,
                transfer_time=outcome.transfer_time,
                kernel_time=kernel_time,
                overlapped_transfer=outcome.overlapped,
                priority=float(order),
            )
        )
        total_transfer_bytes += outcome.bytes_transferred
        total_processed_edges += processed_edges
        engine_task_counts[task.engine.value] = engine_task_counts.get(task.engine.value, 0) + 1

    timeline = StreamScheduler(self.config).schedule(stream_tasks)
    iteration_time = timeline.makespan + generation_overhead
    return IterationStats(
        index=iteration,
        time=iteration_time,
        active_vertices=active_vertex_count,
        active_edges=active_edge_count,
        transfer_bytes=total_transfer_bytes,
        compaction_time=timeline.busy_time("cpu"),
        transfer_time=timeline.busy_time("pcie"),
        kernel_time=timeline.busy_time("gpu"),
        processed_edges=total_processed_edges,
        engine_partitions=selection.counts(),
        engine_tasks=engine_task_counts,
    )


def _seed_run(self, program, source=None):
    """The seed engine's outer loop: one `_seed_run_iteration` per iteration."""
    self.reset_run_state()
    session = self.start_session(program, source)
    while session.pending.any() and session.iteration < self.max_iterations:
        session.result.iterations.append(
            _seed_run_iteration(self, session.iteration, program, session.state, session.pending)
        )
        session.iteration += 1
    return self.finish_session(session)


def _seed_combine(self, partitioning, selection, active_mask, active_ids=None):
    active_mask = np.asarray(active_mask, dtype=bool)

    def active_in(partition_index):
        partition = partitioning[partition_index]
        segment = active_mask[partition.vertex_start : partition.vertex_end]
        return np.nonzero(segment)[0] + partition.vertex_start

    def make_filter_task(partition_indices):
        vertices = np.concatenate([active_in(index) for index in partition_indices])
        return ScheduledTask(
            engine=EngineKind.EXP_FILTER,
            partition_indices=list(partition_indices),
            active_vertices=np.sort(vertices),
        )

    if not self.enabled:
        tasks = []
        for index, choice in enumerate(selection.choices):
            if choice is None:
                continue
            tasks.append(
                ScheduledTask(engine=choice, partition_indices=[index], active_vertices=active_in(index))
            )
        return tasks

    tasks = []
    filter_partitions = selection.partitions_using(EngineKind.EXP_FILTER)
    current = []
    previous_index = None
    for index in filter_partitions:
        consecutive = previous_index is not None and index == previous_index + 1
        if current and (not consecutive or len(current) >= self.combine_factor):
            tasks.append(make_filter_task(current))
            current = []
        current.append(index)
        previous_index = index
    if current:
        tasks.append(make_filter_task(current))

    for engine in (EngineKind.EXP_COMPACTION, EngineKind.IMP_ZERO_COPY):
        members = selection.partitions_using(engine)
        if members:
            vertices = np.concatenate([active_in(index) for index in members])
            tasks.append(
                ScheduledTask(
                    engine=engine,
                    partition_indices=list(members),
                    active_vertices=np.sort(vertices),
                    combined=True,
                )
            )
    return tasks


def _seed_estimate(self, active_mask, active_ids=None):
    active_mask = np.asarray(active_mask, dtype=bool)
    num_partitions = self.partitioning.num_partitions
    active_vertices, active_edges = self.partitioning.active_counts(active_mask)

    filter_cost = self._filter_cost_from_edges(self._partition_edges)
    filter_cost = np.where(active_edges > 0, filter_cost, 0.0)
    compaction_cost = self._compaction_cost_from_counts(active_edges, active_vertices)
    compaction_cost = np.where(active_edges > 0, compaction_cost, 0.0)

    zero_copy_cost = np.zeros(num_partitions, dtype=np.float64)
    ids = np.nonzero(active_mask)[0]
    if ids.size:
        degrees = self.graph.out_degrees[ids]
        starts = self.graph.row_offset[ids] * self._d1
        requests = self.pcie.requests_for_vertices(degrees, starts, value_bytes=self._d1)
        partition_of = self.partitioning.partition_of_vertices(ids)
        requests_per_partition = np.bincount(partition_of, weights=requests, minlength=num_partitions)
        tlps = np.ceil(requests_per_partition / self.config.pcie_max_outstanding)
        partition_edges_safe = np.maximum(self._partition_edges, 1)
        payload_fraction = np.clip(active_edges / partition_edges_safe, 0.0, 1.0)
        gamma = self.config.zero_copy_gamma
        rtt_zc = (gamma + (1.0 - gamma) * payload_fraction) * self.config.tlp_round_trip_time
        zero_copy_cost = tlps * rtt_zc
        zero_copy_cost = np.where(active_edges > 0, zero_copy_cost, 0.0)

    return PartitionCosts(
        filter_cost=filter_cost,
        compaction_cost=compaction_cost,
        zero_copy_cost=zero_copy_cost,
        active_vertices=active_vertices,
        active_edges=active_edges,
    )


_ALGORITHM_MODULES = (sssp_module, bfs_module, cc_module, pagerank_module, php_module)


@contextmanager
def seed_baseline():
    """Restore every replaced hot path to its seed implementation.

    Inside the context, algorithm scatters run on :class:`_SeedKernels`
    (``ufunc.at`` + ``np.unique``), the engine allocates per-task ``|V|``
    masks, the combiner re-sorts task frontiers and the cost model
    rescans the frontier bitmap — i.e. the code the seed repository
    shipped.  The systems it runs are unpinned, so the ambient backend is
    the one their sessions use.
    """
    saved_run = HyTGraphEngine.run
    saved_combine = TaskCombiner.combine
    saved_estimate = CostModel.estimate
    saved_gather = [module.gather_edge_indices for module in _ALGORITHM_MODULES]
    HyTGraphEngine.run = _seed_run
    TaskCombiner.combine = _seed_combine
    CostModel.estimate = _seed_estimate
    for module in _ALGORITHM_MODULES:
        module.gather_edge_indices = _seed_gather_edge_indices
    try:
        with use_backend(_SeedKernels()):
            yield
    finally:
        HyTGraphEngine.run = saved_run
        TaskCombiner.combine = saved_combine
        CostModel.estimate = saved_estimate
        for module, gather in zip(_ALGORITHM_MODULES, saved_gather):
            module.gather_edge_indices = gather


# ----------------------------------------------------------------------
# Timing helpers
# ----------------------------------------------------------------------


def _best_of(repeats, fn):
    best = None
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _merge_best(best, key, elapsed):
    previous = best.get(key)
    best[key] = elapsed if previous is None else min(previous, elapsed)


#: Half-width of the parity band for microbench ratios.  Two sides of a
#: row whose best-of times land within this fraction of each other are
#: statistically indistinguishable under this harness's noise floor — for
#: the numpy-backend scatter rows on indexed-ufunc NumPy builds they are
#: *literally the same code path* (both delegate to ``ufunc.at``), so any
#: deviation from 1.0 is a measurement coin-flip, not a speedup or a
#: regression.  Ratios inside the band snap to exactly 1.0 (symmetrically:
#: 1.02 snaps down just as 0.98 snaps up); the raw ``before_s``/``after_s``
#: timings are preserved unsnapped in the payload.
MICRO_PARITY_BAND = 0.03


def _snap_parity(ratio):
    if ratio is not None and abs(ratio - 1.0) <= MICRO_PARITY_BAND:
        return 1.0
    return ratio


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------


def run_microbench(num_vertices, repeats, backend_names):
    """Kernel rows for every backend in ``backend_names`` (numpy first).

    ``before_s`` is always the seed formulation — :class:`_SeedKernels`
    (``ufunc.at`` scatters, snapshot + ``np.unique`` pushes) — measured
    once per batch and shared by every backend's rows so their speedups
    are directly comparable.  Non-numpy
    rows additionally record ``vs_numpy``: the numpy backend's time over
    this backend's time on the identical batch (>1 = faster than numpy).
    All backends are warmed by ``get_backend`` before any timing, so JIT
    compilation never lands in a measured region.

    Measurements are *interleaved*: every best-of round times the seed
    formulation and each backend back to back, so machine-level drift
    across the run hits all candidates equally instead of biasing
    whichever contiguous block happened to land in a slow spell.
    Ratios within :data:`MICRO_PARITY_BAND` of 1.0 are reported as exact
    parity — see the constant's docstring for why.
    """
    assert backend_names[0] == "numpy", "numpy reference must be benched first"
    rng = np.random.default_rng(42)
    backends = {name: get_backend(name) for name in backend_names}
    results = {name: {} for name in backend_names}

    def kernel_ops(impl, base, destinations, values):
        return {
            "scatter_add": lambda: impl.scatter_add(base.copy(), destinations, values),
            "scatter_min": lambda: impl.scatter_min(base.copy(), destinations, values),
            "push_and_activate_min": lambda: impl.push_and_activate(
                base.copy(), destinations, values, combine="min"
            ),
            "push_and_activate_add": lambda: impl.push_and_activate(
                base.copy(), destinations, values, combine="add", threshold=0.5
            ),
        }

    for label, factor in (("dense", 8), ("sparse", 0.02)):
        num_messages = int(num_vertices * factor)
        destinations = rng.integers(0, num_vertices, size=num_messages)
        values = rng.random(num_messages) * 1e-3
        base = rng.random(num_vertices)

        seed_ops = kernel_ops(_SeedKernels, base, destinations, values)
        backend_ops = {
            name: kernel_ops(backends[name], base, destinations, values)
            for name in backend_names
        }

        # Each measurement is one untimed warm call followed by three
        # consecutive timed calls (min taken): the warm call soaks up
        # whatever cache/allocator state the previous candidate left
        # behind, and the consecutive timed calls ride out the recovery
        # tail a heavy predecessor still causes after that.  Candidates
        # are grouped by *op* — seed and every backend for the same op
        # run back to back — so all sides of a row see the same machine
        # state and the mins compare like with like.
        def measure(best, op_name, fn):
            warm = _time_once(fn)
            # Cheap ops get more timed calls per round: their rows sit
            # near absolute floors (e.g. numpy scatters vs seed at ~1.0x)
            # where per-call jitter decides the verdict, and extra calls
            # cost microseconds.
            for _ in range(3 if warm > 0.005 else 9):
                _merge_best(best, op_name, _time_once(fn))

        seed_best: dict = {}
        after_best: dict = {name: {} for name in backend_names}
        for round_index in range(max(1, repeats)):
            for op_name, seed_fn in seed_ops.items():
                group = [("seed", seed_fn)]
                group.extend((name, backend_ops[name][op_name]) for name in backend_names)
                # Rotate within the group each round: even adjacent slots
                # carry small systematic biases (timer interrupts, cache
                # residue), so every candidate must sample every slot for
                # the mins to be comparable.
                offset = round_index % len(group)
                for owner, fn in group[offset:] + group[:offset]:
                    measure(seed_best if owner == "seed" else after_best[owner], op_name, fn)

        for name in backend_names:
            for op_name, before in seed_best.items():
                after = after_best[name][op_name]
                row = {
                    "before_s": before,
                    "after_s": after,
                    "speedup": _snap_parity(before / after) if after else None,
                }
                if name != "numpy":
                    numpy_after = after_best["numpy"][op_name]
                    row["vs_numpy"] = _snap_parity(numpy_after / after) if after else None
                results[name]["%s_%s" % (op_name, label)] = row

    graph = rmat_graph(num_vertices, num_vertices * 8, seed=3)
    results["numpy"].update(_graph_utility_rows(graph, repeats))
    return results


def _graph_utility_rows(graph, repeats):
    results = {}

    def seed_edge_sources():
        sources = np.empty(graph.num_edges, dtype=np.int64)
        for vertex in range(graph.num_vertices):
            start, end = graph.edge_slice(vertex)
            sources[start:end] = vertex
        return sources

    def new_edge_sources():
        return np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees)

    before, seed_sources = _best_of(1, seed_edge_sources)
    after, new_sources = _best_of(repeats, new_edge_sources)
    assert np.array_equal(seed_sources, new_sources)
    results["edge_sources"] = {"before_s": before, "after_s": after, "speedup": before / after if after else None}

    def seed_partition_by_bytes(target_bytes):
        budget_edges = max(1, target_bytes // graph.edge_bytes_per_edge)
        boundaries = [0]
        current_edges = 0
        for vertex in range(graph.num_vertices):
            degree = int(graph.out_degrees[vertex])
            if current_edges > 0 and current_edges + degree > budget_edges:
                boundaries.append(vertex)
                current_edges = 0
            current_edges += degree
        boundaries.append(graph.num_vertices)
        return boundaries

    target = max(graph.edge_bytes_per_edge, graph.edge_data_bytes // 64)
    before, _ = _best_of(1, lambda: seed_partition_by_bytes(target))
    after, _ = _best_of(repeats, lambda: partition_by_bytes(graph, target))
    results["partition_by_bytes"] = {"before_s": before, "after_s": after, "speedup": before / after if after else None}
    return results


# ----------------------------------------------------------------------
# End-to-end runs
# ----------------------------------------------------------------------


def _build_workloads(num_vertices, num_edges, seed):
    plain = rmat_graph(num_vertices, num_edges, seed=seed, name="rmat")
    weighted = rmat_graph(num_vertices, num_edges, seed=seed, weighted=True, name="rmat-w")
    uniform = uniform_random_graph(num_vertices, num_edges, seed=seed, name="uniform")
    return [
        ("PR", plain, DeltaPageRank(), None),
        ("SSSP", weighted, SSSP(), 0),
        ("BFS", plain, BFS(), 0),
        ("CC", uniform, ConnectedComponents(), None),
        ("PHP", plain, PHP(), 0),
    ]


def _make_systems(graph):
    return [
        HyTGraphSystem(graph),
        EmogiSystem(graph),
        SubwaySystem(graph),
    ]


def run_end_to_end(num_vertices, num_edges, seed, repeats, inject_slowdown=1.0):
    results = {}
    for algorithm, graph, program, source in _build_workloads(num_vertices, num_edges, seed):
        per_system = {}
        for system in _make_systems(graph):
            kwargs = {} if source is None else {"source": source}
            with seed_baseline():
                before, result_before = _best_of(repeats, lambda: system.run(program, **kwargs))
            after, result_after = _best_of(repeats, lambda: system.run(program, **kwargs))
            after *= inject_slowdown
            identical = bool(
                np.array_equal(np.asarray(result_before.values), np.asarray(result_after.values))
            )
            per_system[system.name] = {
                "before_s": before,
                "after_s": after,
                "speedup": before / after if after else None,
                "identical_values": identical,
                "iterations": len(result_after.iterations),
                "graph": graph.name,
            }
            print(
                "  %-4s %-9s before %8.3fs  after %8.3fs  speedup %5.2fx  identical=%s"
                % (algorithm, system.name, before, after, before / after, identical)
            )
            if not identical:
                raise AssertionError(
                    "%s on %s: seed and kernel-layer runs disagree" % (algorithm, system.name)
                )
        results[algorithm] = per_system
    return results


# ----------------------------------------------------------------------
# Backend A/B: numpy reference vs the active backend, end to end
# ----------------------------------------------------------------------

#: Fixed A/B workload so backend speedups are comparable across runs and
#: machines regardless of --smoke / --vertices (kernel work must dominate
#: enough for the comparison to say something about the kernel layer).
BACKEND_E2E_VERTICES = 1 << 15
BACKEND_E2E_EDGES = 1 << 18


def run_backend_e2e(backend_name, repeats):
    """One PageRank through HyTGraph: numpy backend vs ``backend_name``.

    Skipped (with a note) when the active backend *is* numpy — the A/B
    would compare numpy with itself.  Both runs must produce bitwise
    identical per-vertex values; the harness asserts it and records the
    verdict so the regression gate can fail on any divergence.
    """
    if backend_name == "numpy":
        return {"backend": "numpy", "note": "active backend is the numpy reference; no A/B run"}
    graph = rmat_graph(BACKEND_E2E_VERTICES, BACKEND_E2E_EDGES, seed=9, name="rmat-backend")
    program = DeltaPageRank()
    repeats = max(repeats, 3)

    with use_backend("numpy"):
        system = HyTGraphSystem(graph)
        numpy_s, numpy_result = _best_of(repeats, lambda: system.run(program))
    with use_backend(backend_name):
        system = HyTGraphSystem(graph)
        backend_s, backend_result = _best_of(repeats, lambda: system.run(program))

    identical = bool(
        np.array_equal(
            np.asarray(numpy_result.values).view(np.int64),
            np.asarray(backend_result.values).view(np.int64),
        )
    )
    entry = {
        "backend": backend_name,
        "algorithm": "PR",
        "vertices": BACKEND_E2E_VERTICES,
        "edges": BACKEND_E2E_EDGES,
        "numpy_s": numpy_s,
        "backend_s": backend_s,
        "speedup": numpy_s / backend_s if backend_s else None,
        "identical_values": identical,
    }
    print(
        "  PR HyTGraph numpy %8.3fs  %s %8.3fs  speedup %5.2fx  identical=%s"
        % (numpy_s, backend_name, backend_s, entry["speedup"], identical)
    )
    if not identical:
        raise AssertionError(
            "backend %r diverged bitwise from the numpy reference on PageRank" % backend_name
        )
    return entry


# ----------------------------------------------------------------------
# Multi-query serving throughput
# ----------------------------------------------------------------------


def run_batch_bench(num_vertices, num_edges, batch_size, devices=2):
    """Batched vs sequential simulated speedup on a transfer-bound workload.

    Unlike the wall-clock sections, the measured quantity here is
    *simulated* makespan — deterministic for a given graph/config — so
    any movement between runs is a real behaviour change in the serving
    layer (lost residency warming, broken transfer dedup, scheduling
    drift).  ``benchmarks/bench_batch_queries.py`` is the full version.
    """
    graph = rmat_graph(num_vertices, num_edges, seed=5, weighted=True, name="rmat-batch")
    config = HardwareConfig(
        gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9
    ).with_devices(devices)
    sources = batch_sources(graph, batch_size)
    program = SSSP()

    results = {}
    for system_cls in (HyTGraphSystem, ExpTMFilterSystem):
        system = system_cls(graph, config=config)
        sequential = [system.run(program, source=source) for source in sources]
        batch = QueryBatchRunner(system).run([(program, source) for source in sources])
        for alone, batched in zip(sequential, batch.results):
            if not np.array_equal(np.asarray(alone.values), np.asarray(batched.values)):
                raise AssertionError(
                    "%s: batched query values diverged from sequential" % system.name
                )
        stats = batch.amortization_vs(sequential)
        results[system.name] = {
            "queries": batch_size,
            "devices": devices,
            "speedup": stats["speedup"],
            "sequential_s": stats["sequential_time"],
            "batched_s": stats["batched_time"],
            "queries_per_s": batch.queries_per_second,
            "transfer_bytes_saved": stats["transfer_bytes_saved"],
        }
        print(
            "  %-9s K=%-3d sequential %8.6fs  batched %8.6fs  speedup %5.2fx"
            % (system.name, batch_size, stats["sequential_time"], stats["batched_time"], stats["speedup"])
        )
    return results


# ----------------------------------------------------------------------
# Device-memory cache policies
# ----------------------------------------------------------------------


def run_cache_bench(rows, cols, batch_size, devices=2):
    """Frontier-aware vs static-prefix caching, as a simulated speedup.

    Like the serving section, the measured quantity is deterministic
    simulated makespan, so the regression gate holds it to the shared
    tolerance: a drop means the cache subsystem lost reuse (broken
    admission, over-eager eviction, lost cross-super-iteration
    retention), not that CI was slow.  The workload is the
    memory-constrained transfer-bound wavefront batch of
    ``benchmarks/bench_cache_policies.py`` at a smaller scale, on the
    system where caching directly replaces traffic (ExpTM-F).
    """
    graph = grid_graph(rows, cols, weighted=True, seed=3)
    config = HardwareConfig(
        gpu_memory_bytes=graph.edge_data_bytes // 6, pcie_bandwidth=5e8
    ).with_devices(devices)
    queries = [(SSSP(), source) for source in batch_sources(graph, batch_size, seed=11)]

    results = {}
    makespans = {}
    for policy in ("static-prefix", "frontier-aware"):
        system = ExpTMFilterSystem(graph, config=config, cache_policy=policy)
        batch = QueryBatchRunner(system).run(queries)
        makespans[policy] = batch.makespan
        results[policy] = {
            "makespan_s": batch.makespan,
            "transfer_bytes": batch.total_transfer_bytes,
            "cache_hit_bytes": batch.cache_hit_bytes,
        }
    speedup = makespans["static-prefix"] / makespans["frontier-aware"]
    results["speedup"] = speedup
    print(
        "  ExpTM-F  static %8.6fs  frontier-aware %8.6fs  speedup %5.2fx"
        % (makespans["static-prefix"], makespans["frontier-aware"], speedup)
    )
    return {"ExpTM-F": results}


# ----------------------------------------------------------------------
# Service scheduling (priority vs FIFO p95 point-lookup latency)
# ----------------------------------------------------------------------


def run_service_bench(num_vertices, num_edges, point_lookups, analytical):
    """Priority-vs-FIFO p95 point-lookup latency ratio, as a speedup.

    The measured quantity is deterministic simulated latency, so the
    regression gate holds it to the shared tolerance: a drop means the
    priority scheduler stopped protecting INTERACTIVE requests from BULK
    analytics (lost task ordering, broken latency accounting), not that
    CI was slow.  ``benchmarks/bench_service_scheduling.py`` is the full
    version.
    """
    from repro.service import GraphService, Priority, ServiceConfig, synthetic_mixed_trace

    graph = rmat_graph(num_vertices, num_edges, seed=5, weighted=True, name="rmat-serve")
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)
    requests = synthetic_mixed_trace(graph, point_lookups, analytical, seed=11)

    results = {}
    p95 = {}
    for scheduling in ("fifo", "priority"):
        service = GraphService(
            ServiceConfig(system="hytgraph", scheduling=scheduling),
            system=HyTGraphSystem(graph, config=config),
        )
        service.submit_many(requests)
        service.drain()
        stats = service.stats()
        p95[scheduling] = stats.latency_percentile(Priority.INTERACTIVE, 95)
        results[scheduling] = {
            "point_p95_s": p95[scheduling],
            "bulk_p95_s": stats.latency_percentile(Priority.BULK, 95),
            "makespan_s": stats.makespan_s,
        }
    speedup = p95["fifo"] / p95["priority"]
    results["speedup"] = speedup
    print(
        "  HyTGraph  fifo p95 %8.6fs  priority p95 %8.6fs  speedup %5.2fx"
        % (p95["fifo"], p95["priority"], speedup)
    )
    return {"HyTGraph": results}


# ----------------------------------------------------------------------
# Tracing overhead (the zero-overhead promise of repro.obs)
# ----------------------------------------------------------------------

#: The traced serve's wall time may exceed the untraced one by at most
#: this factor — an absolute ceiling on the *current* payload, no
#: reference rows needed (older references predate the tracing section).
TRACING_OVERHEAD_CEILING = 1.10
#: Fewest interleaved rounds behind the tracing-overhead median.  One
#: round's ratio scatters by about +-5% on a shared runner and the true
#: overhead sits 2-3% under the ceiling, so the median needs this many
#: to read the same side of it run after run (~13 s of the smoke).
TRACING_MIN_ROUNDS = 60


def run_tracing_bench(
    num_vertices, num_edges, point_lookups, analytical, repeats, inject_slowdown=1.0
):
    """Wall time of one mixed serve, tracing enabled vs disabled.

    Both sides build a fresh service and serve the identical request mix;
    rounds are interleaved (disabled/enabled back to back, order rotated,
    every call also the warm-up of the next) so machine drift hits both
    equally.  The reported overhead is the median of the per-round
    traced/untraced ratios: the two halves of a round ran under the same
    machine conditions, so their ratio is steady where a ratio of two
    best-of times compares one lucky call with another and wanders across
    the ceiling on an unchanged tree.  The simulated makespans must be
    identical — tracing is instrumentation, never arithmetic — and the
    harness asserts it before reporting.
    """
    from repro.service import GraphService, ServiceConfig, synthetic_mixed_trace

    graph = rmat_graph(num_vertices, num_edges, seed=5, weighted=True, name="rmat-trace")
    config = HardwareConfig(gpu_memory_bytes=graph.edge_data_bytes // 2, pcie_bandwidth=1e9)
    requests = synthetic_mixed_trace(graph, point_lookups, analytical, seed=11)

    makespans = {}

    def serve(tracing):
        def run():
            service = GraphService(
                ServiceConfig(system="hytgraph", tracing=tracing),
                system=HyTGraphSystem(graph, config=config),
            )
            service.submit_many(requests)
            service.drain()
            makespans[tracing] = service.stats().makespan_s
            return service

        return run

    best = {}
    ratios = []
    candidates = [(False, serve(False)), (True, serve(True))]
    for _, fn in candidates:
        fn()  # warm call: soak up allocator/cache state
    for round_index in range(max(repeats, TRACING_MIN_ROUNDS)):
        offset = round_index % len(candidates)
        elapsed = {}
        for tracing, fn in candidates[offset:] + candidates[:offset]:
            # Same collector state at every start: one side's garbage is
            # never collected on the other side's clock.
            gc.collect()
            elapsed[tracing] = _time_once(fn) * (inject_slowdown if tracing else 1.0)
            _merge_best(best, tracing, elapsed[tracing])
        ratios.append(elapsed[True] / elapsed[False])

    if makespans[False] != makespans[True]:
        raise AssertionError(
            "tracing changed the simulated makespan: %r (off) vs %r (on)"
            % (makespans[False], makespans[True])
        )
    ratio = float(np.median(ratios))
    entry = {
        "queries": point_lookups + analytical,
        "rounds": len(ratios),
        "disabled_s": best[False],
        "enabled_s": best[True],
        "overhead_ratio": ratio,
        "makespan_s": makespans[False],
        "identical_makespan": True,
    }
    print(
        "  HyTGraph  untraced %8.6fs  traced %8.6fs  overhead %.3fx, median of %d rounds (ceiling %.2fx)"
        % (best[False], best[True], ratio, len(ratios), TRACING_OVERHEAD_CEILING)
    )
    return {"HyTGraph": entry}


# ----------------------------------------------------------------------
# Perf-regression gate
# ----------------------------------------------------------------------


def _geomean(values):
    return float(np.exp(np.mean(np.log(values))))


#: The numba backend's JIT loops must beat numpy by at least this factor
#: on the dense push_and_activate microbenches (the rows the fused-kernel
#: layer was built for); gated absolutely whenever numba rows are present.
NUMBA_DENSE_PUSH_FLOOR = 2.0


def check_regressions(current, reference, tolerance):
    """Compare end-to-end speedups against a reference payload.

    Returns the list of failure strings (empty = gate passes).  The gated
    quantity is each system's speedup **geomean across algorithms** — a
    dimensionless, in-run-normalised number, so a slow CI runner shifts
    both sides equally and only genuine hot-path regressions fire the
    gate.  Per-entry smoke speedups on 10k-edge graphs jitter by up to
    ~30%, which is why individual entries are reported but not gated.
    """
    current_by_system = {}
    reference_by_system = {}
    for algorithm, systems in current.get("end_to_end", {}).items():
        for system_name, entry in systems.items():
            ref_entry = reference.get("end_to_end", {}).get(algorithm, {}).get(system_name)
            if not ref_entry or not entry.get("speedup") or not ref_entry.get("speedup"):
                continue
            current_by_system.setdefault(system_name, []).append(entry["speedup"])
            reference_by_system.setdefault(system_name, []).append(ref_entry["speedup"])
    if not current_by_system:
        return ["no comparable end-to-end entries between run and reference"]

    failures = []
    print("== perf-regression gate (tolerance %.0f%%) ==" % (tolerance * 100))
    for system_name in sorted(current_by_system):
        current_geomean = _geomean(current_by_system[system_name])
        reference_geomean = _geomean(reference_by_system[system_name])
        floor = reference_geomean * (1.0 - tolerance)
        ok = current_geomean >= floor
        print(
            "  %-9s speedup geomean %.2fx (reference %.2fx, floor %.2fx) %s"
            % (system_name, current_geomean, reference_geomean, floor, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "%s: speedup geomean %.2fx fell below %.2fx (reference %.2fx - %.0f%%)"
                % (system_name, current_geomean, floor, reference_geomean, tolerance * 100)
            )

    # Multi-query serving throughput: deterministic simulated speedups,
    # held to the same tolerance.
    for system_name in sorted(current.get("batch", {})):
        entry = current["batch"][system_name]
        ref_entry = reference.get("batch", {}).get(system_name)
        if not ref_entry or not entry.get("speedup") or not ref_entry.get("speedup"):
            continue
        floor = ref_entry["speedup"] * (1.0 - tolerance)
        ok = entry["speedup"] >= floor
        print(
            "  %-9s batched speedup %.2fx (reference %.2fx, floor %.2fx) %s"
            % (system_name, entry["speedup"], ref_entry["speedup"], floor, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "%s: batched serving speedup %.2fx fell below %.2fx (reference %.2fx - %.0f%%)"
                % (system_name, entry["speedup"], floor, ref_entry["speedup"], tolerance * 100)
            )

    # Cache-policy speedups: also deterministic simulated numbers; a
    # drop means the cache subsystem lost reuse.
    for system_name in sorted(current.get("cache", {})):
        entry = current["cache"][system_name]
        ref_entry = reference.get("cache", {}).get(system_name)
        if not ref_entry or not entry.get("speedup") or not ref_entry.get("speedup"):
            continue
        floor = ref_entry["speedup"] * (1.0 - tolerance)
        ok = entry["speedup"] >= floor
        print(
            "  %-9s cache-policy speedup %.2fx (reference %.2fx, floor %.2fx) %s"
            % (system_name, entry["speedup"], ref_entry["speedup"], floor, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "%s: cache-policy speedup %.2fx fell below %.2fx (reference %.2fx - %.0f%%)"
                % (system_name, entry["speedup"], floor, ref_entry["speedup"], tolerance * 100)
            )

    # Service-scheduling p95 speedups: deterministic simulated latency
    # ratios; a drop means priority scheduling lost its latency shield.
    for system_name in sorted(current.get("service", {})):
        entry = current["service"][system_name]
        ref_entry = reference.get("service", {}).get(system_name)
        if not ref_entry or not entry.get("speedup") or not ref_entry.get("speedup"):
            continue
        floor = ref_entry["speedup"] * (1.0 - tolerance)
        ok = entry["speedup"] >= floor
        print(
            "  %-9s service p95 speedup %.2fx (reference %.2fx, floor %.2fx) %s"
            % (system_name, entry["speedup"], ref_entry["speedup"], floor, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "%s: service p95 speedup %.2fx fell below %.2fx (reference %.2fx - %.0f%%)"
                % (system_name, entry["speedup"], floor, ref_entry["speedup"], tolerance * 100)
            )

    # Backend gates — absolute thresholds on the current payload, no
    # reference rows needed.  The numba backend must beat the numpy
    # reference on the dense fused-push rows (the kernels it exists
    # for), and any backend A/B must stay bitwise identical and, for
    # numba, not lose end to end.
    numba_rows = current.get("microbench", {}).get("numba", {})
    for row_name in sorted(numba_rows):
        if not (row_name.startswith("push_and_activate") and row_name.endswith("_dense")):
            continue
        ratio = numba_rows[row_name].get("vs_numpy")
        ok = ratio is not None and ratio >= NUMBA_DENSE_PUSH_FLOOR
        print(
            "  numba %-28s vs numpy %5.2fx (floor %.1fx) %s"
            % (row_name, ratio or 0.0, NUMBA_DENSE_PUSH_FLOOR, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "numba %s: %.2fx vs numpy fell below the %.1fx floor"
                % (row_name, ratio or 0.0, NUMBA_DENSE_PUSH_FLOOR)
            )

    # Tracing overhead — absolute ceiling on the current payload (the
    # reference may predate the tracing section; tracing-off is the
    # baseline measured in the same run, so no reference is needed).
    for system_name in sorted(current.get("tracing", {})):
        entry = current["tracing"][system_name]
        ratio = entry.get("overhead_ratio")
        if ratio is None:
            continue
        ok = ratio <= TRACING_OVERHEAD_CEILING
        print(
            "  %-9s tracing overhead %.3fx (ceiling %.2fx) %s"
            % (system_name, ratio, TRACING_OVERHEAD_CEILING, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "%s: tracing overhead %.3fx exceeded the %.2fx ceiling"
                % (system_name, ratio, TRACING_OVERHEAD_CEILING)
            )

    backend_e2e = current.get("backend_e2e") or {}
    if backend_e2e.get("speedup") is not None:
        name = backend_e2e.get("backend")
        if not backend_e2e.get("identical_values"):
            failures.append("backend %s: end-to-end values diverged from the numpy reference" % name)
        speedup = backend_e2e["speedup"]
        ok = name != "numba" or speedup >= 1.0
        print(
            "  %-9s end-to-end PR speedup %.2fx vs numpy %s"
            % (name, speedup, "ok" if ok else "REGRESSION")
        )
        if not ok:
            failures.append(
                "backend %s: end-to-end PageRank speedup %.2fx lost to the numpy reference"
                % (name, speedup)
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--edges", type=int, default=1_000_000, help="target edge count of the generated graphs")
    parser.add_argument("--vertices", type=int, default=1 << 17, help="vertex count of the generated graphs")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument("--repeats", type=int, default=2, help="best-of repetitions per measurement")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUTPUT, help="output JSON path")
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="compute backend to activate for the whole run (numpy, numba or auto; "
        "default: the REPRO_BACKEND environment override, numpy otherwise)",
    )
    parser.add_argument(
        "--micro-vertices",
        type=int,
        default=None,
        metavar="N",
        help="vertex count for the kernel microbenchmarks (default: min(--vertices, 2^17))",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI run: 2k vertices / 10k edges, single repetition",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        metavar="REF.json",
        help="fail (exit 1) when end-to-end speedups regress beyond the tolerance vs this reference",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional speedup drop before the gate fails (default 0.25)",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply measured current-code times by FACTOR (validates that the gate fires)",
    )
    args = parser.parse_args(argv)
    if args.check_against is not None and not args.check_against.is_file():
        # Fail before the run, by name — not with a traceback after it.
        raise SystemExit("error: --check-against reference %s does not exist" % args.check_against)

    if args.smoke:
        # Shrink to CI scale, but let explicit --vertices/--edges win.
        if args.vertices == parser.get_default("vertices"):
            args.vertices = 2_000
        if args.edges == parser.get_default("edges"):
            args.edges = 10_000
        args.repeats = 1
    # Microbench size is decoupled from the smoke graph size: the kernel
    # rows gate at absolute floors, so they need batches large enough
    # that kernel work dominates call overhead even in --smoke mode.
    micro_vertices = args.micro_vertices or (
        1 << 16 if args.smoke else min(args.vertices, 1 << 17)
    )

    # Activate the requested backend for the whole run (raises up front,
    # naming the installed backends, on an unknown/uninstalled name).
    backend_name = resolve_backend_name(args.backend)
    set_active_backend(backend_name)
    # Microbench the numpy reference first, then every other installed
    # backend; kernel arrays are tiny, so the extra rows are near-free.
    micro_backends = ["numpy"] + [n for n in available_backends() if n != "numpy"]
    # Best-of over at least 5 rounds (x3 timed calls each): micro rows
    # gate at absolute floors (numpy >= seed, numba >= 2x numpy), so they
    # get extra noise control even in --smoke mode where everything else
    # runs once.
    micro_repeats = max(args.repeats, 5)

    print(
        "== microbenchmarks (|V| = %d, backends: %s) =="
        % (micro_vertices, ", ".join(micro_backends))
    )
    microbench = run_microbench(micro_vertices, micro_repeats, micro_backends)
    for name in micro_backends:
        for row_name, entry in microbench[name].items():
            suffix = "  vs numpy %5.2fx" % entry["vs_numpy"] if "vs_numpy" in entry else ""
            print(
                "  %-9s %-26s before %8.5fs  after %8.5fs  speedup %6.1fx%s"
                % (name, row_name, entry["before_s"], entry["after_s"], entry["speedup"], suffix)
            )

    print("== backend A/B (active backend: %s) ==" % backend_name)
    backend_e2e = run_backend_e2e(backend_name, args.repeats)

    print("== end-to-end (|V| = %d, |E| ~ %d) ==" % (args.vertices, args.edges))
    end_to_end = run_end_to_end(
        args.vertices, args.edges, args.seed, args.repeats, inject_slowdown=args.inject_slowdown
    )

    if args.smoke:
        batch_vertices, batch_edges, batch_size = 1_000, 8_000, 8
    else:
        batch_vertices, batch_edges, batch_size = 4_000, 40_000, 16
    print("== multi-query serving (|V| = %d, K = %d, 2 devices) ==" % (batch_vertices, batch_size))
    batch = run_batch_bench(batch_vertices, batch_edges, batch_size)

    if args.smoke:
        cache_rows, cache_cols, cache_batch = 40, 30, 4
    else:
        cache_rows, cache_cols, cache_batch = 100, 60, 8
    print("== cache policies (grid %dx%d, K = %d, 2 devices) ==" % (cache_rows, cache_cols, cache_batch))
    cache = run_cache_bench(cache_rows, cache_cols, cache_batch)

    if args.smoke:
        serve_vertices, serve_edges, serve_lookups, serve_analytical = 1_000, 8_000, 6, 4
    else:
        serve_vertices, serve_edges, serve_lookups, serve_analytical = 2_000, 20_000, 12, 8
    print(
        "== service scheduling (|V| = %d, %d lookups + %d analytical) =="
        % (serve_vertices, serve_lookups, serve_analytical)
    )
    service = run_service_bench(serve_vertices, serve_edges, serve_lookups, serve_analytical)

    print(
        "== tracing overhead (|V| = %d, %d lookups + %d analytical) =="
        % (serve_vertices, serve_lookups, serve_analytical)
    )
    tracing = run_tracing_bench(
        serve_vertices, serve_edges, serve_lookups, serve_analytical, args.repeats,
        inject_slowdown=args.inject_slowdown,
    )

    payload = {
        "meta": {
            "harness": "bench_perf_hotpaths",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "vertices": args.vertices,
            "edges": args.edges,
            "seed": args.seed,
            "repeats": args.repeats,
            "smoke": bool(args.smoke),
            "backend": backend_name,
            "backends_available": list(available_backends()),
        },
        "microbench": microbench,
        "backend_e2e": backend_e2e,
        "end_to_end": end_to_end,
        "batch": batch,
        "cache": cache,
        "service": service,
        "tracing": tracing,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % args.out)

    hytgraph_pr = end_to_end["PR"]["HyTGraph"]["speedup"]
    hytgraph_sssp = end_to_end["SSSP"]["HyTGraph"]["speedup"]
    print(
        "HyTGraph end-to-end speedups: PR %.2fx, SSSP %.2fx (target >= 3x on ~1M-edge graphs)"
        % (hytgraph_pr, hytgraph_sssp)
    )

    if args.check_against is not None:
        reference = json.loads(args.check_against.read_text())
        failures = check_regressions(payload, reference, args.tolerance)
        if failures:
            for failure in failures:
                print("FAIL: %s" % failure)
            raise SystemExit(1)
        print("perf-regression gate passed (reference: %s)" % args.check_against)
    return payload


if __name__ == "__main__":
    main()
