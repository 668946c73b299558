"""Per-iteration and per-run measurement records.

The paper's evaluation reports three kinds of numbers, and every one can
be derived from these records:

* overall runtimes (Table V, Figures 9/10) — :attr:`RunResult.total_time`;
* transfer volume normalised to edge volume (Table VI) —
  :meth:`RunResult.transfer_ratio`;
* per-iteration breakdowns and engine mixes (Figures 3 and 7) — the
  :class:`IterationStats` list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IterationStats", "RunResult", "BatchResult"]


@dataclass
class IterationStats:
    """Measurements of one (outer) iteration of a system.

    Attributes
    ----------
    index:
        Iteration number, starting at 0.
    time:
        Simulated wall-clock seconds of the iteration (scheduler makespan
        plus any per-iteration overhead such as cost analysis).
    active_vertices / active_edges:
        Size of the frontier at the start of the iteration.
    transfer_bytes:
        Bytes that crossed PCIe during the iteration.
    compaction_time / transfer_time / kernel_time:
        Busy time of the CPU-compaction, PCIe and GPU resources (these may
        overlap, so they need not sum to ``time``).
    processed_edges:
        Edges actually pushed by the vertex program (exceeds
        ``active_edges`` when a system re-processes loaded subgraphs).
    engine_partitions:
        How many partitions chose each transfer engine this iteration.
    engine_tasks:
        How many scheduled tasks each engine contributed after combining.
    interconnect_bytes:
        Boundary-vertex delta bytes exchanged between devices at the end
        of the iteration (0 on single-device runs).
    sync_time:
        Seconds of the boundary-synchronisation phase (0 on single-device
        runs).
    cache_hit_bytes / cache_miss_bytes / cache_evicted_bytes:
        Device-memory cache traffic of the iteration: whole-partition
        bytes served from resident partitions for free, bytes billed as
        misses, and bytes evicted by the policy (all 0 on cacheless
        sessions).
    """

    index: int
    time: float
    active_vertices: int
    active_edges: int
    transfer_bytes: int = 0
    compaction_time: float = 0.0
    transfer_time: float = 0.0
    kernel_time: float = 0.0
    processed_edges: int = 0
    engine_partitions: dict[str, int] = field(default_factory=dict)
    engine_tasks: dict[str, int] = field(default_factory=dict)
    interconnect_bytes: int = 0
    sync_time: float = 0.0
    cache_hit_bytes: int = 0
    cache_miss_bytes: int = 0
    cache_evicted_bytes: int = 0

    def breakdown(self) -> dict[str, float]:
        """The Figure 3(b)/(c) style {compaction, transfer, computation} split."""
        return {
            "compaction": self.compaction_time,
            "transfer": self.transfer_time,
            "computation": self.kernel_time,
        }


@dataclass
class RunResult:
    """Complete record of one system executing one algorithm on one graph."""

    system: str
    algorithm: str
    graph_name: str
    iterations: list[IterationStats] = field(default_factory=list)
    values: np.ndarray | None = None
    converged: bool = False
    preprocessing_time: float = 0.0
    extra: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        """Number of outer iterations executed."""
        return len(self.iterations)

    @property
    def total_time(self) -> float:
        """Total simulated execution time (excluding preprocessing).

        The paper reports execution time with preprocessing removed
        (Section III-A / VII-B), so this is the headline number.
        """
        return float(sum(stat.time for stat in self.iterations))

    @property
    def total_transfer_bytes(self) -> int:
        """Total bytes moved across PCIe."""
        return int(sum(stat.transfer_bytes for stat in self.iterations))

    @property
    def total_compaction_time(self) -> float:
        """Total CPU compaction busy time."""
        return float(sum(stat.compaction_time for stat in self.iterations))

    @property
    def total_transfer_time(self) -> float:
        """Total PCIe busy time."""
        return float(sum(stat.transfer_time for stat in self.iterations))

    @property
    def total_kernel_time(self) -> float:
        """Total GPU kernel busy time."""
        return float(sum(stat.kernel_time for stat in self.iterations))

    @property
    def total_processed_edges(self) -> int:
        """Total edges pushed by the vertex program across all iterations."""
        return int(sum(stat.processed_edges for stat in self.iterations))

    @property
    def total_interconnect_bytes(self) -> int:
        """Total inter-GPU boundary-delta bytes (0 on single-device runs)."""
        return int(sum(stat.interconnect_bytes for stat in self.iterations))

    @property
    def total_sync_time(self) -> float:
        """Total boundary-synchronisation seconds (0 on single-device runs)."""
        return float(sum(stat.sync_time for stat in self.iterations))

    @property
    def total_cache_hit_bytes(self) -> int:
        """Whole-partition bytes served from the device cache for free."""
        return int(sum(stat.cache_hit_bytes for stat in self.iterations))

    @property
    def total_cache_miss_bytes(self) -> int:
        """Whole-partition bytes billed as device-cache misses."""
        return int(sum(stat.cache_miss_bytes for stat in self.iterations))

    @property
    def total_cache_evicted_bytes(self) -> int:
        """Bytes evicted from the device cache by its policy."""
        return int(sum(stat.cache_evicted_bytes for stat in self.iterations))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of whole-partition cache traffic served for free."""
        looked_up = self.total_cache_hit_bytes + self.total_cache_miss_bytes
        if looked_up <= 0:
            return 0.0
        return self.total_cache_hit_bytes / looked_up

    def transfer_ratio(self, edge_data_bytes: int) -> float:
        """Transfer volume divided by one full pass over the edge data.

        This is the Table VI metric ("Transfer volume / Edge volume").
        """
        if edge_data_bytes <= 0:
            return 0.0
        return self.total_transfer_bytes / edge_data_bytes

    def per_iteration_times(self) -> list[float]:
        """Iteration times in order (the Figure 3(g)/(h), 7(c)/(d) series)."""
        return [stat.time for stat in self.iterations]

    def engine_mix(self) -> list[dict[str, float]]:
        """Per-iteration fraction of active partitions per engine (Figure 7a/b)."""
        mix = []
        for stat in self.iterations:
            total = sum(stat.engine_partitions.values())
            if total == 0:
                mix.append({})
            else:
                mix.append({engine: count / total for engine, count in stat.engine_partitions.items()})
        return mix

    def breakdown(self) -> dict[str, float]:
        """Whole-run {compaction, transfer, computation} totals (Figure 3c)."""
        return {
            "compaction": self.total_compaction_time,
            "transfer": self.total_transfer_time,
            "computation": self.total_kernel_time,
        }


@dataclass
class BatchResult:
    """Record of one concurrent multi-query batch on one system.

    Attributes
    ----------
    results:
        The per-query :class:`RunResult` records, in submission order.
        Query values are bitwise identical to standalone runs; the
        per-query timing/volume fields reflect the shared warm state
        (residency paid once, de-duplicated partition transfers).
    makespan:
        Simulated wall-clock seconds of the whole batch: per
        super-iteration, the live queries' task lists co-scheduled on
        the shared devices, plus their planning overheads.
    super_iterations:
        Number of batch super-iterations (the max over queries' outer
        iteration counts, minus skipped dead queries).
    amortized_bytes:
        Whole-partition transfer bytes that were *not* re-shipped
        because another query in the same super-iteration already moved
        the partition (0 for systems with no shareable transfers).
    cache_hit_bytes / cache_miss_bytes / cache_evicted_bytes:
        Batch-wide device-memory cache traffic, measured at the cache
        manager (unlike the per-query sums, this includes evictions at
        super-iteration boundaries, which no single query owns).
    latencies:
        Per-query service latency in submission order: each query's
        accumulated own-task completion times within the merged
        co-schedules plus its planning overheads (see
        :mod:`repro.runtime.batch`).  Empty for results built outside
        the batch runner.
    faults_injected / retries / retry_time_s:
        Fault-injection accounting (all zero without an injector):
        faults the injector applied, transient-transfer re-sends, and
        the retry + backoff seconds billed into the timeline.
    checkpoint_time_s / recovery_time_s / recovered_super_iterations:
        Recovery accounting: seconds spent writing checkpoints, seconds
        spent restoring from them, and super-iterations of work rolled
        back and re-executed after device losses.
    """

    system: str
    algorithm: str
    graph_name: str
    results: list[RunResult] = field(default_factory=list)
    makespan: float = 0.0
    super_iterations: int = 0
    amortized_bytes: int = 0
    cache_hit_bytes: int = 0
    cache_miss_bytes: int = 0
    cache_evicted_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    faults_injected: int = 0
    retries: int = 0
    retry_time_s: float = 0.0
    checkpoint_time_s: float = 0.0
    recovery_time_s: float = 0.0
    recovered_super_iterations: int = 0
    extra: dict[str, object] = field(default_factory=dict)

    #: Simulated times at or below this are treated as degenerate when
    #: forming ratios (tiny graphs can converge in ~zero simulated time).
    ZERO_TIME_EPS = 1e-12

    @property
    def num_queries(self) -> int:
        """Number of queries in the batch."""
        return len(self.results)

    @property
    def queries_per_second(self) -> float:
        """Aggregate simulated throughput of the batch.

        0.0 for degenerate (zero/near-zero makespan) batches rather
        than an infinite rate.
        """
        if self.makespan <= self.ZERO_TIME_EPS:
            return 0.0
        return self.num_queries / self.makespan

    @property
    def failed_queries(self) -> int:
        """Queries that ended in a terminal fault (permanent failure)."""
        return sum(
            1 for result in self.results if result.extra.get("fault_status") == "failed"
        )

    @property
    def cancelled_queries(self) -> int:
        """Queries cancelled by deadline enforcement."""
        return sum(
            1 for result in self.results if result.extra.get("fault_status") == "cancelled"
        )

    @property
    def total_transfer_bytes(self) -> int:
        """PCIe bytes actually moved for the whole batch."""
        return int(sum(result.total_transfer_bytes for result in self.results))

    @property
    def total_interconnect_bytes(self) -> int:
        """Inter-GPU boundary-delta bytes across all queries."""
        return int(sum(result.total_interconnect_bytes for result in self.results))

    def amortization_vs(self, sequential: list[RunResult]) -> dict[str, float]:
        """Amortization statistics against independent sequential runs.

        ``sequential`` holds one :class:`RunResult` per query from
        running them back to back on a cold session each (what a
        serving layer without batching would do).

        Degenerate baselines stay finite: when either side of the
        comparison is zero/near-zero simulated time (tiny graphs that
        converge instantly), the speedup is reported as a neutral 1.0
        and ``degenerate`` is set, instead of dividing through to
        ``inf``/``nan``.
        """
        sequential_time = float(sum(result.total_time for result in sequential))
        sequential_bytes = int(sum(result.total_transfer_bytes for result in sequential))
        degenerate = (
            self.makespan <= self.ZERO_TIME_EPS or sequential_time <= self.ZERO_TIME_EPS
        )
        speedup = 1.0 if degenerate else sequential_time / self.makespan
        return {
            "speedup": speedup,
            "degenerate": degenerate,
            "sequential_time": sequential_time,
            "batched_time": self.makespan,
            "sequential_transfer_bytes": float(sequential_bytes),
            "batched_transfer_bytes": float(self.total_transfer_bytes),
            "transfer_bytes_saved": float(sequential_bytes - self.total_transfer_bytes),
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-safe dump of the batch record (``--stats-json``, CI).

        Per-query value arrays are left out (they are results, not
        statistics), as are live checkpoint objects riding in ``extra``
        (``suspended``) — everything else serialises with ``json.dumps``.
        """
        extra = {
            key: value
            for key, value in self.extra.items()
            if isinstance(value, (bool, int, float, str, list, dict)) or value is None
        }
        extra.pop("suspended", None)
        if "suspended" in self.extra:
            extra["suspended_queries"] = sorted(self.extra["suspended"])
        return {
            "system": self.system,
            "algorithm": self.algorithm,
            "graph_name": self.graph_name,
            "queries": self.num_queries,
            "makespan_s": self.makespan,
            "queries_per_second": self.queries_per_second,
            "super_iterations": self.super_iterations,
            "amortized_bytes": self.amortized_bytes,
            "cache_hit_bytes": self.cache_hit_bytes,
            "cache_miss_bytes": self.cache_miss_bytes,
            "cache_evicted_bytes": self.cache_evicted_bytes,
            "total_transfer_bytes": self.total_transfer_bytes,
            "total_interconnect_bytes": self.total_interconnect_bytes,
            "latencies_s": list(self.latencies),
            "failed_queries": self.failed_queries,
            "cancelled_queries": self.cancelled_queries,
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "retry_time_s": self.retry_time_s,
            "checkpoint_time_s": self.checkpoint_time_s,
            "recovery_time_s": self.recovery_time_s,
            "recovered_super_iterations": self.recovered_super_iterations,
            "extra": extra,
        }
