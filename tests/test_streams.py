"""Unit tests for the multi-stream scheduler (Section VI-B, Figure 6)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import path_graph
from repro.graph.partition import build_partitioning
from repro.runtime.context import ExecutionContext
from repro.sim.config import HardwareConfig
from repro.sim.streams import StreamScheduler, StreamTask


def make_tasks(count, cpu=0.0, transfer=1.0, kernel=1.0, overlapped=False):
    return [
        StreamTask(
            name="t%d" % index,
            engine="ExpTM-F",
            cpu_time=cpu,
            transfer_time=transfer,
            kernel_time=kernel,
            overlapped_transfer=overlapped,
        )
        for index in range(count)
    ]


class TestScheduling:
    def test_empty_schedule(self, config):
        timeline = StreamScheduler(config).schedule([])
        assert timeline.makespan == 0.0

    def test_single_task_serial_stages(self, config):
        scheduler = StreamScheduler(config)
        task = StreamTask("t", "ExpTM-C", cpu_time=1.0, transfer_time=2.0, kernel_time=3.0)
        timeline = scheduler.schedule([task])
        assert timeline.makespan == pytest.approx(6.0)
        entry = timeline.entries[0]
        assert entry.time_on("cpu") == pytest.approx(1.0)
        assert entry.time_on("pcie") == pytest.approx(2.0)
        assert entry.time_on("gpu") == pytest.approx(3.0)

    def test_multi_stream_overlaps_transfer_and_compute(self, config):
        scheduler = StreamScheduler(config)
        tasks = make_tasks(4, transfer=1.0, kernel=1.0)
        timeline = scheduler.schedule(tasks, num_streams=4)
        serial = scheduler.serial_time(tasks)
        # With pipelining across streams the makespan must beat fully
        # serial execution but cannot beat the busiest single resource.
        assert timeline.makespan < serial
        assert timeline.makespan >= 4 * 1.0

    def test_single_stream_is_serial(self, config):
        scheduler = StreamScheduler(config)
        tasks = make_tasks(3, transfer=1.0, kernel=2.0)
        timeline = scheduler.schedule(tasks, num_streams=1)
        assert timeline.makespan == pytest.approx(scheduler.serial_time(tasks))

    def test_overlapped_transfer_uses_max(self, config):
        scheduler = StreamScheduler(config)
        task = StreamTask("zc", "ImpTM-ZC", transfer_time=2.0, kernel_time=5.0, overlapped_transfer=True)
        timeline = scheduler.schedule([task])
        assert timeline.makespan == pytest.approx(5.0)

    def test_priority_order_respected(self, config):
        scheduler = StreamScheduler(config)
        first = StreamTask("low-priority", "ExpTM-F", transfer_time=1.0, kernel_time=1.0, priority=5.0)
        second = StreamTask("high-priority", "ExpTM-F", transfer_time=1.0, kernel_time=1.0, priority=1.0)
        timeline = scheduler.schedule([first, second], num_streams=1)
        order = [entry.name for entry in sorted(timeline.entries, key=lambda entry: entry.start)]
        assert order == ["high-priority", "low-priority"]

    def test_deterministic(self, config):
        scheduler = StreamScheduler(config)
        tasks = make_tasks(6, transfer=0.5, kernel=1.5)
        first = scheduler.schedule(tasks)
        second = scheduler.schedule(tasks)
        assert first.makespan == second.makespan

    def test_invalid_stream_count(self, config):
        with pytest.raises(ValueError):
            StreamScheduler(config).schedule(make_tasks(1), num_streams=0)

    def test_cpu_compaction_overlaps_other_streams(self, config):
        # A compaction task's CPU stage should overlap another stream's
        # transfer (Figure 6): makespan < serial sum.
        scheduler = StreamScheduler(config)
        compaction = StreamTask("c", "ExpTM-C", cpu_time=3.0, transfer_time=1.0, kernel_time=1.0)
        filter_task = StreamTask("f", "ExpTM-F", transfer_time=3.0, kernel_time=1.0)
        timeline = scheduler.schedule([filter_task, compaction], num_streams=2)
        assert timeline.makespan < scheduler.serial_time([compaction, filter_task])


class TestTimelineQueries:
    def test_busy_time_sums_over_tasks(self, config):
        scheduler = StreamScheduler(config)
        tasks = make_tasks(3, transfer=1.0, kernel=2.0)
        timeline = scheduler.schedule(tasks)
        assert timeline.busy_time("pcie") == pytest.approx(3.0)
        assert timeline.busy_time("gpu") == pytest.approx(6.0)
        assert timeline.busy_time("cpu") == 0.0

    def test_serial_time_property(self, config):
        task = StreamTask("t", "ImpTM-ZC", cpu_time=1.0, transfer_time=4.0, kernel_time=2.0, overlapped_transfer=True)
        assert task.serial_time == pytest.approx(5.0)
        explicit = StreamTask("t", "ExpTM-C", cpu_time=1.0, transfer_time=4.0, kernel_time=2.0)
        assert explicit.serial_time == pytest.approx(7.0)


# ----------------------------------------------------------------------
# The timeline's running aggregates == the record-walking definitions
# ----------------------------------------------------------------------

#: Often zero (stage absent — a task with no stage at all must move no
#: aggregate), values that round when added, and repeats so that streams tie.
_DURATIONS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 1.0 / 3.0, 1e-7, 2.5]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


# The schedule reads only the context's device count and hardware.
_GRAPH = path_graph(12)
_PARTITIONING = build_partitioning(_GRAPH)


@st.composite
def co_schedules(draw):
    """(context, device task lists, sync bytes, owner lists, class offsets)."""
    num_devices = draw(st.integers(1, 3))
    num_owners = draw(st.integers(1, 4))
    config = replace(HardwareConfig(), num_streams=draw(st.integers(1, 4))).with_devices(num_devices)
    task = st.builds(
        StreamTask,
        name=st.just("t"),
        engine=st.sampled_from(["ExpTM-F", "ExpTM-C", "ImpTM-ZC"]),
        cpu_time=_DURATIONS,
        transfer_time=_DURATIONS,
        kernel_time=_DURATIONS,
        overlapped_transfer=st.booleans(),
        priority=st.sampled_from([0.0, 1.0, 2.0]),
    )
    device_tasks = [draw(st.lists(task, max_size=6)) for _ in range(num_devices)]
    owners = [
        draw(st.lists(st.integers(0, num_owners - 1), min_size=len(tasks), max_size=len(tasks)))
        for tasks in device_tasks
    ]
    offsets = [draw(st.sampled_from([0.0, 1e6, 2e6])) for _ in range(num_owners)]
    sync_bytes = [draw(st.integers(0, 10**6)) for _ in range(num_devices)]
    context = ExecutionContext(_GRAPH, _PARTITIONING, config)
    return context, device_tasks, sync_bytes, owners, offsets


@settings(max_examples=200, deadline=None)
@given(co_schedules())
def test_running_aggregates_equal_the_record_definitions(case):
    context, device_tasks, sync_bytes, owners, offsets = case
    timeline = context.schedule(device_tasks, sync_bytes, owners, offsets)
    entries = timeline.entries
    assert len(entries) == sum(map(len, device_tasks)) + (context.num_devices > 1)

    # The definitions the accumulator replaced, over the materialised records.
    assert timeline.makespan == max((entry.end for entry in entries), default=0.0)
    for resource in ("cpu", "pcie", "gpu", "interconnect"):
        assert timeline.busy_time(resource) == sum(entry.time_on(resource) for entry in entries)
    assert timeline.sync_time == timeline.busy_time("interconnect")
    finish = {}
    for entry in entries:
        if entry.owner >= 0 and entry.end > finish.get(entry.owner, 0.0):
            finish[entry.owner] = entry.end
    assert timeline.owner_finish == [finish.get(owner, 0.0) for owner in range(len(offsets))]
