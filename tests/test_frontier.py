"""Unit tests for the active-vertex frontier bitmap.

A frontier is a plain boolean array of length ``num_vertices``.  Programs
create it (``VertexProgram.initial_frontier``, ``single_vertex``), each
query session owns it as ``QuerySession.pending``, the
:class:`~repro.runtime.driver.IterationDriver` scans it once per
iteration (``snapshot``) and lands activations in it
(``process_per_device``), the HyTGraph engine stacks the bitmaps of a
super-iteration's queries and scans each task step's partitions in one
pass, and checkpoints copy it.  These tests pin that
protocol end to end.
"""

import numpy as np
import pytest

from repro.algorithms import BFS, ConnectedComponents, DeltaPageRank
from repro.algorithms.base import single_vertex
from repro.faults import QueryCheckpoint
from repro.graph.generators import rmat_graph
from repro.graph.partition import partition_by_count
from repro.runtime.context import ExecutionContext
from repro.runtime.driver import IterationDriver
from repro.sim.config import HardwareConfig
from repro.systems import SYSTEMS, make_system
from repro.systems.hytgraph import HyTGraphSystem


def _driver(graph, num_partitions=4, num_devices=1):
    config = HardwareConfig().with_devices(num_devices) if num_devices > 1 else HardwareConfig()
    return IterationDriver(ExecutionContext(graph, partition_by_count(graph, num_partitions), config))


def _mask(num_vertices, vertices):
    mask = np.zeros(num_vertices, dtype=bool)
    mask[list(vertices)] = True
    return mask


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(120, 900, seed=7, name="rmat-frontier")


class TestConstruction:
    def test_empty(self, paper_graph):
        system = make_system("emogi", paper_graph)
        session = system.start_session(BFS(), 0)
        session.pending[:] = False
        assert not session.live
        snapshot = system.driver.snapshot(session.pending)
        assert snapshot.active_ids.size == 0
        assert snapshot.active_vertices == 0 and snapshot.active_edges == 0
        # An empty frontier is convergence: the driver plans nothing.
        system.driver.drive(system, session, max_iterations=100)
        assert session.iteration == 0 and session.result.iterations == []
        assert system.finish_session(session).converged

    def test_from_vertex_list(self, paper_graph):
        snapshot = _driver(paper_graph, num_partitions=2).snapshot(_mask(6, [1, 3, 5]))
        assert snapshot.active_ids.tolist() == [1, 3, 5]
        assert snapshot.active_vertices == 3
        assert [ids.tolist() for ids in snapshot.per_device] == [[1, 3, 5]]

    def test_from_boolean_mask(self, paper_graph):
        # A caller-built bitmap is exactly what the next iteration processes.
        system = make_system("emogi", paper_graph)
        session = system.start_session(ConnectedComponents())
        session.pending = _mask(6, [2])
        system.context.begin_window()
        [plan] = system.driver.plan(system, [session])
        stats = system.driver.finish(plan)
        assert stats.active_vertices == 1
        assert stats.active_edges == paper_graph.out_degrees[2]
        assert not session.pending[2]

    def test_all_active(self, paper_graph):
        system = make_system("emogi", paper_graph)
        for program in (ConnectedComponents(), DeltaPageRank()):
            session = system.start_session(program)
            assert session.pending.dtype == bool and session.pending.all()
            assert session.live
            assert system.driver.snapshot(session.pending).active_edges == paper_graph.num_edges

    def test_single(self):
        mask = single_vertex(9, 4)
        assert mask.dtype == bool and mask.shape == (9,)
        assert np.flatnonzero(mask).tolist() == [4]
        # Every call is a fresh array: the runtime clears pending in place.
        mask[:] = False
        assert np.flatnonzero(single_vertex(9, 4)).tolist() == [4]
        with pytest.raises(IndexError):
            single_vertex(9, 9)

    def test_from_mask_copies(self, paper_graph):
        system = make_system("emogi", paper_graph)
        session = system.start_session(BFS(), 0)
        checkpoint = QueryCheckpoint.capture(session)
        session.pending[:] = True
        assert np.flatnonzero(checkpoint.pending).tolist() == [0]
        checkpoint.restore(session)
        assert np.flatnonzero(session.pending).tolist() == [0]
        session.pending[3] = True
        assert not checkpoint.pending[3]


class TestQueries:
    def test_active_edges(self, rmat):
        mask = np.random.default_rng(3).random(rmat.num_vertices) < 0.3
        driver = _driver(rmat)
        snapshot = driver.snapshot(mask)
        assert snapshot.active_edges == int(rmat.out_degrees[mask].sum())
        vertices, edges = driver.context.partitioning.active_counts(mask)
        assert vertices.sum() == snapshot.active_vertices == int(mask.sum())
        assert edges.sum() == snapshot.active_edges

    def test_len_and_contains(self, rmat):
        mask = np.random.default_rng(5).random(rmat.num_vertices) < 0.4
        driver = _driver(rmat, num_partitions=6, num_devices=2)
        snapshot = driver.snapshot(mask)
        assert len(snapshot.per_device) == 2
        assert sum(ids.size for ids in snapshot.per_device) == snapshot.active_vertices
        bounds = driver.context.sharding.vertex_bounds
        for start, end, ids in zip(bounds, bounds[1:], snapshot.per_device):
            assert np.all((ids >= start) & (ids < end))
        np.testing.assert_array_equal(np.concatenate(snapshot.per_device), snapshot.active_ids)


class TestMutation:
    def test_activate_deactivate(self, paper_graph):
        driver = _driver(paper_graph, num_partitions=2)
        program = BFS()
        state = program.create_state(paper_graph, 0)
        pending = program.initial_frontier(paper_graph, state, 0)
        snapshot = driver.snapshot(pending)
        pending[snapshot.active_ids] = False
        remote = [0]
        driver.process_per_device(program, state, pending, snapshot.per_device, remote)
        # a -> b, a -> c: both levels drop, so both become active.
        assert np.flatnonzero(pending).tolist() == [1, 2]
        assert remote == [0]

    def test_activate_with_array(self, rmat):
        driver = _driver(rmat, num_partitions=6, num_devices=2)
        source, first_shard_end = driver.context.sharding.vertex_bounds[:2].tolist()
        program = BFS()
        state = program.create_state(rmat, source)
        pending = np.zeros(rmat.num_vertices, dtype=bool)
        remote = [0, 0]
        driver.process_per_device(
            program, state, pending, driver.snapshot(single_vertex(rmat.num_vertices, source)).per_device, remote
        )
        expected = np.setdiff1d(rmat.neighbors(source), [source])
        assert np.flatnonzero(pending).tolist() == expected.tolist()
        # Activations outside the emitting shard are its boundary messages.
        assert remote == [int(np.count_nonzero(expected >= first_shard_end)), 0]

    def test_activate_empty_is_noop(self, rmat):
        driver = _driver(rmat, num_partitions=6, num_devices=2)
        program = BFS()
        state = program.create_state(rmat, 0)
        before = state.copy()
        pending = single_vertex(rmat.num_vertices, 0)
        remote = [0, 0]
        empty = np.zeros(0, dtype=np.int64)
        driver.process_per_device(program, state, pending, [empty, empty], remote)
        assert np.flatnonzero(pending).tolist() == [0]
        assert remote == [0, 0]
        np.testing.assert_array_equal(state["level"], before["level"])

    def test_clear(self, rmat):
        system = make_system("emogi", rmat)
        session = system.start_session(BFS(), 0)
        system.driver.drive(system, session, max_iterations=10_000)
        assert not session.pending.any()
        assert session.iteration == len(session.result.iterations) > 0
        assert system.finish_session(session).converged

    def test_clear_range(self, rmat, monkeypatch):
        # A fused step's first round pushes, for every row in one call,
        # exactly the pending vertices inside that row's own task
        # partitions (flat ids ``row * |V| + v``).
        system = HyTGraphSystem(rmat, num_partitions=4)
        sessions = [system.start_session(BFS(), source) for source in (0, 1)]
        # Senders only (hub-sorted ids): no sink push precedes the steps.
        senders = np.flatnonzero(system.context.graph.out_degrees > 0)
        for session, stride in zip(sessions, (3, 5)):
            session.pending[:] = False
            session.pending[senders[::stride]] = True
        before = [session.pending.copy() for session in sessions]
        pushed = []
        process = BFS.process

        def recording(program, graph, state, active_vertices):
            pushed.append(np.asarray(active_vertices).copy())
            return process(program, graph, state, active_vertices)

        monkeypatch.setattr(BFS, "process", recording)
        system.context.begin_window()
        plans = system.engine._plan(sessions)
        num_vertices = rmat.num_vertices
        boundaries = system.partitioning.vertex_boundaries
        for row, (plan, pending) in enumerate(zip(plans, before)):
            in_task = np.zeros(num_vertices, dtype=bool)
            for index in plan.device_tasks[0][0].name.partition_indices:
                in_task[boundaries[index] : boundaries[index + 1]] = True
            first_round = pushed[0][pushed[0] // num_vertices == row] - row * num_vertices
            assert first_round.tolist() == np.flatnonzero(pending & in_task).tolist()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_every_system_drains_the_programs_bitmap(rmat, name):
    system = make_system(name, rmat)
    session = system.start_session(BFS(), 5)
    # HyTGraph hub-sorts, so its session speaks executed ids.
    assert session.pending.dtype == bool and session.pending.shape == (rmat.num_vertices,)
    assert np.flatnonzero(session.pending).tolist() == [session.source]
    assert not any(np.shares_memory(session.pending, array) for array in session.state.arrays.values())
    system.driver.drive(system, session, system.max_iterations)
    assert not session.pending.any()
    result = system.finish_session(session)
    assert result.converged
    assert result.values[5] == 0.0
