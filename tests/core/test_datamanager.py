"""Tests for the Data Management module's coherency rules (§4.3)."""

import pytest

from repro.core.datamanager import HOST, DataManager, Move
from repro.omp.task import Buffer, Task, TaskKind, depend_in, depend_inout, depend_out


def target(task_id, *deps):
    return Task(task_id=task_id, kind=TaskKind.TARGET, deps=tuple(deps))


class TestInitialState:
    def test_buffers_start_on_host(self):
        dm = DataManager()
        buf = Buffer(100)
        assert dm.locations(buf) == {HOST}
        assert dm.latest(buf) == HOST
        assert dm.is_resident(buf, HOST)
        assert not dm.is_resident(buf, 1)


class TestEnterData:
    def test_sent_to_first_user(self):
        dm = DataManager()
        buf = Buffer(100)
        moves = dm.plan_enter_data(buf, 2)
        assert moves == [Move(buf, HOST, 2)]
        for m in moves:
            dm.commit_move(m)
        dm.commit_enter_data(buf, 2)
        assert dm.locations(buf) == {HOST, 2}
        assert dm.latest(buf) == 2

    def test_noop_if_already_resident(self):
        dm = DataManager()
        buf = Buffer(100)
        dm.commit_enter_data(buf, 2)
        assert dm.plan_enter_data(buf, 2) == []


class TestTargetRegions:
    def test_forward_from_most_recent_location(self):
        """Figure 1 walk-through: A moves head->node1, then node1->node2."""
        dm = DataManager()
        a = Buffer(1000, name="A")
        foo = target(0, depend_inout(a))
        bar = target(1, depend_inout(a))

        # enter data: A -> node 1 (first user).
        for m in dm.plan_enter_data(a, 1):
            dm.commit_move(m)
        dm.commit_enter_data(a, 1)

        # foo on node 1: already resident, no moves.
        assert dm.plan_for_task(foo, 1) == ([], [])
        stale = dm.commit_task_done(foo, 1)
        # inout: node 1 becomes sole owner; the host copy is stale.
        assert stale == [(a, HOST)]
        assert dm.locations(a) == {1}

        # bar on node 2: copy from node 1 (not from the head!).
        moves, allocs = dm.plan_for_task(bar, 2)
        assert moves == [Move(a, 1, 2)]
        assert allocs == []
        for m in moves:
            dm.commit_move(m)
        stale = dm.commit_task_done(bar, 2)
        assert stale == [(a, 1)]
        assert dm.locations(a) == {2}
        assert dm.latest(a) == 2

    def test_readonly_copies_are_kept(self):
        dm = DataManager()
        a = Buffer(1000)
        dm.commit_enter_data(a, 1)
        reader1 = target(0, depend_in(a))
        reader2 = target(1, depend_in(a))
        for m in dm.plan_for_task(reader1, 2)[0]:
            dm.commit_move(m)
        assert dm.commit_task_done(reader1, 2) == []
        # Copies now on HOST, 1, 2; a reader on 3 may pull from any.
        assert dm.locations(a) == {HOST, 1, 2}
        moves, allocs = dm.plan_for_task(reader2, 1)
        assert moves == [] and allocs == []  # already resident on 1

    def test_duplicate_deps_planned_once(self):
        dm = DataManager()
        a = Buffer(10)
        task = target(0, depend_in(a), depend_out(a))
        moves, allocs = dm.plan_for_task(task, 3)
        assert len(moves) == 1 and allocs == []

    def test_write_only_buffer_allocated_not_copied(self):
        # A pure out dependence means the task overwrites the buffer,
        # so the DM allocates device memory but moves no bytes.
        dm = DataManager()
        a = Buffer(10)
        moves, allocs = dm.plan_for_task(target(0, depend_out(a)), 1)
        assert moves == []
        assert allocs == [a]
        dm.commit_alloc(a, 1)
        assert dm.is_resident(a, 1)
        assert dm.latest(a) == HOST  # no meaningful bytes yet

    def test_move_from_invalid_location_rejected(self):
        dm = DataManager()
        a = Buffer(10)
        with pytest.raises(ValueError, match="no valid copy"):
            dm.commit_move(Move(a, 3, 1))


class TestExitData:
    def test_retrieved_from_latest_and_removed_everywhere(self):
        dm = DataManager()
        a = Buffer(10)
        dm.commit_enter_data(a, 1)
        writer = target(0, depend_inout(a))
        dm.commit_task_done(writer, 1)

        moves = dm.plan_exit_data(a)
        assert moves == [Move(a, 1, HOST)]
        for m in moves:
            dm.commit_move(m)
        removals = dm.commit_exit_data(a)
        assert removals == [(a, 1)]
        assert dm.locations(a) == {HOST}
        assert dm.latest(a) == HOST

    def test_noop_when_only_on_host(self):
        dm = DataManager()
        a = Buffer(10)
        assert dm.plan_exit_data(a) == []
        assert dm.commit_exit_data(a) == []

    def test_replicated_readonly_buffer_fully_cleaned(self):
        dm = DataManager()
        a = Buffer(10)
        r1, r2 = target(0, depend_in(a)), target(1, depend_in(a))
        for node, task in ((1, r1), (2, r2)):
            for m in dm.plan_for_task(task, node)[0]:
                dm.commit_move(m)
            dm.commit_task_done(task, node)
        removals = dm.commit_exit_data(a)
        assert removals == [(a, 1), (a, 2)]


class TestWriteRecords:
    def test_recording_a_write_seeds_no_location(self):
        """A write of a never-mapped buffer (a classical writer, or a
        log replay before its final rehome) leaves placement alone: the
        buffer is seeded at the home current when it is first placed."""
        dm = DataManager()
        a = Buffer(10)
        writer = Task(task_id=0, kind=TaskKind.CLASSICAL,
                      deps=(depend_out(a),))
        dm.record_writes(writer)
        dm.rehome(2)
        assert dm.locations(a) == {2}
        assert dm.writes(a.buffer_id).history[-1].task is writer


class TestMoveProperties:
    def test_from_to_host_flags(self):
        buf = Buffer(1)
        assert Move(buf, HOST, 2).from_host
        assert not Move(buf, HOST, 2).to_host
        assert Move(buf, 2, HOST).to_host
