"""Unit tests of the fault-tolerant runtime's recovery plug-ins.

Each test drives :class:`~repro.core.faults.FTHead` (its recovery
planner, :func:`~repro.core.faults.plan_recovery`) or one plug-in (:class:`~repro.core.faults.Checkpointer`,
:class:`~repro.core.faults.LogReplay`, :class:`~repro.core.faults.Speculation`)
against a bare simulator, a synthetic :class:`~repro.core.headlog.HeadLog`,
a bare :class:`~repro.core.datamanager.DataManager` and fake frames: no
cluster, MPI world or event system is built.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import OMPCConfig
from repro.core.datamanager import DataManager
from repro.core.faults import FTHead, FTRunResult, RecoveryError, plan_recovery
from repro.core.headlog import HeadLog, in_doubt
from repro.core.runtime import ProcessGroup
from repro.core.scheduler import Schedule
from repro.obs.observer import NullObserver
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_out
from repro.sim import Interrupt, Simulator

from tests.core.test_failover import chain_program, shots_program

NODES = 4


class FakeEvents:
    """The event-system calls the plug-ins make, without the machinery."""

    def __init__(self):
        self.failed: set[int] = set()
        self.cancelled: list[tuple[int, int]] = []

    def node_failed(self, node):
        return node in self.failed

    def fail_node(self, node):
        self.failed.add(node)

    def cancel_execution(self, task_id, attempt):
        self.cancelled.append((task_id, attempt))


def make_head(program, log=None, **cfg):
    """An :class:`FTHead` over a fake core: every task scheduled on
    node 1, ``NODES`` nodes, each computing at speed 1.  A ``log``
    stands in for the replicated head log."""
    sim = Simulator()
    graph = program.graph
    core = SimpleNamespace(
        sim=sim, cfg=OMPCConfig(**cfg), dm=DataManager(), dead=set(),
        events=FakeEvents(), obs=NullObserver(sim), fo_epoch=0,
        result=FTRunResult(makespan=0.0, schedule=Schedule({})),
        schedule=Schedule({t.task_id: 1 for t in graph.tasks()}),
        cluster=SimpleNamespace(
            num_nodes=NODES,
            node=lambda n: SimpleNamespace(compute_time=lambda cost: cost),
        ),
        guard=lambda nodes, operation: operation,
        fail=lambda exc: None,
        _mem_wake=lambda: None,
        services=ProcessGroup(sim, lambda exc: None),
        group=lambda: ProcessGroup(sim, lambda exc: None),
        heads=[],
    )
    repl = None
    if log is not None:
        repl = SimpleNamespace(log=log, append=log.append,
                               flush=lambda: iter(()),
                               throttle=lambda: iter(()))
    head = FTHead(core, graph, repl, detector=None)
    core.run_target = head.speculation.run_target
    return head


def fake_frames(head, calls):
    """Install a fake ``HeadCore._run_by_kind``: it records its
    arguments, applies the task to the host buffers and commits its
    writes on the target node."""
    core = head.core

    def run_by_kind(task, origin, dedup, node):
        calls.append((task.name, origin, dedup, node))
        if task.fn is not None:
            task.fn(*(d.buffer.data for d in task.deps))
        core.dm.commit_task_done(task, node)
        head.on_commit(task, node, None)
        yield from ()

    core._run_by_kind = run_by_kind


def task_named(program, name):
    return next(t for t in program.graph.tasks() if t.name == name)


def lineage(dm):
    """Every written buffer's ``(version, history ids, writer id)``."""
    return {
        bid: (rec.version, [w.task.task_id for w in rec.history],
              rec.history[-1].task.task_id)
        for bid in dm.written() for rec in [dm.writes(bid)]
    }


class TestLogReplay:
    def test_replayed_versions_equal_the_live_ones(self):
        prog, _x = chain_program(steps=2)
        log = HeadLog()
        head = make_head(prog, log=log)
        # The live head's log: data-movement completions are logged by
        # FTHead.complete, target writes through on_commit.
        for task in prog.graph.tasks():
            if task.kind.is_data_movement:
                head.append("task_done", task_id=task.task_id, node=0)
            else:
                head.on_commit(task, 1, None)
        live = head.core.dm
        head.home = 2
        head.in_doubt = in_doubt(log.records)  # as Head.take_over reads it
        replayed, frontier, redispatched = head.replay.rebuild(0)
        assert replayed is not live
        assert lineage(replayed) == lineage(live)
        step0, step1 = task_named(prog, "step0"), task_named(prog, "step1")
        x_id = step0.deps[0].buffer.buffer_id
        assert lineage(replayed) == {
            x_id: (2, [step0.task_id, step1.task_id], step1.task_id)}
        assert frontier.pending == 0
        assert (head.in_doubt, redispatched) == ({}, 0)

    @pytest.mark.parametrize("target_dead", [True, False])
    def test_in_doubt_inout_dispatch(self, target_dead):
        prog, x = chain_program(steps=1)
        enter, step0 = task_named(prog, "enter_data0"), task_named(prog, "step0")
        buf = step0.deps[0].buffer
        log = HeadLog()
        log.append("bootstrap", snapshots=((buf.buffer_id, x.copy()),))
        log.append("enter_data", buffer_id=buf.buffer_id, node=1)
        log.append("enter_data", buffer_id=buf.buffer_id, node=3)
        log.append("task_done", task_id=enter.task_id, node=0)
        log.append("dispatch", task_id=step0.task_id, node=1)
        head = make_head(prog, log=log)
        core = head.core
        if target_dead:
            core.dead.add(1)
        head.home = 2
        head.in_doubt = in_doubt(log.records)
        dm, _frontier, redispatched = head.replay.rebuild(0)
        assert redispatched == 1
        assert dm.writes(buf.buffer_id).checkpoint[0] == 0
        if target_dead:
            # The dispatch may or may not have applied x += 1: every
            # copy is void, and the zombie target is fenced.
            assert dm.locations(buf) == set()
            assert head.in_doubt == {}
            assert core.events.node_failed(1)
            return
        assert dm.locations(buf) == {1, 3}
        assert head.in_doubt == {step0.task_id: 1}
        assert not core.events.node_failed(1)
        # The re-issue goes back to node 1 and carries dedup=True.
        core.dm = dm
        calls = []
        fake_frames(head, calls)
        core.sim.process(head.execute(step0))
        core.sim.run()
        assert calls == [("step0", 2, True, 1)]


class TestLineage:
    def test_in_place_self_dependence_without_checkpoint_is_named(self):
        prog, _x = chain_program(steps=1)
        head = make_head(prog)
        core = head.core
        step0 = task_named(prog, "step0")
        exit_ = task_named(prog, "exit_data2")
        buf = step0.deps[0].buffer
        core.dm.commit_enter_data(buf, 1)
        core.dm.commit_task_done(step0, 1)
        core.dm.record_writes(step0)
        core.dead.add(1)
        core.dm.on_node_failure(1)  # x's only copy died after step0
        core._run_by_kind = None  # recovery must fail before any frame
        with pytest.raises(RecoveryError, match=(
                "task exit_data2 needs buffer x at version 1, which has "
                "no live copy, no checkpoint and only an in-place producer")):
            plan_recovery(core.dm, [(exit_, buf, 1)], core.dead)
        with pytest.raises(RecoveryError, match="buffer x at version 1"):
            next(head.recover(exit_))


def war_program():
    """``P`` reads ``w`` and writes ``a``; ``W`` then overwrites ``w``,
    and ``R1``/``R2`` read ``a``."""
    prog = OmpProgram("war")
    w = prog.buffer(16, data=np.zeros(2), name="w")
    a = prog.buffer(16, data=np.zeros(2), name="a")
    prog.target(fn=lambda x, y: np.copyto(y, x + 1.0),
                depend=[depend_in(w), depend_out(a)], name="P")
    prog.target(depend=[depend_out(w)], name="W")
    prog.target(depend=[depend_in(a)], name="R1")
    prog.target(depend=[depend_in(a)], name="R2")
    return prog, w, a


class TestRecover:
    def lose_a(self, prog):
        """``P`` committed on node 1, which then dies."""
        head = make_head(prog)
        core = head.core
        producer = task_named(prog, "P")
        core.dm.commit_task_done(producer, 1)
        core.dm.record_writes(producer)
        core.dead.add(1)
        core.dm.on_node_failure(1)
        calls = []
        fake_frames(head, calls)
        run_by_kind = core._run_by_kind

        def timed(task, origin, dedup, node):
            yield core.sim.timeout(1.0)
            yield from run_by_kind(task, origin, dedup, node)

        core._run_by_kind = timed
        return head, calls

    def test_frames_needing_one_version_share_one_replay(self):
        prog, _w, a = war_program()
        head, calls = self.lose_a(prog)
        core = head.core
        for name in ("R1", "R2"):
            core.sim.process(head.recover(task_named(prog, name)))
        core.sim.run()
        assert [c[0] for c in calls] == ["P"]
        assert core.result.reexecuted_tasks == 1
        assert core.dm.locations(a) and core.dm.version(a.buffer_id) == 1
        # Each reader now holds nothing it writes; the plan's holds are
        # gone.
        assert not head.held

    def test_a_plan_waits_out_a_writer_then_names_the_overwrite(self):
        prog, w, _a = war_program()
        head, calls = self.lose_a(prog)
        core = head.core
        writer = task_named(prog, "W")
        head._hold({w.buffer_id}, True)  # W's frame is in flight

        def finish_writer():
            yield core.sim.timeout(5.0)
            core.dm.commit_task_done(writer, 2)
            core.dm.record_writes(writer)
            head._hold({w.buffer_id}, False)

        core.sim.process(finish_writer())
        reader = core.sim.process(head.recover(task_named(prog, "R1")))
        with pytest.raises(RecoveryError, match=(
                "task P needs buffer w at version 0, which a newer "
                "version overwrote")):
            core.sim.run(until=reader)
        assert core.sim.now == 5.0 and calls == []


class TestCheckpointer:
    def test_skips_a_buffer_written_during_its_retrieve(self):
        prog, _model, _outputs = shots_program(num_shots=1)
        log = HeadLog()
        head = make_head(prog, log=log, checkpoint_interval=0.01)
        core, dm = head.core, head.core.dm
        shot = task_named(prog, "shot0")
        out = shot.writes[0]
        dm.commit_task_done(shot, 1)  # out lives on node 1 only
        dm.record_writes(shot)
        retrieves = []

        def retrieve(src, bid, nbytes, origin):
            retrieves.append((core.sim.now, src, bid))
            yield core.sim.timeout(0.001)
            if len(retrieves) == 1:
                # A second commit lands while the first retrieve is in
                # flight: the bytes fetched are already stale.
                dm.record_writes(shot)
            return np.full(16, 7.0)

        core.events.retrieve = retrieve
        core.sim.process(head.checkpointer.run())
        core.sim.run(until=0.015)
        assert retrieves == [(0.01, 1, out.buffer_id)]
        assert dm.writes(out.buffer_id).checkpoint is None
        assert core.result.checkpoints_taken == 0
        core.sim.run(until=0.025)
        version, snap = dm.writes(out.buffer_id).checkpoint
        assert version == 2 and np.array_equal(snap, np.full(16, 7.0))
        assert core.result.checkpoints_taken == 1
        assert [r.kind for r in log.records].count("checkpoint") == 1
        head.checkpointer.stopped = True


class TestSpeculation:
    def test_backup_wins_when_the_primary_stalls(self):
        prog, _model, _outputs = shots_program(num_shots=1, cost=1.0)
        head = make_head(prog, straggler_factor=2.0)
        core = head.core
        shot = task_named(prog, "shot0")
        ended = {}

        def target_frame(task, node, origin, dedup, attempt):
            try:
                yield core.sim.timeout(100.0 if node == 1 else task.cost)
                ended[attempt] = ("done", node, core.sim.now)
            except Interrupt:
                ended[attempt] = ("revoked", node, core.sim.now)

        core._run_target = target_frame
        assert head.speculation.speculatable(shot)
        proc = core.sim.process(head.speculation.run_target(shot, 1, 0, False))
        core.sim.run(until=proc)
        assert core.sim.now == pytest.approx(3.0)  # 2 x estimate + backup
        core.sim.run(until=10.0)
        backup_node = ended[2][1]
        assert ended == {2: ("done", backup_node, pytest.approx(3.0)),
                         1: ("revoked", 1, pytest.approx(3.0))}
        assert backup_node in (2, 3)
        assert core.events.cancelled == [(shot.task_id, 1)]
        assert core.result.speculative_attempts == 1
        assert core.result.speculation_wins == 1
        assert head.speculation.attempts == {shot.task_id: 1}
