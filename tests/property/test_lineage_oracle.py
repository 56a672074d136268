"""The directory's write records against the reference lineage dicts.

Fault tolerance keeps each buffer's versions (the producer of each and
the versions that producer read) and its newest checkpoint in one
:class:`~repro.core.datamanager.WriteRecord` inside the directory.  The
promise is the state of the separate dicts in
``tests/reference_lineage.py``, buffer by buffer.

Each generated case builds a small program (target, classical, enter-
and exit-data tasks over up to four buffers, duplicate clauses
allowed) and drives one sequence into both: live commits through
:meth:`FTHead.on_commit`, some of them recovery replays, and checkpoint
rounds of the real :class:`~repro.core.faults.Checkpointer`.  The head
log it leaves is then replayed by :meth:`LogReplay.rebuild` into a fresh
directory and by the reference into fresh dicts.  After every step, and
after the replay, every buffer must have the same writer, version,
history (producers and the versions they read), written flag and
checkpoint.  The replay must also never seed
a location from a write: a buffer no logged target task touched sits
at the new head only.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.headlog import HeadLog
from repro.omp import OmpProgram
from repro.omp.task import TaskKind, depend_in, depend_inout, depend_out

from tests.core.test_ft_plugins import make_head
from tests.reference_lineage import ReferenceLineage, replay

MAX_BUFFERS = 4
DEPEND = {"in": depend_in, "out": depend_out, "inout": depend_inout}
#: Checkpoint interval of the driven checkpointer (simulated seconds).
INTERVAL = 1.0

clause = st.tuples(st.integers(0, MAX_BUFFERS - 1),
                   st.sampled_from(sorted(DEPEND)))
op = st.one_of(
    st.tuples(st.sampled_from(["target", "classical"]),
              st.lists(clause, min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["enter", "exit"]),
              st.integers(0, MAX_BUFFERS - 1)),
)
step = st.one_of(
    # (task index, node, replay): a completed frame commits its writes.
    st.tuples(st.just("commit"), st.integers(0, 63), st.integers(1, 3),
              st.booleans()),
    st.tuples(st.just("checkpoint")),
)


def build_program(num_buffers, ops):
    prog = OmpProgram("lineage")
    bufs = [prog.buffer(16, data=np.full(2, float(i)), name=f"b{i}")
            for i in range(num_buffers)]
    for kind, arg in ops:
        if kind == "enter":
            prog.target_enter_data(bufs[arg % num_buffers])
        elif kind == "exit":
            prog.target_exit_data(bufs[arg % num_buffers])
        else:
            deps = [DEPEND[t](bufs[b % num_buffers]) for b, t in arg]
            add = prog.target if kind == "target" else prog.task
            add(depend=deps, name=f"{kind}{len(prog.tasks)}")
    return prog, bufs


def assert_same(dm, ref, bufs):
    """Every buffer's write record equals the reference dicts."""
    assert dm.written() == sorted(ref.written_buffers)
    for buf in bufs:
        bid = buf.buffer_id
        rec = dm.writes(bid)
        assert (rec.history[-1].task if rec.history else None) \
            is ref.writer_of.get(bid)
        assert rec.version == ref.write_version.get(bid, 0)
        assert [(v, w.task.task_id,
                 tuple((b.buffer_id, rv) for b, rv in w.reads))
                for v, w in enumerate(rec.history, 1)] == [
            (v, t.task_id, reads) for v, t, reads in ref.write_log.get(bid, [])]
        assert (bid in dm.written()) == (bid in ref.written_buffers)
        ours, theirs = rec.checkpoint, ref.checkpoints.get(bid)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours[0] == theirs[0]
            assert np.array_equal(ours[1], theirs[1])


@given(
    num_buffers=st.integers(1, MAX_BUFFERS),
    ops=st.lists(op, min_size=1, max_size=8),
    steps=st.lists(step, max_size=16),
)
@settings(deadline=None, max_examples=200)
def test_write_records_match_the_reference_dicts(num_buffers, ops, steps):
    prog, bufs = build_program(num_buffers, ops)
    tasks = prog.tasks
    log = HeadLog()
    head = make_head(prog, log=log, checkpoint_interval=INTERVAL)
    sim, dm = head.core.sim, head.core.dm
    head.replay.bootstrap()
    sim.process(head.checkpointer.run())
    live = ReferenceLineage()
    rounds = 0
    for kind, *args in steps:
        if kind == "commit":
            index, node, recovery = args
            task = tasks[index % len(tasks)]
            if task.kind.is_data_movement:
                # FTHead.complete logs these; they record no writes.
                head.append("task_done", task_id=task.task_id,
                            node=head.home)
            else:
                if task.kind == TaskKind.CLASSICAL:
                    node = head.home
                if recovery:
                    head.replaying.add(task.task_id)
                head.on_commit(task, node, None)
                head.replaying.discard(task.task_id)
                live.record_writes(task, recovery)
        else:
            # A new value per round, so each snapshot is told apart.
            rounds += 1
            for buf in bufs:
                buf.data[:] = rounds
            sim.run(until=(rounds + 0.5) * INTERVAL)
            for bid in sorted(live.written_buffers):
                entry = live.checkpoints.get(bid)
                if entry is None or entry[0] < live.write_version.get(bid, 0):
                    live.store_checkpoint(
                        bid, live.written_buffers[bid].data.copy())
        assert_same(dm, live, bufs)
    head.checkpointer.stopped = True

    replayed = replay(log.records, prog.graph)
    head.home = 2
    rebuilt, _frontier, _in_doubt = head.replay.rebuild(0)
    assert rebuilt is not dm
    assert_same(rebuilt, replayed, bufs)
    placed = {
        d.buffer.buffer_id
        for rec in log.records if rec.kind == "task_done"
        for d in prog.graph.task(rec.data["task_id"]).deps
        if prog.graph.task(rec.data["task_id"]).kind == TaskKind.TARGET
    }
    for buf in bufs:
        if buf.buffer_id not in placed:
            assert rebuilt.locations(buf) == {head.home}
