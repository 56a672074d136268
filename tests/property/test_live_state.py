"""Live state is bounded by pending work, on every control plane.

The event system draws a fresh MPI tag per event, so any per-tag,
per-race or per-message table that outlives its work grows with the
run's history.  After a run on each control plane this checks the
three hot-path tables that used to:

* every ``MatchStore`` holds no empty receive bucket, no bucket headed
  by a cancelled receive, and no tag FIFO without a live head (a
  buffered message of that tag), and a store holding neither a message
  nor a receive is gone;
* no resolved node-death race is still attached to a failure event;
* the reliable transport's dedup sets hold only out-of-order seqs,
  above their pair's low watermark;
* every head-side process group holds only live processes;
* a worker's completion (dedup) table holds only the tasks whose
  completion the head's log has not committed yet.

A run's processes end with it: after ``finish()`` no process the run
started is alive and no group keeps a member, a run with no failure
detector leaves no match queue, and the run's head state is
collectable while its cluster is still held.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core import FaultPlan, FaultTolerantRuntime, LinkLoss, NodeFailure
from repro.core.config import OMPCConfig
from repro.core.events import EventSystem
from repro.core.faults import FTHead
from repro.core.headlog import HeadLog, Replicator
from repro.core.runtime import OMPCRuntime, ProcessGroup
from repro.core.shard.plane import _ShardHead
from repro.mpi.comm import Communicator, MpiWorld
from repro.sim.core import Process
from repro.sim.primitives import Condition

from tests.core.test_failover import chain_program
from tests.core.test_faults import FAST, shots_program
from tests.obs.test_counter_tier import _stencil
from tests.property.test_event_digest_pins import _taskbench


@contextmanager
def _capture():
    """Record every MpiWorld, Communicator, EventSystem, ProcessGroup and
    Process built inside."""
    built: dict[type, list] = {MpiWorld: [], Communicator: [], EventSystem: [],
                               ProcessGroup: [], Process: []}
    with pytest.MonkeyPatch.context() as mp:
        for cls, seen in built.items():
            def init(self, *args, _orig=cls.__init__, _seen=seen, **kwargs):
                _orig(self, *args, **kwargs)
                _seen.append(self)

            mp.setattr(cls, "__init__", init)
        yield built


def _assert_bounded(built) -> dict[str, int]:
    """Assert the bounds; return what is still live, for the caller."""
    live = {"receives": 0, "messages": 0, "races": 0, "out_of_order": 0}
    for world in built[MpiWorld]:
        for store in world._queues.values():
            assert not store.drained, f"{store.name}: drained store kept"
            for key, bucket in store._buckets.items():
                assert bucket, f"{store.name}: empty bucket {key}"
                assert bucket[0][1] in store._pending, (
                    f"{store.name}: bucket {key} headed by a cancelled receive")
            for tag, fifo in store._tag_fifo.items():
                arr, key = fifo[0]
                slot = store._slots.get(key)
                assert slot is not None and slot[0][0] == arr, (
                    f"{store.name}: stale tag FIFO {tag}")
            live["receives"] += len(store._pending)
            live["messages"] += len(store)
    for es in built[EventSystem]:
        for node, ev in es._failure_events.items():
            for cb in ev.callbacks or ():
                race = getattr(cb, "__self__", None)
                if isinstance(race, Condition):
                    assert not race.triggered, (
                        f"resolved race left on node {node}'s failure event")
                    live["races"] += 1
    for comm in built[Communicator]:
        for pair, above in comm._ooo.items():
            assert above and min(above) > comm._low.get(pair, 0), pair
            live["out_of_order"] += len(above)
    for group in built[ProcessGroup]:
        for proc in group.members:
            assert proc.is_alive, f"finished {proc.name} left in its group"
    return live


def _group_members(built) -> list[str]:
    return sorted(proc.name for group in built[ProcessGroup]
                  for proc in group.members)


def _assert_run_ended(built) -> None:
    """No group keeps a member and no process of the run is alive."""
    assert _group_members(built) == []
    assert not [proc.name for proc in built[Process] if proc.is_alive]


def test_plain_stencil_leaves_no_match_state():
    with _capture() as built:
        OMPCRuntime(ClusterSpec(num_nodes=16)).run(_taskbench(32, 4))
    live = _assert_bounded(built)
    # Every event's exchange is matched: nothing pending, nothing
    # buffered, so every match table is empty.
    assert live["receives"] == live["messages"] == 0
    assert _group_members(built) == []
    # ... so no match queue is left at all, and the event system ran
    # with no gate or handler process.
    for world in built[MpiWorld]:
        assert world._queues == {}
    assert not [proc.name for proc in built[Process]
                if proc.name.startswith(("gate", "handler"))]


def test_sharded_plane_leaves_no_match_state():
    with _capture() as built:
        OMPCRuntime(ClusterSpec(num_nodes=16),
                    OMPCConfig(head_shards=4)).run(_taskbench(32, 3))
    live = _assert_bounded(built)
    assert live["messages"] == 0
    _assert_run_ended(built)
    # The lease and notify services closed with the run, withdrawing
    # their posted receives, so no match queue is left.
    for world in built[MpiWorld]:
        assert world._queues == {}


def test_replicated_shards_end_with_the_run():
    with _capture() as built:
        OMPCRuntime(ClusterSpec(num_nodes=16),
                    OMPCConfig(head_shards=4, head_standbys=1)).run(
                        _taskbench(32, 3))
    _assert_bounded(built)
    # Each shard's pump, the log's standby loops and the lease and
    # notify services closed with the run.
    _assert_run_ended(built)


def test_ft_epoch_ends_with_the_run():
    # The epoch's pump (which waits for records) and checkpointer close
    # with the run, as do the log's receiver and election responder.
    with _capture() as built:
        res = FaultTolerantRuntime(
            ClusterSpec(num_nodes=6),
            OMPCConfig(head_standbys=1, checkpoint_interval=0.002),
        ).run(_stencil())
    assert res.checkpoints_taken > 0
    _assert_bounded(built)
    _assert_run_ended(built)


@pytest.mark.parametrize("plane", ["plain", "sharded", "ft"])
def test_finish_schedules_no_event(plane):
    # Closing the run's processes at the end schedules nothing.
    if plane == "ft":
        main, finish = FaultTolerantRuntime(
            ClusterSpec(num_nodes=6),
            OMPCConfig(head_standbys=1, checkpoint_interval=0.002),
        ).launch(_stencil())
    else:
        cfg = (OMPCConfig(head_shards=4, head_standbys=1)
               if plane == "sharded" else OMPCConfig())
        main, finish = OMPCRuntime(ClusterSpec(num_nodes=16), cfg).launch(
            _taskbench(32, 3))
    main.sim.run(until=main)
    seq = main.sim._seq
    finish()
    assert main.sim._seq == seq
    assert not [proc.name for proc in main.sim._processes if proc.is_alive]


@contextmanager
def _weak_heads():
    """Weak references to every head, head log and replicator built
    inside."""
    refs: list = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in (FTHead, _ShardHead, HeadLog, Replicator):
            def init(self, *args, _orig=cls.__init__, **kwargs):
                _orig(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            mp.setattr(cls, "__init__", init)
        yield refs


def _collected(refs) -> list[str]:
    gc.collect()
    return [type(obj).__name__ for obj in (ref() for ref in refs)
            if obj is not None]


def test_ft_head_state_is_collected_while_the_cluster_is_held():
    runtime = FaultTolerantRuntime(
        ClusterSpec(num_nodes=6),
        OMPCConfig(head_standbys=2, checkpoint_interval=0.002))
    with _weak_heads() as refs:
        res = runtime.run(_stencil(),
                          failures=[NodeFailure(time=0.004, node=0)])
    assert res.head_failovers == 1
    assert len(refs) == 3
    assert runtime.last_cluster is not None
    assert _collected(refs) == []


def test_shard_heads_are_collected_while_the_cluster_is_held():
    runtime = OMPCRuntime(ClusterSpec(num_nodes=16),
                          OMPCConfig(head_shards=4, head_standbys=1))
    with _weak_heads() as refs:
        runtime.run(_taskbench(32, 3))
    assert len(refs) == 12  # four shard heads, logs and replicators
    assert runtime.last_cluster is not None
    assert _collected(refs) == []


def test_ft_worker_kill_under_loss_keeps_state_bounded():
    with _capture() as built:
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=6)).run(
            _stencil(),
            failures=[NodeFailure(time=0.004, node=2)],
            fault_plan=FaultPlan(seed=5, losses=[LinkLoss(probability=0.05)]),
        )
    assert res.failures == [2]
    assert sum(w.stats["duplicates"] for w in built[MpiWorld]) >= 1
    _assert_bounded(built)


def test_ft_head_kill_detaches_interrupted_races():
    # Failover tears down the operations in flight at the head's death;
    # their races resolve after their waiters are gone.
    with _capture() as built:
        res = FaultTolerantRuntime(
            ClusterSpec(num_nodes=6), OMPCConfig(head_standbys=2),
        ).run(shots_program(num_shots=8, cost=0.05)[0],
              failures=[NodeFailure(time=0.03, node=0)])
    assert res.failures == [0]
    _assert_bounded(built)


class _PeakSet(set):
    """A set that remembers its largest size."""

    peak = 0

    def add(self, item) -> None:
        super().add(item)
        self.peak = max(self.peak, len(self))


def _largest_completion_table(steps: int) -> int:
    prog, x = chain_program(steps=steps, cost=0.001)
    runtime = FaultTolerantRuntime(
        ClusterSpec(num_nodes=5), dataclasses.replace(FAST, head_standbys=2))
    with _capture() as built:
        main, finish = runtime.launch(prog)
    [events] = built[EventSystem]
    events._exec_done = [_PeakSet() for _ in events._exec_done]
    main.sim.run(until=main)
    finish()
    assert (x == steps).all()
    return max(table.peak for table in events._exec_done)


def test_completion_tables_do_not_grow_with_program_length():
    # Each table entry lives until the log commits the task's
    # completion, so a 10x longer chain keeps the same largest table.
    short, long = _largest_completion_table(50), _largest_completion_table(500)
    assert 1 <= long <= short <= 2
