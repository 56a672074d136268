"""Tests for the replicated head commit log (repro.core.headlog)."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.events import EventSystem
from repro.core.headlog import HeadLog, LogRecord, Replicator, in_doubt
from repro.mpi import MpiWorld

from tests.test_util import FAST


class TestHeadLog:
    def test_append_assigns_index_and_epoch(self):
        log = HeadLog(record_bytes=32.0)
        a = log.append("dispatch", task_id=7, node=2)
        b = log.append("task_done", nbytes=128.0, task_id=7, node=2)
        assert (a.index, a.epoch, a.kind) == (0, 0, "dispatch")
        assert a.data == {"task_id": 7, "node": 2}
        assert a.nbytes == 32.0  # default record size
        assert (b.index, b.nbytes) == (1, 128.0)  # explicit override
        assert len(log) == 2 and log.appended == 2

    def test_adopt_replaces_log_and_bumps_epoch(self):
        log = HeadLog()
        for i in range(5):
            log.append("dispatch", task_id=i)
        replica = log.records[:3]  # a standby that lagged by two records
        log.adopt(list(replica), epoch=1)
        assert len(log) == 3 and log.epoch == 1
        assert log.appended == 5  # telemetry counter survives adoption
        rec = log.append("node_dead", node=0)
        assert (rec.index, rec.epoch) == (3, 1)

    def test_records_are_immutable(self):
        rec = HeadLog().append("checkpoint", buffer_id=1)
        with pytest.raises(AttributeError):
            rec.epoch = 9


def make(n=4, standbys=(1, 2), **kw):
    cluster = Cluster(ClusterSpec(num_nodes=n))
    mpi = MpiWorld(cluster)
    events = EventSystem(cluster, mpi, FAST)
    events.start()
    log = HeadLog()
    repl = Replicator(
        cluster.sim, mpi, events, log, list(standbys), head=0, **kw
    )
    repl.start(lambda gen, name: cluster.sim.process(gen, name=name))
    return cluster, events, log, repl


class TestInDoubt:
    """The one in-doubt derivation every head reads after a takeover."""

    def test_fault_tolerant_log(self):
        # The FT head logs data movement by its commits, so the enter
        # data task's completion has no dispatch.
        log = HeadLog()
        log.append("bootstrap", snapshots=())
        log.append("enter_data", buffer_id=0, node=1)
        log.append("task_done", task_id=0, node=0)
        log.append("dispatch", task_id=1, node=1)
        log.append("task_done", task_id=1, node=1)
        log.append("dispatch", task_id=2, node=2)
        log.append("dispatch", task_id=3, node=1)
        log.append("node_dead", node=1)
        # A takeover adopts the replica; the successor re-issues task 3
        # on node 3, and the log dies again before it completes.
        log.adopt(log.records, epoch=1)
        log.append("dispatch", task_id=3, node=3)
        log.append("checkpoint", buffer_id=0, version=1, snap=None)
        assert in_doubt(log.records) == {2: 2, 3: 3}

    def test_sharded_log(self):
        # A shard logs every dispatch, data movement included, and the
        # notifications it processed.
        log = HeadLog()
        log.append("bootstrap", tasks=4, sid=1)
        log.append("dispatch", task_id=10, node=5)
        log.append("task_done", task_id=10, node=1)
        log.append("notify", task=4)
        log.append("dispatch", task_id=11, node=6)
        log.append("dispatch", task_id=12, node=5)
        log.append("task_done", task_id=12, node=5)
        log.append("task_done", task_id=13, node=1)
        assert in_doubt(log.records) == {11: 6}

    def test_redispatch_after_takeover_stays_one_doubt(self):
        log = HeadLog()
        log.append("dispatch", task_id=7, node=4)
        log.adopt(log.records, epoch=1)
        log.append("dispatch", task_id=7, node=4)
        assert in_doubt(log.records) == {7: 4}
        log.append("task_done", task_id=7, node=4)
        assert in_doubt(log.records) == {}


class TestConflictHandling:
    def test_duplicate_record_dropped(self):
        _, _, _, repl = make()
        replica = []
        rec = LogRecord(0, 0, "dispatch", 64.0)
        repl._apply(replica, rec)
        repl._apply(replica, rec)  # retransmission
        assert len(replica) == 1
        assert repl.stats["duplicates"] == 1

    def test_stale_tail_truncated_by_newer_epoch(self):
        _, _, _, repl = make()
        replica = []
        repl._apply(replica, LogRecord(0, 0, "dispatch", 64.0))
        repl._apply(replica, LogRecord(1, 0, "dispatch", 64.0))
        repl._apply(replica, LogRecord(2, 0, "dispatch", 64.0))
        # A new head (epoch 1) overwrites index 1: the old epoch-0 tail
        # from the deposed head must be truncated, Raft-style.
        repl._apply(replica, LogRecord(1, 1, "node_dead", 64.0))
        assert [(r.index, r.epoch) for r in replica] == [(0, 0), (1, 1)]
        assert repl.stats["truncations"] == 1

    def test_gap_dropped_for_resend(self):
        _, _, _, repl = make()
        replica = [LogRecord(0, 0, "dispatch", 64.0)]
        repl._apply(replica, LogRecord(4, 0, "dispatch", 64.0))
        assert len(replica) == 1  # out-of-order record ignored


class TestReplication:
    def run_flush(self, cluster, repl, log):
        for s in repl.live_standbys():
            cluster.sim.process(repl.pump(s), name=f"pump{s}")

        def main():
            yield from repl.flush()

        p = cluster.sim.process(main())
        cluster.sim.run(until=p)

    def test_replicas_become_full_prefix_copies(self):
        cluster, _, log, repl = make()
        for i in range(6):
            repl.append("dispatch", task_id=i, node=1 + i % 2)
        self.run_flush(cluster, repl, log)
        for s in (1, 2):
            assert [r.index for r in repl.replicas[s]] == list(range(6))
            assert repl.acked[s] == 6
        assert repl.stats["records_sent"] == 12
        assert repl.stats["bytes_sent"] == 12 * log.record_bytes
        assert repl.committed() == 6

    def test_flush_ignores_dead_standby(self):
        cluster, events, log, repl = make()
        for i in range(3):
            repl.append("dispatch", task_id=i)

        def main():
            events.fail_node(2)
            yield from repl.flush()

        cluster.sim.process(repl.pump(1), name="pump1")
        p = cluster.sim.process(main())
        cluster.sim.run(until=p)
        assert repl.acked[1] == 3
        assert repl.replicas[2] == []  # dead standby never caught up
        assert repl.committed() == 3

    def test_committed_with_no_live_standby_is_whole_log(self):
        _, events, log, repl = make()
        log.append("dispatch", task_id=0)
        events.fail_node(1)
        events.fail_node(2)
        assert repl.live_standbys() == []
        assert repl.committed() == 1


class TestElection:
    def prime(self, repl, lengths, epochs=None):
        """Hand-build replicas of the given lengths (and last epochs)."""
        for s, n in lengths.items():
            ep = (epochs or {}).get(s, 0)
            repl.replicas[s] = [
                LogRecord(i, ep, "dispatch", 64.0) for i in range(n)
            ]

    def run_elect(self, cluster, repl, coordinator, exclude=frozenset()):
        out = []

        def main():
            res = yield from repl.elect(coordinator, exclude=exclude)
            out.append(res)

        p = cluster.sim.process(main())
        cluster.sim.run(until=p)
        return out[0]

    def test_most_caught_up_standby_wins(self):
        cluster, _, _, repl = make(n=5, standbys=(1, 2, 3))
        self.prime(repl, {1: 3, 2: 5, 3: 4})
        winner, votes = self.run_elect(cluster, repl, coordinator=1)
        assert winner == 2
        assert votes == {1: (0, 3), 2: (0, 5), 3: (0, 4)}

    def test_epoch_beats_length(self):
        # A shorter replica whose last record carries a newer epoch has
        # seen a later head incarnation — it must win (Raft §5.4.1).
        cluster, _, _, repl = make(n=5, standbys=(1, 2, 3))
        self.prime(repl, {1: 2, 2: 6, 3: 1}, epochs={1: 1})
        winner, _ = self.run_elect(cluster, repl, coordinator=2)
        assert winner == 1

    def test_tie_broken_toward_lowest_id(self):
        cluster, _, _, repl = make(n=5, standbys=(1, 2, 3))
        self.prime(repl, {1: 4, 2: 4, 3: 4})
        winner, _ = self.run_elect(cluster, repl, coordinator=3)
        assert winner == 1

    def test_excluded_and_dead_candidates_skipped(self):
        cluster, events, _, repl = make(n=5, standbys=(1, 2, 3))
        self.prime(repl, {1: 9, 2: 2, 3: 5})
        events.fail_node(3)
        winner, votes = self.run_elect(
            cluster, repl, coordinator=2, exclude=frozenset({1})
        )
        assert winner == 2
        assert set(votes) == {2}

    def test_no_candidates_returns_none(self):
        cluster, _, _, repl = make(n=4, standbys=(1, 2))
        res = self.run_elect(
            cluster, repl, coordinator=1, exclude=frozenset({1, 2})
        )
        assert res is None

    def test_set_head_reroots_and_clamps_acks(self):
        cluster, _, log, repl = make(n=5, standbys=(1, 2, 3))
        self.prime(repl, {1: 3, 2: 5, 3: 4})
        winner, votes = self.run_elect(cluster, repl, coordinator=1)
        log.adopt(list(repl.replicas[winner]), log.epoch + 1)
        repl.set_head(winner, votes)
        assert repl.head == 2
        assert repl.standbys == [1, 3]
        # Survivors resume from their reported positions, clamped.
        assert repl.acked == {1: 3, 3: 4}
