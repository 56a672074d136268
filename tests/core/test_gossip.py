"""Tests for the gossip configuration of the failure detector
(repro.core.gossip)."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.events import EventSystem
from repro.core.faults import FaultTolerantRuntime, NodeFailure
from repro.core.gossip import (
    ALIVE,
    DEAD,
    SUSPECT,
    FailureDetector,
    _overrides,
)
from repro.mpi import MpiWorld

from tests.core.test_faults import FAST, shots_program


def make_membership(n=8, **kwargs):
    cluster = Cluster(ClusterSpec(num_nodes=n))
    mpi = MpiWorld(cluster)
    events = EventSystem(cluster, mpi, FAST)
    events.start()
    membership = FailureDetector(cluster, mpi, events, gossip=True,
                                 **kwargs)
    return cluster, events, membership


class TestOverridePrecedence:
    def test_dead_is_irrevocable(self):
        assert not _overrides(ALIVE, 99, DEAD, 0)
        assert not _overrides(SUSPECT, 99, DEAD, 0)
        assert not _overrides(DEAD, 0, DEAD, 5)

    def test_dead_beats_everything(self):
        assert _overrides(DEAD, 0, ALIVE, 99)
        assert _overrides(DEAD, 0, SUSPECT, 99)

    def test_higher_incarnation_wins(self):
        assert _overrides(ALIVE, 2, SUSPECT, 1)
        assert not _overrides(ALIVE, 1, SUSPECT, 1)
        assert not _overrides(ALIVE, 1, SUSPECT, 2)

    def test_suspect_shades_alive_at_equal_incarnation(self):
        assert _overrides(SUSPECT, 1, ALIVE, 1)
        assert not _overrides(ALIVE, 1, SUSPECT, 1)


class TestGossipMembership:
    def test_no_false_positives_without_failure(self):
        cluster, events, membership = make_membership()
        membership.start()

        def stopper():
            yield cluster.sim.timeout(0.05)
            membership.stop()

        cluster.sim.process(stopper())
        cluster.sim.run(until=0.2)
        assert membership.detections == []
        assert membership.false_positives == 0
        assert membership.rounds > 10

    def test_failure_detected_and_confirmed(self):
        cluster, events, membership = make_membership()
        seen = []
        membership.on_detect = lambda dead, by: seen.append((dead, by))
        membership.start()

        def fail_later():
            yield cluster.sim.timeout(0.02)
            events.fail_node(3)
            yield cluster.sim.timeout(0.06)
            membership.stop()

        cluster.sim.process(fail_later())
        cluster.sim.run(until=0.3)
        assert [d for d, _by, _t in membership.detections] == [3]
        assert seen and seen[0][0] == 3
        _dead, _by, at = membership.detections[0]
        # Bounded detection: a shuffled pass probes every peer within
        # n-1 periods; suspicion + head confirm add a few more.
        assert 0.02 < at < 0.02 + 12 * membership.interval

    def test_head_death_escalated(self):
        cluster, events, membership = make_membership()
        head_seen = []
        membership.on_head_detect = lambda d, by: head_seen.append((d, by))
        membership.start()

        def fail_later():
            yield cluster.sim.timeout(0.02)
            events.fail_node(0)
            yield cluster.sim.timeout(0.06)
            membership.stop()

        cluster.sim.process(fail_later())
        cluster.sim.run(until=0.3)
        assert head_seen and head_seen[0][0] == 0

    def test_refutation_counts_and_incarnation_bump(self):
        cluster, events, membership = make_membership()
        # A live node hearing itself suspected must refute with a
        # bumped incarnation, overriding the suspicion everywhere.
        membership._apply(2, 2, SUSPECT, 0)
        assert membership._views[2][2][0] == ALIVE
        assert membership._views[2][2][1] >= 1
        # The refutation overrides the stale suspicion in another view.
        membership._apply(1, 2, SUSPECT, 0)
        membership._apply(1, 2, *membership._views[2][2])
        assert membership._views[1][2][0] == ALIVE

    def test_rebase_moves_confirm_authority(self):
        cluster, events, membership = make_membership()
        assert membership.head == 0
        membership.rebase(5)
        assert membership.head == 5

    def test_validation(self):
        cluster = Cluster(ClusterSpec(num_nodes=4))
        mpi = MpiWorld(cluster)
        events = EventSystem(cluster, mpi, FAST)
        with pytest.raises(ValueError):
            FailureDetector(cluster, mpi, events, gossip=True, interval=0.0)
        # Gossip has no watch window, so its period may exceed the ring's.
        FailureDetector(cluster, mpi, events, gossip=True, interval=0.01)


class TestFaultTolerantRuntimeWithGossip:
    def test_worker_failover_under_gossip(self):
        cfg = OMPCConfig(gossip=True)
        runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=4), cfg)
        prog, _model, _outputs = shots_program(num_shots=6, cost=0.2)
        result = runtime.run(
            prog, failures=[NodeFailure(time=0.1, node=2)],
        )
        assert result.makespan > 0
        assert result.failures == [2]
        assert [d for d, _by, _t in result.detections] == [2]

    def test_head_shards_rejected(self):
        with pytest.raises(ValueError, match="ShardedRuntime"):
            FaultTolerantRuntime(
                ClusterSpec(num_nodes=8),
                OMPCConfig(head_shards=2),
            )
