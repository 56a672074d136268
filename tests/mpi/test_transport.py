"""Tests for the reliable (ack + retransmit) MPI transport under loss."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NetworkSpec
from repro.core.faultmodel import FaultPlan, LinkLoss
from repro.mpi import MpiError, MpiWorld, TransportConfig

NAN = float("nan")
INF = float("inf")


def make_world(n=2, plan=None, transport=None, overhead=0.0):
    net = NetworkSpec(latency=1e-6, bandwidth=1e9)
    cluster = Cluster(ClusterSpec(num_nodes=n, network=net))
    if plan is not None:
        plan.install(cluster)
    mpi = MpiWorld(cluster, overhead=overhead, transport=transport)
    return cluster, mpi


class TestTransportConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            TransportConfig(rto=0.0)
        with pytest.raises(ValueError):
            TransportConfig(backoff=0.5)
        with pytest.raises(ValueError):
            TransportConfig(max_retries=-1)
        with pytest.raises(ValueError):
            TransportConfig(ack_bytes=-1.0)

    # Non-finite parameters used to be accepted: an infinite or NaN rto,
    # or a NaN backoff, silently stopped retransmission, and a NaN
    # ack_bytes failed the run at the first ack.
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_ack_bytes_must_be_finite(self, value):
        with pytest.raises(ValueError, match="ack_bytes"):
            TransportConfig(ack_bytes=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_rto_must_be_finite(self, value):
        with pytest.raises(ValueError, match="rto"):
            TransportConfig(rto=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_backoff_must_be_finite(self, value):
        with pytest.raises(ValueError, match="backoff"):
            TransportConfig(backoff=value)


class TestReliableDelivery:
    def test_clean_fabric_one_send_one_ack(self):
        cluster, mpi = make_world(transport=TransportConfig())
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=100, tag=3)

        def receiver():
            msg = yield from mpi.world.rank(1).recv(src=0, tag=3)
            return msg.payload

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == "x"
        sim.run()  # drain the in-flight ack
        assert mpi.stats["retransmissions"] == 0
        assert mpi.stats["acks"] == 1
        assert mpi.stats["duplicates"] == 0

    def test_lossy_fabric_retransmits_until_delivered(self):
        plan = FaultPlan(seed=5, losses=[LinkLoss(probability=0.5)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        sim = cluster.sim

        def sender():
            r = mpi.world.rank(0)
            for i in range(32):
                yield from r.send(1, i, nbytes=64, tag=1)

        def receiver():
            r = mpi.world.rank(1)
            got = []
            for _ in range(32):
                msg = yield from r.recv(src=0, tag=1)
                got.append(msg.payload)
            return got

        sim.process(sender())
        p = sim.process(receiver())
        got = sim.run(until=p)
        # Every message arrives exactly once despite the lossy link.
        assert sorted(got) == list(range(32))
        assert mpi.stats["drops"] > 0
        assert mpi.stats["retransmissions"] > 0

    def test_loss_costs_time_not_correctness(self):
        def elapsed(plan):
            cluster, mpi = make_world(plan=plan, transport=TransportConfig())
            sim = cluster.sim

            def sender():
                r = mpi.world.rank(0)
                for i in range(16):
                    yield from r.send(1, i, nbytes=1000)

            def receiver():
                r = mpi.world.rank(1)
                for _ in range(16):
                    yield from r.recv(src=0)
                return sim.now

            sim.process(sender())
            p = sim.process(receiver())
            sim.run(until=p)
            return sim.now

        clean = elapsed(None)
        lossy = elapsed(FaultPlan(seed=9, losses=[LinkLoss(probability=0.4)]))
        assert lossy > clean

    def test_broken_fabric_raises_after_retry_cap(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(
            plan=plan, transport=TransportConfig(max_retries=3)
        )
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=10)

        p = sim.process(sender())
        with pytest.raises(MpiError, match="unacked after 3 retries"):
            sim.run(until=p)
        assert mpi.stats["retransmissions"] == 3

    def test_lost_acks_cause_deduped_duplicates(self):
        # Forward link is clean; every ack (1 -> 0) is eaten, so the
        # sender keeps retransmitting and the receiver must suppress the
        # duplicates, delivering the payload exactly once.
        plan = FaultPlan(losses=[LinkLoss(probability=1.0, src=1, dst=0)])
        cluster, mpi = make_world(
            plan=plan, transport=TransportConfig(max_retries=2)
        )
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=10)

        def receiver():
            got = []
            r = mpi.world.rank(1)
            msg = yield from r.recv(src=0)
            got.append(msg.payload)
            return got

        recv_p = sim.process(receiver())
        send_p = sim.process(sender())
        with pytest.raises(MpiError):
            sim.run(until=send_p)
        assert recv_p.value == ["x"]  # delivered exactly once
        assert mpi.stats["duplicates"] == 2

    def test_dedup_keeps_a_watermark_and_the_seqs_above_it(self):
        # Copies arrive out of order and twice: each is delivered once,
        # and the set holds only seqs above the pair's low watermark.
        cluster, mpi = make_world(n=3, transport=TransportConfig())
        comm = mpi.world
        sent = [comm._message(0, 1, i, 8.0, 4) for i in range(4)]
        other = comm._message(2, 1, "x", 8.0, 4)
        assert [m.seq for m in sent] == [0, 1, 2, 3]
        assert other.seq == 0  # numbered per (src, dst) pair
        for i in (2, 0, 2, 3):
            comm._transport_accept(sent[i])
        assert comm._low[(0, 1)] == 1
        assert comm._ooo[(0, 1)] == {2, 3}
        comm._transport_accept(sent[1])
        comm._transport_accept(sent[0])
        comm._transport_accept(other)
        assert comm._low == {(0, 1): 4, (2, 1): 1}
        assert comm._ooo == {}  # the watermark caught up
        assert mpi.stats["duplicates"] == 2
        queue = mpi._queues.get((1, comm.comm_id))
        assert [m.payload for m in queue.items] == [2, 0, 3, 1, "x"]

    def test_self_send_never_dropped(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        sim = cluster.sim

        def roundtrip():
            r = mpi.world.rank(0)
            r.isend(0, "local", nbytes=8, tag=2)
            msg = yield from r.recv(src=0, tag=2)
            return msg.payload

        p = sim.process(roundtrip())
        assert sim.run(until=p) == "local"


class TestReliableChain:
    """A reliable send, its acks and its retransmit deadlines are
    callback chains, not sim processes."""

    def test_reliable_isends_create_no_process(self, monkeypatch):
        plan = FaultPlan(seed=2, losses=[LinkLoss(probability=0.3)])
        cluster, mpi = make_world(n=3, plan=plan, transport=TransportConfig(),
                                  overhead=0.5e-6)
        sim = cluster.sim
        spawned = []
        real = sim.process
        monkeypatch.setattr(
            sim, "process", lambda gen, name="": spawned.append(name)
            or real(gen, name),
        )
        reqs = [mpi.world.rank(i % 3).isend((i + 1) % 3, i, nbytes=64 * i,
                                            tag=i)
                for i in range(12)]
        sim.run()
        assert spawned == []
        assert all(r.test() for r in reqs)
        assert mpi.stats["retransmissions"] > 0  # the loss path ran too
        got = [m.payload for d in range(3)
               for m in mpi._queues[(d, mpi.world.comm_id)].items]
        assert sorted(got) == list(range(12))

    def test_unwaited_send_past_retry_cap_crashes_the_run(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(
            plan=plan, transport=TransportConfig(max_retries=2)
        )
        mpi.world.rank(0).isend(1, "x", nbytes=10)  # nobody waits
        with pytest.raises(MpiError, match="unacked after 2 retries"):
            cluster.sim.run()
        assert mpi.stats["retransmissions"] == 2

    def test_traced_lossy_run_draws_one_arrow_per_delivery(self):
        from repro.obs import Observer, to_chrome_trace, validate_chrome_trace

        net = NetworkSpec(latency=1e-6, bandwidth=1e9)
        cluster = Cluster(ClusterSpec(num_nodes=3, network=net))
        obs = Observer(cluster.sim)
        cluster.install_observer(obs)
        FaultPlan(seed=4, losses=[LinkLoss(probability=0.4)]).install(cluster)
        mpi = MpiWorld(cluster, transport=TransportConfig())
        pairs = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)] * 3
        for i, (src, dst) in enumerate(pairs):
            mpi.world.rank(src).isend(dst, i, nbytes=100.0 * i, tag=i)
        cluster.sim.run()
        assert mpi.stats["drops"] > 0
        events = to_chrome_trace(obs)
        assert validate_chrome_trace(events) == []
        starts = [e["id"] for e in events if e.get("ph") == "s"]
        ends = [e["id"] for e in events if e.get("ph") == "f"]
        assert len(starts) == len(pairs)  # one per delivered message
        assert sorted(starts) == sorted(ends)
        sends = [e for e in events
                 if e.get("ph") == "X" and e["name"].startswith("send t")]
        acks = [e for e in events
                if e.get("ph") == "X" and e["name"].startswith("ack t")]
        assert {e["args"]["attempt"] for e in sends} >= {0, 1}
        assert any(e["args"].get("dropped") for e in sends)
        assert {e["args"]["dropped"] for e in acks} == {False, True}
        assert len(acks) == mpi.stats["acks"]


class TestDatagramOptOut:
    def test_unreliable_comm_drops_silently(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        datagram = mpi.new_communicator(reliable=False)
        sim = cluster.sim

        def sender():
            yield from datagram.rank(0).send(1, "gone", nbytes=16)

        req = datagram.rank(1).irecv(src=0)
        p = sim.process(sender())
        sim.run(until=p)  # the send completes locally (fire-and-forget)
        sim.run(until=1.0)
        assert not req.test()  # nothing ever arrives
        assert mpi.stats["retransmissions"] == 0
        assert cluster.faults.dropped_messages == 1

    def test_dropped_datagram_completes_and_enqueues_nothing(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        datagram = mpi.new_communicator(reliable=False)
        req = datagram.rank(0).isend(1, "gone", nbytes=16)
        cluster.sim.run()
        assert req.test()  # fire-and-forget: local completion regardless
        # No message was enqueued, so no match queue exists.
        assert mpi._queues.get((1, datagram.comm_id)) is None
        assert mpi.stats["drops"] == 1
        assert cluster.network.total_messages == 1  # the fabric carried it


class TestRecvCancellation:
    def test_cancelled_recv_never_matches(self):
        cluster, mpi = make_world()
        sim = cluster.sim
        stale = mpi.world.rank(1).irecv(src=0, tag=7)
        assert stale.cancel()
        assert stale.cancelled

        def sender():
            yield from mpi.world.rank(0).send(1, "beat", nbytes=16, tag=7)

        p = sim.process(sender())
        sim.run(until=p)
        sim.run(until=1.0)
        # The message must not have been swallowed by the cancelled
        # request: a fresh receive still gets it.
        assert not stale.test()
        fresh = mpi.world.rank(1).irecv(src=0, tag=7)
        sim.run(until=2.0)
        assert fresh.test()
        assert fresh.event.value.payload == "beat"

    def test_cancel_after_completion_is_refused(self):
        cluster, mpi = make_world()
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=16, tag=1)

        req = mpi.world.rank(1).irecv(src=0, tag=1)
        p = sim.process(sender())
        sim.run(until=p)
        sim.run(until=1.0)
        assert req.test()
        assert not req.cancel()
        assert not req.cancelled

    def test_cancel_is_idempotent(self):
        cluster, mpi = make_world()
        req = mpi.world.rank(1).irecv(src=0, tag=1)
        assert req.cancel()
        assert not req.cancel()  # second call reports already-cancelled

    def test_send_requests_are_not_cancellable(self):
        cluster, mpi = make_world()
        req = mpi.world.rank(0).isend(1, "x", nbytes=16)
        assert not req.cancel()
