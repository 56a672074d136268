"""Tests for point-to-point messaging, matching and communicator pools."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NetworkSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, CommunicatorPool, MpiError, MpiWorld
from repro.mpi.request import Request


def make_world(n=2, **net_kwargs):
    net = NetworkSpec(**net_kwargs) if net_kwargs else NetworkSpec()
    cluster = Cluster(ClusterSpec(num_nodes=n, network=net))
    return cluster, MpiWorld(cluster, overhead=0.0)


class TestBasicMessaging:
    def test_send_recv_roundtrip(self):
        cluster, mpi = make_world(2)
        sim = cluster.sim

        def sender():
            r = mpi.world.rank(0)
            yield from r.send(1, {"x": 42}, nbytes=100, tag=7)

        def receiver():
            r = mpi.world.rank(1)
            msg = yield from r.recv(src=0, tag=7)
            return msg.payload

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == {"x": 42}

    def test_transfer_charges_network_time(self):
        cluster, mpi = make_world(2, latency=1e-6, bandwidth=1e9)
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, None, nbytes=1e6)

        def receiver():
            yield from mpi.world.rank(1).recv(src=0)
            return sim.now

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == pytest.approx(1e-3 + 1e-6)

    def test_software_overhead_charged(self):
        cluster = Cluster(
            ClusterSpec(num_nodes=2, network=NetworkSpec(latency=0.0, bandwidth=1e12))
        )
        mpi = MpiWorld(cluster, overhead=1e-5)
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, None, nbytes=0)

        def receiver():
            yield from mpi.world.rank(1).recv(src=0)
            return sim.now

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == pytest.approx(1e-5)

    def test_recv_blocks_until_message(self):
        cluster, mpi = make_world(2)
        sim = cluster.sim

        def sender():
            yield sim.timeout(5.0)
            yield from mpi.world.rank(0).send(1, "late")

        def receiver():
            yield from mpi.world.rank(1).recv(src=0)
            return sim.now

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) >= 5.0


class TestMatching:
    def test_tag_matching(self):
        cluster, mpi = make_world(2)
        sim = cluster.sim

        def sender():
            r = mpi.world.rank(0)
            yield from r.send(1, "tagged-3", tag=3)
            yield from r.send(1, "tagged-9", tag=9)

        def receiver():
            r = mpi.world.rank(1)
            first = yield from r.recv(src=0, tag=9)
            second = yield from r.recv(src=0, tag=3)
            return first.payload, second.payload

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == ("tagged-9", "tagged-3")

    def test_source_matching(self):
        cluster, mpi = make_world(3)
        sim = cluster.sim

        def sender(src, payload, delay):
            def proc():
                yield sim.timeout(delay)
                yield from mpi.world.rank(src).send(2, payload)
            return proc

        def receiver():
            r = mpi.world.rank(2)
            from_1 = yield from r.recv(src=1)
            from_0 = yield from r.recv(src=0)
            return from_1.payload, from_0.payload

        sim.process(sender(0, "zero", 0.0)())
        sim.process(sender(1, "one", 1.0)())
        p = sim.process(receiver())
        assert sim.run(until=p) == ("one", "zero")

    def test_wildcards(self):
        cluster, mpi = make_world(3)
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(1).send(0, "anything", tag=55)

        def receiver():
            r = mpi.world.rank(0)
            msg = yield from r.recv(src=ANY_SOURCE, tag=ANY_TAG)
            return msg.src, msg.tag, msg.payload

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == (1, 55, "anything")

    def test_non_overtaking_same_src_tag(self):
        # Messages with equal (src, tag) must be received in send order.
        cluster, mpi = make_world(2, latency=0.0, bandwidth=1e12)
        sim = cluster.sim

        def sender():
            r = mpi.world.rank(0)
            for i in range(10):
                yield from r.send(1, i, tag=1)

        def receiver():
            r = mpi.world.rank(1)
            out = []
            for _ in range(10):
                msg = yield from r.recv(src=0, tag=1)
                out.append(msg.payload)
            return out

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == list(range(10))

    def test_communicator_isolation(self):
        cluster, mpi = make_world(2)
        sim = cluster.sim
        other = mpi.world.dup()

        def sender():
            yield from other.rank(0).send(1, "on-dup", tag=1)
            yield from mpi.world.rank(0).send(1, "on-world", tag=1)

        def receiver():
            # Same (src, tag) but different communicators must not match
            # each other even though the dup message arrives first.
            world_msg = yield from mpi.world.rank(1).recv(src=0, tag=1)
            dup_msg = yield from other.rank(1).recv(src=0, tag=1)
            return world_msg.payload, dup_msg.payload

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == ("on-world", "on-dup")


class TestNonblocking:
    def test_isend_irecv(self):
        cluster, mpi = make_world(2)
        sim = cluster.sim

        def receiver():
            r = mpi.world.rank(1)
            req = r.irecv(src=0)
            assert not req.test()
            msg = yield from req.wait()
            assert req.test()
            return msg.payload

        def sender():
            yield sim.timeout(1.0)
            req = mpi.world.rank(0).isend(1, "async")
            yield from req.wait()

        p = sim.process(receiver())
        sim.process(sender())
        assert sim.run(until=p) == "async"

    def test_wait_all(self):
        cluster, mpi = make_world(4, latency=0.0, bandwidth=1e12)
        sim = cluster.sim

        def receiver():
            r = mpi.world.rank(0)
            reqs = [r.irecv(src=s) for s in (1, 2, 3)]
            msgs = yield from Request.wait_all(reqs)
            return sorted(m.payload for m in msgs)

        def sender(src):
            def proc():
                yield from mpi.world.rank(src).send(0, src * 10)
            return proc

        p = sim.process(receiver())
        for s in (1, 2, 3):
            sim.process(sender(s)())
        assert sim.run(until=p) == [10, 20, 30]


class TestProcessLessSend:
    """A fire-and-forget send is a callback chain, not a sim process."""

    def test_plain_isends_create_no_process(self, monkeypatch):
        cluster = Cluster(ClusterSpec(num_nodes=3))
        mpi = MpiWorld(cluster)  # default overhead: the timer step too
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
        reqs.append(mpi.world.rank(2).isend(2, "self", nbytes=8))
        sim.run()
        assert spawned == []
        assert all(r.test() for r in reqs)
        got = [mpi._queues[(d, mpi.world.comm_id)].items
               for d in range(3)]
        assert sorted(m.payload for q in got for m in q if m.payload != "self"
                      ) == list(range(12))

    def test_send_request_completes_on_arrival(self):
        cluster, mpi = make_world(2, latency=1e-6, bandwidth=1e9)
        sim = cluster.sim
        req = mpi.world.rank(0).isend(1, "x", nbytes=1e6)
        sim.run()
        assert req.test()
        assert sim.now == pytest.approx(1e-3 + 1e-6)
        assert cluster.network.total_messages == 1
        assert cluster.network.total_bytes == 1_000_000

    def test_checker_flags_unwaited_send(self):
        from repro.analysis.hooks import Analysis

        cluster = Cluster(ClusterSpec(num_nodes=2))
        analysis = Analysis()
        cluster.install_analysis(analysis)
        mpi = MpiWorld(cluster)
        sim = cluster.sim

        def receiver():
            yield from mpi.world.rank(1).recv(src=0)

        mpi.world.rank(0).isend(1, "leaked", nbytes=16)  # never waited
        sim.process(receiver())
        sim.run()
        findings = analysis.finalize(worlds=[mpi]).findings
        assert [f.rule for f in findings] == ["leaked-request"]

    def test_traced_sends_draw_one_arrow_per_delivery(self):
        from repro.obs import Observer, to_chrome_trace, validate_chrome_trace

        cluster = Cluster(ClusterSpec(num_nodes=3))
        obs = Observer(cluster.sim)
        cluster.install_observer(obs)
        mpi = MpiWorld(cluster)
        sim = cluster.sim
        pairs = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 1)]
        for i, (src, dst) in enumerate(pairs):
            mpi.world.rank(src).isend(dst, i, nbytes=100.0 * i, tag=i)
        sim.run()
        events = to_chrome_trace(obs)
        assert validate_chrome_trace(events) == []
        starts = [e["id"] for e in events if e.get("ph") == "s"]
        ends = [e["id"] for e in events if e.get("ph") == "f"]
        assert len(starts) == len(pairs)
        assert sorted(starts) == sorted(ends)

    def test_view_counters_equal_physical_deltas(self):
        from repro.cluster import ClusterView

        cluster = Cluster(ClusterSpec(num_nodes=8))
        net = cluster.network
        view = ClusterView(cluster, (3, 5, 6))
        mpi = MpiWorld(view)
        sim = cluster.sim
        # Traffic outside the view moves the physical counters only.
        net.start_transfer(0, 1, 500)
        sim.run()
        bytes0, msgs0 = net.total_bytes, net.total_messages
        for i, (src, dst) in enumerate([(0, 1), (1, 2), (2, 0), (0, 0)]):
            mpi.world.rank(src).isend(dst, i, nbytes=1000 + i)
        sim.run()
        assert view.network.total_messages == net.total_messages - msgs0 == 3
        assert view.network.total_bytes == net.total_bytes - bytes0 == 3003


class TestValidation:
    def test_bad_rank(self):
        _, mpi = make_world(2)
        with pytest.raises(MpiError):
            mpi.world.rank(5)

    def test_bad_send_tag(self):
        cluster, mpi = make_world(2)
        with pytest.raises(MpiError):
            mpi.world.rank(0).isend(1, None, tag=-3)

    def test_negative_overhead_rejected(self):
        cluster = Cluster(ClusterSpec(num_nodes=1))
        with pytest.raises(ValueError):
            MpiWorld(cluster, overhead=-1.0)

    def test_rank_on_other_communicator(self):
        _, mpi = make_world(2)
        r = mpi.world.rank(0)
        dup = mpi.world.dup()
        assert r.on(dup).rank_id == 0
        assert r.on(dup).comm is dup


class TestVciPool:
    def test_round_robin_selection(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        mpi = MpiWorld(cluster)
        pool = CommunicatorPool(mpi, 4)
        assert len(pool) == 4
        assert pool.select(0) is pool.comms[0]
        assert pool.select(5) is pool.comms[1]
        assert pool.select(4) is pool.comms[0]
        # Distinct communicator ids.
        assert len({c.comm_id for c in pool.comms}) == 4

    def test_bad_pool_size(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        mpi = MpiWorld(cluster)
        with pytest.raises(ValueError):
            CommunicatorPool(mpi, 0)
        pool = CommunicatorPool(mpi, 2)
        with pytest.raises(ValueError):
            pool.select(-1)
