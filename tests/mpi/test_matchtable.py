"""MatchStore: slotted MPI matching equivalent to the linear-scan Store."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld
from repro.mpi.matchtable import MatchStore
from repro.sim.core import Simulator
from repro.sim.resources import Store

_ids = count()


@dataclass
class Msg:
    src: int
    tag: int
    uid: int = field(default_factory=lambda: next(_ids))


def _pred(src: int, tag: int):
    return lambda m: ((src == ANY_SOURCE or m.src == src)
                      and (tag == ANY_TAG or m.tag == tag))


class TestMatching:
    def test_exact_match_is_fifo_per_src_tag(self):
        store = MatchStore(Simulator())
        m1, m2 = Msg(0, 1), Msg(0, 1)
        store.put(m1)
        store.put(m2)
        assert store.get_match(0, 1).value is m1
        assert store.get_match(0, 1).value is m2
        assert len(store) == 0

    def test_any_source_picks_earliest_arrival_across_slots(self):
        store = MatchStore(Simulator())
        first, second = Msg(3, 7), Msg(1, 7)
        store.put(first)
        store.put(second)
        store.put(Msg(2, 8))  # different tag; must not match
        assert store.get_match(ANY_SOURCE, 7).value is first
        assert store.get_match(ANY_SOURCE, 7).value is second

    def test_any_tag_picks_earliest_arrival_for_source(self):
        store = MatchStore(Simulator())
        first, second = Msg(2, 9), Msg(2, 4)
        store.put(Msg(0, 9))  # different src; must not match
        store.put(first)
        store.put(second)
        assert store.get_match(2, ANY_TAG).value is first
        assert store.get_match(2, ANY_TAG).value is second

    def test_fully_wild_receive_sees_global_arrival_order(self):
        store = MatchStore(Simulator())
        msgs = [Msg(2, 9), Msg(0, 1), Msg(5, 5)]
        for m in msgs:
            store.put(m)
        got = [store.get_match(ANY_SOURCE, ANY_TAG).value for _ in msgs]
        assert got == msgs

    def test_put_prefers_earliest_posted_receive(self):
        # A wildcard posted before an exact receive must win the message
        # (the reference dispatch scans getters in FIFO order).
        store = MatchStore(Simulator())
        wild = store.get_match(ANY_SOURCE, ANY_TAG)
        exact = store.get_match(0, 5)
        msg = Msg(0, 5)
        store.put(msg)
        assert wild.value is msg
        assert not exact.triggered
        late = Msg(0, 5)
        store.put(late)
        assert exact.value is late

    def test_unmatched_receive_waits_for_put(self):
        store = MatchStore(Simulator())
        recv = store.get_match(1, 2)
        assert not recv.triggered
        msg = Msg(1, 2)
        store.put(msg)
        assert recv.value is msg

    def test_predicate_get_is_disabled(self):
        store = MatchStore(Simulator())
        with pytest.raises(TypeError):
            store.get(lambda m: True)

    def test_items_and_peek_in_arrival_order(self):
        store = MatchStore(Simulator())
        msgs = [Msg(1, 1), Msg(0, 0), Msg(1, 1)]
        for m in msgs:
            store.put(m)
        assert list(store.items) == msgs
        assert len(store) == 3
        assert store.peek() is msgs[0]
        assert store.peek(lambda m: m.src == 0) is msgs[1]
        assert store.peek(lambda m: m.src == 9) is None


class TestTagFifo:
    """The ANY_SOURCE-by-tag per-tag arrival FIFO (the mass fan-in
    fast path) must survive other patterns consuming its entries."""

    def test_stale_head_discarded_after_exact_receive(self):
        store = MatchStore(Simulator())
        first, second = Msg(1, 7), Msg(2, 7)
        store.put(first)
        store.put(second)
        # An exact receive consumes the FIFO's head out from under it.
        assert store.get_match(1, 7).value is first
        assert store.get_match(ANY_SOURCE, 7).value is second

    def test_stale_entries_from_fully_wild_receive(self):
        store = MatchStore(Simulator())
        msgs = [Msg(0, 5), Msg(1, 5), Msg(2, 5)]
        for m in msgs:
            store.put(m)
        assert store.get_match(ANY_SOURCE, ANY_TAG).value is msgs[0]
        assert store.get_match(ANY_SOURCE, 5).value is msgs[1]
        assert store.get_match(ANY_SOURCE, 5).value is msgs[2]

    def test_fifo_drained_and_rebuilt(self):
        store = MatchStore(Simulator())
        store.put(Msg(4, 9))
        assert store.get_match(ANY_SOURCE, 9).value.src == 4
        assert 9 not in store._tag_fifo  # drained FIFOs are deleted
        late = Msg(5, 9)
        store.put(late)
        assert store.get_match(ANY_SOURCE, 9).value is late

    def test_mass_fan_in_drains_in_arrival_order(self):
        store = MatchStore(Simulator())
        msgs = [Msg(src, 2) for src in range(64)]
        for m in msgs:
            store.put(m)
        got = [store.get_match(ANY_SOURCE, 2).value for _ in msgs]
        assert got == msgs
        assert len(store) == 0


class TestCancel:
    def test_cancel_withdraws_pending_receive(self):
        store = MatchStore(Simulator())
        recv = store.get_match(0, 0)
        assert store.cancel(recv) is True
        assert store.cancel(recv) is False  # already withdrawn
        msg = Msg(0, 0)
        store.put(msg)
        assert not recv.triggered  # cancelled: the message buffers
        assert store.get_match(0, 0).value is msg

    def test_cancelled_head_does_not_block_later_receives(self):
        store = MatchStore(Simulator())
        dead = store.get_match(ANY_SOURCE, 3)
        live = store.get_match(ANY_SOURCE, 3)
        store.cancel(dead)
        msg = Msg(7, 3)
        store.put(msg)
        assert live.value is msg

    def test_cancel_matched_receive_is_a_noop(self):
        store = MatchStore(Simulator())
        store.put(Msg(0, 0))
        recv = store.get_match(0, 0)
        assert recv.triggered
        assert store.cancel(recv) is False


class TestReferenceEquivalence:
    """Randomized puts/receives/cancels replayed against the reference
    Store with predicate getters: same deliveries in the same order."""

    def _run(self, seed: int):
        rng = random.Random(seed)
        ops = []
        for _ in range(300):
            roll = rng.random()
            if roll < 0.45:
                ops.append(("put", rng.randrange(3), rng.randrange(3)))
            elif roll < 0.9:
                ops.append((
                    "get",
                    rng.choice([ANY_SOURCE, 0, 1, 2]),
                    rng.choice([ANY_TAG, 0, 1, 2]),
                ))
            else:
                ops.append(("cancel", rng.randrange(8), 0))

        def replay(store, post_get, check=lambda store, cancelled: None):
            gets, cancels = [], []
            for op, a, b in ops:
                if op == "put":
                    store.put(Msg(a, b))
                elif op == "get":
                    gets.append(post_get(store, a, b))
                elif gets:
                    ev = gets[a % len(gets)]
                    cancels.append(store.cancel(ev))
                check(store, sum(cancels))
            outcome = [
                (ev.value.src, ev.value.tag) if ev.triggered else None
                for ev in gets
            ]
            return outcome, cancels, [(m.src, m.tag) for m in store.items]

        fast_store = MatchStore(Simulator())
        fast = replay(
            fast_store,
            lambda s, src, tag: s.get_match(src, tag),
            self._check_bounded,
        )
        ref = replay(
            Store(Simulator()),
            lambda s, src, tag: s.get(_pred(src, tag)),
        )
        assert fast == ref
        # Drained, a store keeps no table entry at all.
        for ev in list(fast_store._pending):
            fast_store.cancel(ev)
        while len(fast_store):
            fast_store.get_match(ANY_SOURCE, ANY_TAG)
        assert fast_store._pending == {}
        assert fast_store._buckets == {}
        assert fast_store._slots == {}
        assert fast_store._tag_fifo == {}

    @staticmethod
    def _check_bounded(store, cancelled):
        """Tables hold only pending work: bucket entries are pending
        receives plus cancelled ones not yet swept, and no bucket, slot
        or tag FIFO is empty or headed by dead work."""
        entries = sum(len(b) for b in store._buckets.values())
        assert entries <= len(store._pending) + cancelled
        assert sum(map(len, store._slots.values())) == len(store)
        for bucket in store._buckets.values():
            assert bucket and bucket[0][1] in store._pending
        for fifo in store._tag_fifo.values():
            arr, key = fifo[0]
            assert store._slots[key][0][0] == arr
        assert set(store._tag_fifo) == {tag for _src, tag in store._slots}

    @pytest.mark.parametrize("seed", range(10))
    def test_random_op_sequences(self, seed):
        self._run(seed)


class TestIsendGuards:
    def _world(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        return cluster, MpiWorld(cluster, overhead=0.0)

    @pytest.mark.parametrize(
        "nbytes", [float("nan"), float("inf"), -float("inf"), -1.0]
    )
    def test_isend_rejects_non_finite_nbytes(self, nbytes):
        _cluster, mpi = self._world()
        with pytest.raises(ValueError):
            mpi.world.rank(0).isend(1, None, nbytes=nbytes)

    def test_isend_world_uses_match_store(self):
        # The fast kernel's wiring: world queues are MatchStores, so
        # receives go through the slotted path, not predicate scans.
        cluster, mpi = self._world()
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "payload", nbytes=10, tag=3)

        def receiver():
            msg = yield from mpi.world.rank(1).recv(src=0, tag=3)
            return msg.payload

        sim.process(sender())
        recv = sim.process(receiver())
        assert sim.run(until=recv) == "payload"
        # The drained queue is gone; a pending receive builds a new one.
        key = (1, mpi.world.comm_id)
        assert key not in mpi._queues
        mpi.world.rank(1).irecv(src=0, tag=4)
        assert type(mpi._queues[key]) is MatchStore
