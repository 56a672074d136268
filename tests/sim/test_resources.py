"""Tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store
from repro.sim.errors import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_within_capacity_is_immediate(self, sim):
        res = Resource(sim, capacity=2)

        def proc():
            yield res.request()
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == 0.0
        assert res.in_use == 1

    def test_queueing_beyond_capacity(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def holder():
            yield res.request()
            log.append(("hold", sim.now))
            yield sim.timeout(5.0)
            res.release()

        def waiter():
            yield sim.timeout(1.0)
            yield res.request()
            log.append(("acquired", sim.now))
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert log == [("hold", 0.0), ("acquired", 5.0)]

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            yield res.request()
            yield sim.timeout(1.0)
            res.release()

        def waiter(wid):
            yield sim.timeout(0.1 * (wid + 1))
            yield res.request()
            order.append(wid)
            res.release()

        sim.process(holder())
        for wid in range(3):
            sim.process(waiter(wid))
        sim.run()
        assert order == [0, 1, 2]

    def test_try_acquire_takes_free_slots_without_events(self, sim):
        res = Resource(sim, capacity=2)
        assert res.try_acquire() and res.try_acquire()
        assert not res.try_acquire()  # full: the caller must queue
        assert res.in_use == 2 and res.queue_length == 0
        queued = res.request()
        res.release()  # handed straight to the queued request
        assert not res.try_acquire()  # so it cannot be overtaken
        sim.run()
        assert queued.processed and res.in_use == 2

    def test_release_idle_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_counters(self, sim):
        res = Resource(sim, capacity=3)

        def proc():
            yield res.request()
            yield res.request()

        sim.process(proc())
        sim.run()
        assert res.in_use == 2
        assert res.available == 1
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("a")
            item = yield store.get()
            return item

        p = sim.process(proc())
        assert sim.run(until=p) == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter():
            item = yield store.get()
            return (item, sim.now)

        def putter():
            yield sim.timeout(3.0)
            yield store.put("late")

        p = sim.process(getter())
        sim.process(putter())
        assert sim.run(until=p) == ("late", 3.0)

    def test_fifo_item_order(self, sim):
        store = Store(sim)

        def proc():
            for item in "abc":
                yield store.put(item)
            out = []
            for _ in range(3):
                out.append((yield store.get()))
            return out

        p = sim.process(proc())
        assert sim.run(until=p) == ["a", "b", "c"]

    def test_filtered_get_skips_nonmatching(self, sim):
        store = Store(sim)

        def proc():
            yield store.put(("x", 1))
            yield store.put(("y", 2))
            item = yield store.get(lambda it: it[0] == "y")
            leftover = yield store.get()
            return item, leftover

        p = sim.process(proc())
        assert sim.run(until=p) == (("y", 2), ("x", 1))

    def test_filtered_getters_matched_in_order(self, sim):
        store = Store(sim)
        received = {}

        def getter(name, want):
            item = yield store.get(lambda it: it == want)
            received[name] = (item, sim.now)

        def putter():
            yield sim.timeout(1.0)
            yield store.put("b")
            yield sim.timeout(1.0)
            yield store.put("a")

        sim.process(getter("first", "a"))
        sim.process(getter("second", "b"))
        sim.process(putter())
        sim.run()
        assert received == {"first": ("a", 2.0), "second": ("b", 1.0)}

    def test_bounded_capacity_blocks_putter(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def putter():
            yield store.put(1)
            log.append(("put1", sim.now))
            yield store.put(2)
            log.append(("put2", sim.now))

        def getter():
            yield sim.timeout(4.0)
            yield store.get()

        sim.process(putter())
        sim.process(getter())
        sim.run()
        assert log == [("put1", 0.0), ("put2", 4.0)]

    def test_put_nowait_delivers_without_event(self, sim):
        store = Store(sim)
        getter = store.get()
        store.put_nowait("a")
        store.put_nowait("b")
        sim.run()
        assert getter.value == "a"
        assert store.items == ("b",)
        with pytest.raises(SimulationError):
            Store(sim, capacity=1).put_nowait("x")

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_peek_does_not_remove(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("only")
            assert store.peek() == "only"
            assert store.peek(lambda it: it == "nope") is None
            assert len(store) == 1
            item = yield store.get()
            return item

        p = sim.process(proc())
        assert sim.run(until=p) == "only"
