"""Tests for composite waiting primitives (AllOf/AnyOf/Condition) and
the deadline queue."""

import gc

import pytest

from repro.sim import AllOf, AnyOf, Condition, Simulator
from repro.sim.primitives import DeadlineQueue


@pytest.fixture
def sim():
    return Simulator()


class TestAllOf:
    def test_fires_at_latest_child(self, sim):
        evs = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]

        def waiter():
            results = yield AllOf(sim, evs)
            return sorted(results.values())

        p = sim.process(waiter())
        assert sim.run(until=p) == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_empty_all_fires_immediately(self, sim):
        def waiter():
            results = yield AllOf(sim, [])
            return results

        p = sim.process(waiter())
        assert sim.run(until=p) == {}
        assert sim.now == 0.0

    def test_child_failure_fails_condition(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()

        def failer():
            yield sim.timeout(0.5)
            bad.fail(RuntimeError("child broke"))

        def waiter():
            try:
                yield AllOf(sim, [good, bad])
            except RuntimeError:
                return "failed"

        sim.process(failer())
        p = sim.process(waiter())
        assert sim.run(until=p) == "failed"


class TestAnyOf:
    def test_fires_at_earliest_child(self, sim):
        evs = [sim.timeout(t, value=t) for t in (5.0, 1.0, 3.0)]

        def waiter():
            results = yield AnyOf(sim, evs)
            return list(results.values())

        p = sim.process(waiter())
        assert sim.run(until=p) == [1.0]
        assert sim.now == 1.0

    def test_empty_any_fires_immediately(self, sim):
        def waiter():
            results = yield AnyOf(sim, [])
            return results

        p = sim.process(waiter())
        assert sim.run(until=p) == {}

    def test_a_child_that_never_fires_leaves_no_cycle(self, sim):
        # The losing child keeps the condition through its callback, so
        # the condition must not keep the child.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            lost = sim.event()
            cond = AnyOf(sim, [lost, sim.timeout(1.0)])
            sim.run()
            assert cond.ok
            del cond, lost
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestCondition:
    def test_need_k_of_n(self, sim):
        evs = [sim.timeout(t) for t in (1.0, 2.0, 3.0, 4.0)]

        def waiter():
            yield Condition(sim, evs, need=2)
            return sim.now

        p = sim.process(waiter())
        assert sim.run(until=p) == 2.0

    def test_need_out_of_range(self, sim):
        with pytest.raises(ValueError):
            Condition(sim, [sim.event()], need=2)
        with pytest.raises(ValueError):
            Condition(sim, [sim.event()], need=-1)

    def test_late_children_do_not_retrigger(self, sim):
        evs = [sim.timeout(1.0), sim.timeout(2.0)]
        cond = Condition(sim, evs, need=1)
        sim.run()
        assert cond.ok
        assert len(cond.value) == 1


class Item:
    """A deadline-queue item: a name and the ``due`` stamp it carries."""

    def __init__(self, name):
        self.name = name
        self.due = 0


class TestDeadlineQueue:
    def make(self, sim):
        fired = []
        queue = DeadlineQueue(
            sim, lambda item: fired.append((sim.now, item.name)))
        return queue, fired

    def test_fires_in_deadline_tie_push_order(self, sim):
        queue, fired = self.make(sim)
        queue.push(2.0, 0, Item("late"))
        queue.push(1.0, 1, Item("b"))
        queue.push(1.0, 0, Item("a"))
        queue.push(1.0, 1, Item("c"))
        queue.arm()
        sim.run()
        assert fired == [(1.0, "a"), (1.0, "b"), (1.0, "c"), (2.0, "late")]

    def test_push_replaces_and_cancel_withdraws(self, sim):
        queue, fired = self.make(sim)
        moved, gone = Item("moved"), Item("gone")
        queue.push(1.0, 0, moved)
        queue.push(3.0, 0, moved)
        queue.push(2.0, 0, gone)
        queue.arm()
        assert queue.cancel(gone)
        assert not queue.cancel(gone)
        sim.run()
        assert fired == [(3.0, "moved")]
        assert moved.due == 0

    def test_same_instant_push_fires_in_the_same_drain(self, sim):
        fired = []
        echo = Item("echo")

        def fire(item):
            fired.append((sim.now, item.name))
            if item is not echo:
                queue.push(sim.now, 0, echo)
                queue.arm()

        queue = DeadlineQueue(sim, fire)
        queue.push(1.0, 0, Item("first"))
        queue.arm()
        sim.run()
        assert fired == [(1.0, "first"), (1.0, "echo")]
        assert sim._seq == 1  # one timer served both

    def test_superseded_timer_is_readopted(self, sim):
        queue, fired = self.make(sim)
        item = Item("x")
        queue.push(2.0, 0, item)
        queue.arm()
        queue.push(1.0, 0, item)
        queue.arm()
        queue.push(2.0, 0, item)
        queue.arm()
        sim.run()
        assert fired == [(2.0, "x")]
        assert sim._seq == 2  # the 1.0 timer fires stale; 2.0 is reused
