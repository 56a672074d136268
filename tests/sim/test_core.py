"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.sim import DeadlockError, Event, Interrupt, Simulator
from repro.sim.errors import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event("x")
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42
        assert ev.ok

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        assert ev.triggered
        assert not ev.ok
        assert isinstance(ev.value, RuntimeError)

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError())

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]


class TestTimeAdvance:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        assert sim.run() == 5.0

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_same_time_fifo_order(self, sim):
        order = []
        for i in range(5):
            ev = sim.timeout(1.0)
            ev.add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_time_stops_early(self, sim):
        fired = []
        sim.timeout(10.0).add_callback(lambda e: fired.append(1))
        assert sim.run(until=5.0) == 5.0
        assert fired == []
        sim.run()
        assert fired == [1]

    def test_run_until_past_raises(self, sim):
        sim.timeout(3.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_advances_clock_when_heap_drains_early(self, sim):
        # Regression: the last event at t=3 used to leave now() at 3
        # even though the caller asked to run until t=10.
        sim.timeout(3.0)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_run_until_on_empty_heap_advances_clock(self, sim):
        assert sim.run(until=7.0) == 7.0
        assert sim.now == 7.0

    def test_run_until_repeated_horizons_accumulate(self, sim):
        sim.timeout(1.0)
        assert sim.run(until=4.0) == 4.0
        assert sim.run(until=6.0) == 6.0
        assert sim.now == 6.0

    def test_run_until_a_foreign_event_is_rejected(self, sim):
        other = Simulator()
        sim.timeout(5.0)
        with pytest.raises(SimulationError, match="different simulator"):
            sim.run(until=other.timeout(1.0, "from-other"))
        assert sim.now == 0.0
        # Untriggered, it is rejected too, not reported as a deadlock.
        with pytest.raises(SimulationError, match="different simulator"):
            sim.run(until=other.event())
        assert sim.run() == 5.0


class TestProcess:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        assert sim.run(until=p) == "done"
        assert sim.now == 1.0

    def test_sequential_waits_accumulate_time(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.5)
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == 3.5

    def test_process_receives_event_value(self, sim):
        ev = sim.event()

        def trigger():
            yield sim.timeout(2.0)
            ev.succeed("hello")

        def waiter():
            value = yield ev
            return value

        sim.process(trigger())
        p = sim.process(waiter())
        assert sim.run(until=p) == "hello"

    def test_failed_event_raises_in_process(self, sim):
        ev = sim.event()

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(ValueError("nope"))

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        sim.process(trigger())
        p = sim.process(waiter())
        assert sim.run(until=p) == "caught nope"

    def test_unhandled_process_exception_crashes_run(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_waited_process_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            try:
                yield sim.process(child())
            except RuntimeError:
                return "observed"

        p = sim.process(parent())
        assert sim.run(until=p) == "observed"

    def test_yield_non_event_is_error(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError, match="must yield Events"):
            sim.run()

    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_waiting_on_process_result(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 99

        def parent():
            value = yield sim.process(child())
            return value + 1

        p = sim.process(parent())
        assert sim.run(until=p) == 100

    def test_many_processes_interleave_deterministically(self, sim):
        log = []

        def worker(wid, delay):
            yield sim.timeout(delay)
            log.append((sim.now, wid))
            yield sim.timeout(delay)
            log.append((sim.now, wid))

        for wid, delay in enumerate([3.0, 1.0, 2.0]):
            sim.process(worker(wid, delay))
        sim.run()
        # At t=2.0 worker 2's first timeout (scheduled at t=0) precedes
        # worker 1's second (scheduled at t=1): earlier insertion wins.
        assert log == [(1.0, 1), (2.0, 2), (2.0, 1), (3.0, 0), (4.0, 2), (6.0, 0)]


class TestInterrupt:
    def test_interrupt_raises_inside_process(self, sim):
        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                return f"interrupted: {intr.cause}"

        p = sim.process(victim())

        def killer():
            yield sim.timeout(1.0)
            p.interrupt("node failure")

        sim.process(killer())
        assert sim.run(until=p) == "interrupted: node failure"
        assert sim.now == 1.0

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(0.5)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_kills_process(self, sim):
        def victim():
            yield sim.timeout(100.0)

        p = sim.process(victim())

        def killer():
            yield sim.timeout(1.0)
            p.interrupt("bye")

        sim.process(killer())
        with pytest.raises(Interrupt):
            sim.run()
        assert p.triggered and not p.ok

    def test_an_interrupted_process_keeps_no_traceback(self, sim):
        # The traceback's frames would hold the ended process, which
        # holds the Interrupt as its value: a reference cycle.
        p = sim.process(iter_forever(sim))
        p.callbacks.append(lambda ev: None)  # a waiter, so no crash
        sim.timeout(1.0).callbacks.append(lambda ev: p.interrupt("bye"))
        sim.run()
        assert isinstance(p.value, Interrupt)
        assert p.value.__traceback__ is None


def iter_forever(sim):
    """A process that waits on an event nothing triggers."""
    yield sim.event("never")


class TestClose:
    """``Process.close`` ends a process with no event."""

    def test_close_runs_finally_and_schedules_nothing(self, sim):
        ev, log = sim.event(), []

        def waiter():
            try:
                yield ev
                log.append("resumed")
            finally:
                log.append("finally")

        p = sim.process(waiter())
        sim.run()
        seq = sim._seq
        p.close()
        assert log == ["finally"]
        assert sim._seq == seq
        assert not p.is_alive
        assert ev.callbacks == []  # detached from the awaited event
        ev.succeed("late")
        sim.run()
        assert log == ["finally"]
        assert not p.processed

    def test_close_before_the_first_resume(self, sim):
        started = []

        def body():
            started.append(True)
            yield sim.timeout(1.0)

        p = sim.process(body())
        p.close()
        assert sim.run() == 0.0
        assert started == [] and not p.is_alive

    def test_close_twice_or_after_finish_is_a_no_op(self, sim):
        def quick():
            yield sim.timeout(0.5)
            return "done"

        done = sim.process(quick())
        stuck = sim.process(iter_forever(sim))
        sim.run(until=done)
        done.close()
        assert done.ok and done.value == "done"
        stuck.close()
        seq = sim._seq
        stuck.close()
        assert sim._seq == seq and not stuck.is_alive

    def test_interrupting_a_closed_process_does_nothing(self, sim):
        p = sim.process(iter_forever(sim))
        sim.run()
        p.close()
        seq = sim._seq
        p.interrupt("too late")
        assert sim._seq == seq
        sim.run()

    def test_a_waiter_on_a_closed_process_never_resumes(self, sim):
        target = sim.process(iter_forever(sim))
        resumed = []

        def waiter():
            yield target
            resumed.append(True)

        w = sim.process(waiter())
        sim.run()
        target.close()
        sim.run()
        assert resumed == [] and w.is_alive

    def test_close_inside_recv_withdraws_the_receive(self, sim):
        from repro.cluster import Cluster, ClusterSpec
        from repro.mpi import MpiWorld

        cluster = Cluster(ClusterSpec(num_nodes=2), sim=sim)
        world = MpiWorld(cluster)

        def receiver():
            yield from world.world.rank(1).recv(tag=7)

        p = sim.process(receiver())
        sim.run()
        assert world._queues
        p.close()
        assert world._queues == {}
        # A late message is buffered for a future receive, not consumed
        # by the closed one.
        world.world.rank(0).isend(1, "late", 8.0, tag=7)
        sim.run()
        [store] = world._queues.values()
        assert len(store) == 1


class TestDeadlockDetection:
    def test_waiting_on_never_triggered_event_deadlocks(self, sim):
        ev = sim.event()

        def stuck():
            yield ev

        p = sim.process(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError, match="stuck-proc"):
            sim.run(until=p)

    def test_check_deadlock_flag(self, sim):
        def stuck():
            yield sim.event()

        sim.process(stuck())
        with pytest.raises(DeadlockError):
            sim.run(check_deadlock=True)

    def test_clean_completion_no_deadlock(self, sim):
        def fine():
            yield sim.timeout(1.0)

        sim.process(fine())
        assert sim.run(check_deadlock=True) == 1.0


@pytest.fixture
def collector():
    """Restore the cyclic collector's setting after the test."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


class TestCollectorPause:
    """``run`` pauses the cyclic collector for its loop and restores the
    caller's setting on every exit."""

    def test_disabled_inside_a_callback_and_enabled_after(self, sim,
                                                          collector):
        seen = []
        sim.timeout(1.0).callbacks.append(
            lambda ev: seen.append(gc.isenabled()))
        assert sim.run() == 1.0
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_a_crash(self, sim, collector):
        def crash():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.process(crash())
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert gc.isenabled()

    def test_restored_after_a_deadlock(self, sim, collector):
        def stuck():
            yield sim.event()

        with pytest.raises(DeadlockError):
            sim.run(until=sim.process(stuck()))
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, sim,
                                                          collector):
        sim.timeout(1.0)
        gc.disable()
        sim.run()
        assert not gc.isenabled()
