"""Kernel fast-path unit tests: two-lane queue, input guards,
process-table compaction, and O(1) interrupt semantics.

Tests parametrized on ``fastpath`` run once on the production kernel
and once on the reference kernel of ``tests/reference_kernel.py``."""

from __future__ import annotations

import random

import pytest

from repro.sim.core import (
    NORMAL,
    URGENT,
    Interrupt,
    SimulationError,
    Simulator,
)

from tests.reference_kernel import kernel, reference_kernel


def _trace(sim: Simulator) -> list[tuple[float, int, str]]:
    """Record every processed event as ``(time, priority, name)``."""
    seen: list[tuple[float, int, str]] = []
    sim._event_tap = lambda t, p, ev: seen.append((t, p, ev.name))
    return seen


# ---------------------------------------------------------------------------
# two-lane event queue
# ---------------------------------------------------------------------------

def _same_time_program(sim: Simulator) -> None:
    # Fast lane: a, b then c; heap: the urgent event (scheduled between
    # b and c).  URGENT must pre-empt all same-time NORMAL events even
    # though it entered the queue later.
    sim.timeout(0.0).name = "a"
    sim.timeout(0.0).name = "b"
    urgent = sim.event("u")
    urgent._value = None
    sim._schedule(urgent, 0.0, URGENT)
    sim.timeout(0.0).name = "c"


@pytest.mark.parametrize("fastpath", [True, False])
def test_same_time_urgent_preempts_fifo(fastpath):
    with kernel(fastpath):
        sim = Simulator()
        seen = _trace(sim)
        _same_time_program(sim)
        sim.run()
    assert seen == [
        (0.0, URGENT, "u"),
        (0.0, NORMAL, "a"),
        (0.0, NORMAL, "b"),
        (0.0, NORMAL, "c"),
    ]


def test_future_event_does_not_overtake_fast_lane():
    sim = Simulator()
    seen = _trace(sim)
    sim.timeout(1.0).name = "later"
    sim.timeout(0.0).name = "now"
    sim.run()
    assert [name for _, _, name in seen] == ["now", "later"]
    assert sim.now == 1.0


def test_callback_scheduling_now_lands_at_current_time():
    sim = Simulator()
    seen = _trace(sim)
    later = sim.timeout(1.0)
    later.name = "later"
    later.add_callback(lambda ev: setattr(sim.timeout(0.0), "name", "chained"))
    sim.run()
    assert seen == [(1.0, NORMAL, "later"), (1.0, NORMAL, "chained")]


def test_run_until_time_leaves_future_events_queued():
    sim = Simulator()
    seen = _trace(sim)
    sim.timeout(0.0).name = "now"
    pending = sim.timeout(1.0)
    pending.name = "later"
    assert sim.run(until=0.5) == 0.5
    assert sim.now == 0.5
    assert [name for _, _, name in seen] == ["now"]
    assert not pending.processed
    sim.run()
    assert [name for _, _, name in seen] == ["now", "later"]


def test_run_until_event_stops_at_trigger():
    sim = Simulator()
    done = sim.event("done")

    def proc():
        yield sim.timeout(0.25)
        done.succeed("finished")
        yield sim.timeout(10.0)

    sim.process(proc())
    assert sim.run(until=done) == "finished"
    assert sim.now == 0.25


def test_fast_and_reference_kernels_agree_on_random_schedules():
    def exercise() -> list[tuple[float, int, str]]:
        rng = random.Random(42)
        sim = Simulator()
        seen = _trace(sim)

        def churn(depth: int):
            for i in range(rng.randint(1, 3)):
                delay = rng.choice([0.0, 0.0, 0.0, rng.random()])
                ev = sim.timeout(delay)
                ev.name = f"t{depth}.{i}"
                if depth < 3:
                    ev.add_callback(lambda _ev, d=depth: churn(d + 1))
            if rng.random() < 0.3:
                urgent = sim.event(f"u{depth}")
                urgent._value = None
                sim._schedule(urgent, 0.0, URGENT)

        churn(0)
        sim.run()
        return seen

    fast = exercise()
    with reference_kernel():
        assert exercise() == fast


# ---------------------------------------------------------------------------
# non-finite input guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fastpath", [True, False])
@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
def test_timeout_rejects_bad_delays(fastpath, delay):
    with kernel(fastpath), pytest.raises(ValueError):
        Simulator().timeout(delay)


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5])
def test_succeed_rejects_bad_delays(delay):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.event("ev").succeed(delay=delay)
    with pytest.raises(ValueError):
        sim.event("ev").fail(RuntimeError("x"), delay=delay)


def test_bad_delay_does_not_corrupt_queue():
    sim = Simulator()
    seen = _trace(sim)
    with pytest.raises(ValueError):
        sim.timeout(float("nan"))
    sim.timeout(0.0).name = "ok"
    sim.run()
    assert [name for _, _, name in seen] == ["ok"]


# ---------------------------------------------------------------------------
# process-table compaction (unbounded retention regression)
# ---------------------------------------------------------------------------

def test_dead_processes_are_compacted_away():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.0)

    for _ in range(1000):
        sim.process(quick())
        sim.run()
    # Before compaction the table retained every process ever created
    # (1000 here); now it stays proportional to the live set.
    assert len(sim._processes) < 200


def test_live_processes_survive_compaction():
    sim = Simulator()
    gate = sim.event("gate")

    def waiter():
        yield gate
        return "woke"

    keeper = sim.process(waiter())

    def quick():
        yield sim.timeout(0.0)

    for _ in range(500):
        sim.process(quick())
    sim.run()
    assert keeper in sim._processes
    gate.succeed()
    sim.run()
    assert keeper.value == "woke"


# ---------------------------------------------------------------------------
# interrupt semantics
# ---------------------------------------------------------------------------

def test_interrupt_detaches_and_stale_fire_is_dropped():
    sim = Simulator()
    log: list[object] = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(intr.cause)
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(sleeper())
    sim.run(until=0.0)  # reach the first yield
    proc.interrupt("wake-up")
    result = sim.run(until=proc)
    assert log == ["wake-up"]
    assert result == "done"
    # The stale 10 s timeout still fires at t=10 but resumes nobody.
    assert sim.now == pytest.approx(1.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_interrupt_before_first_resume_reaches_first_yield():
    sim = Simulator()
    log: list[str] = []

    def worker():
        log.append("started")
        try:
            yield sim.timeout(5.0)
        except Interrupt:
            log.append("interrupted")
            return "caught"
        return "uninterrupted"

    proc = sim.process(worker())
    proc.interrupt()  # before the loop ever ran
    sim.run(until=proc)
    # The bootstrap resume must still happen (the generator needs to
    # reach its first yield before Interrupt can be thrown into it).
    assert log == ["started", "interrupted"]
    assert proc.value == "caught"


def test_interrupt_finished_process_is_an_error():
    sim = Simulator()

    def instant():
        yield sim.timeout(0.0)

    proc = sim.process(instant())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_mass_interrupt_of_shared_event_waiters():
    # The failure-race shape that made list.remove O(waiters^2): many
    # processes parked on one event, all preempted in the same instant.
    sim = Simulator()
    gate = sim.event("gate")
    outcomes: list[str] = []

    def waiter(i: int):
        try:
            yield gate
            outcomes.append(f"woke{i}")
        except Interrupt:
            outcomes.append(f"intr{i}")

    procs = [sim.process(waiter(i)) for i in range(100)]
    sim.run(until=0.0)
    for proc in procs:
        proc.interrupt()
    sim.run()
    assert outcomes == [f"intr{i}" for i in range(100)]
    # The gate can still fire afterwards without resuming anyone twice.
    gate.succeed()
    sim.run()
    assert len(outcomes) == 100
