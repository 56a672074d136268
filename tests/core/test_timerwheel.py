"""Timer wheel: batched heartbeat timers with exact timing.

The wheel interns same-instant timeouts, so an n-node heartbeat ring
schedules O(1) timer events per tick instead of O(n).  Timing must be
exactly preserved; because the *event stream* legitimately changes
(that is the optimization), equivalence is asserted at the result level
— identical makespans, detections, and outputs with the wheel on and
off — rather than by the event-order digests the fast-path queue uses.
"Off" is the reference of :func:`_private_timers`: every wait gets its
own ``sim.timeout``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.events import EventSystem
from repro.core.faults import (
    FaultTolerantRuntime,
    HeartbeatRing,
    NodeFailure,
    _TimerWheel,
)
from repro.mpi import MpiWorld
from repro.sim.core import Simulator

from tests.core.test_faults import FAST, shots_program


@contextmanager
def _private_timers():
    """Bypass the wheel: each ``after(delay)`` is a private timeout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TimerWheel, "after",
                   lambda self, delay: self.sim.timeout(delay))
        yield


def _wheel(use_wheel: bool):
    return nullcontext() if use_wheel else _private_timers()


class TestTimerWheelUnit:
    def test_same_instant_waits_share_one_event(self):
        sim = Simulator()
        wheel = _TimerWheel(sim)
        a = wheel.after(0.5)
        b = wheel.after(0.5)
        assert a is b
        assert wheel.created == 1
        assert wheel.interned == 1
        assert wheel.after(0.25) is not a  # different instant

    def test_shared_timer_fires_at_the_exact_instant(self):
        sim = Simulator()
        wheel = _TimerWheel(sim)
        woke: list[tuple[str, float]] = []

        def waiter(tag: str):
            yield wheel.after(0.125)
            woke.append((tag, sim.now))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.run()
        # Bit-equal to a private sim.timeout(0.125): the slot key IS the
        # firing time, so sharing cannot shift anyone's wake-up.
        assert woke == [("a", 0.125), ("b", 0.125)]

    def test_processed_slot_is_not_reused(self):
        sim = Simulator()
        wheel = _TimerWheel(sim)
        first = wheel.after(0.0)
        sim.run()
        assert first.processed
        again = wheel.after(0.0)  # same absolute instant, but stale
        assert again is not first
        assert wheel.created == 2

    def test_fired_slots_are_pruned(self):
        sim = Simulator()
        wheel = _TimerWheel(sim)

        def ticker():
            for i in range(200):
                yield wheel.after(0.001)

        sim.process(ticker())
        sim.run()
        # Without pruning the table would hold all 200 fired instants.
        assert len(wheel._slots) <= 64


class TestRingUsesWheel:
    def _ring(self, use_wheel: bool, n: int = 6):
        with _wheel(use_wheel):
            cluster = Cluster(ClusterSpec(num_nodes=n))
            mpi = MpiWorld(cluster)
            events = EventSystem(cluster, mpi, FAST)
            events.start()
            ring = HeartbeatRing(cluster, mpi, events)
            ring.start()

            def stopper():
                yield cluster.sim.timeout(0.02)
                ring.stop()

            cluster.sim.process(stopper())
            cluster.sim.run(until=0.05)
        return cluster, ring

    def test_steady_state_interns_most_timers(self):
        _cluster, ring = self._ring(use_wheel=True)
        assert ring.wheel.interned > ring.wheel.created
        assert ring.detections == []
        assert ring.false_positives == 0

    def test_wheel_reduces_event_count_with_identical_health(self):
        with_wheel, ring_on = self._ring(use_wheel=True)
        without, ring_off = self._ring(use_wheel=False)
        assert ring_off.wheel.created == 0
        assert ring_on.detections == ring_off.detections == []
        assert ring_on.missed_windows == ring_off.missed_windows
        assert with_wheel.sim._seq < without.sim._seq


class TestRuntimeEquivalence:
    def _run(self, heartbeat_wheel: bool):
        prog, model, outputs = shots_program(num_shots=6, cost=0.02)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST)
        with _wheel(heartbeat_wheel):
            res = rt.run(prog, failures=[NodeFailure(time=0.01, node=1)])
        events = rt.last_cluster.sim._seq
        return res, events, model, outputs

    def test_failure_run_identical_with_and_without_wheel(self):
        res_on, events_on, model, outputs_on = self._run(True)
        res_off, events_off, _model, outputs_off = self._run(False)
        # Simulation results are bit-identical...
        assert res_on.makespan == res_off.makespan
        assert res_on.detections == res_off.detections
        assert res_on.reexecuted_tasks == res_off.reexecuted_tasks
        assert res_on.failures == res_off.failures
        # ...the failure was actually detected and recovered from...
        assert [node for node, _by, _t in res_on.detections] == [1]
        for out in outputs_on + outputs_off:
            np.testing.assert_allclose(out, model * 2.0)
        # ...and the wheel genuinely batched heartbeat timers.
        assert events_on < events_off
