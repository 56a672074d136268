"""Shared detector timers: same-instant timers are one event, exactly.

The failure detector interns its timers by fire time
(:meth:`FailureDetector._after`), so an n-node heartbeat ring schedules
O(1) timer events per period instead of O(n).  Timing must be exactly
preserved; because the *event stream* legitimately changes (that is the
optimization), equivalence is asserted at the result level — identical
makespans, detections, and outputs with sharing on and off — rather
than by event-stream digests.  "Off" is the reference of
:func:`_private_timers`: every timer gets its own ``sim.timeout``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.events import EventSystem
from repro.core.faults import FaultTolerantRuntime, NodeFailure
from repro.core.gossip import FailureDetector
from repro.mpi import MpiWorld

from tests.core.test_faults import FAST, shots_program


def _private_after(self, delay, fn, *args):
    self.sim.timeout(delay).callbacks.append(lambda _ev: fn(*args))


@contextmanager
def _private_timers():
    """Bypass sharing: each ``_after`` gets a private timeout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FailureDetector, "_after", _private_after)
        yield


def _wheel(use_wheel: bool):
    return nullcontext() if use_wheel else _private_timers()


def _detector(n: int = 4) -> FailureDetector:
    cluster = Cluster(ClusterSpec(num_nodes=n))
    mpi = MpiWorld(cluster)
    events = EventSystem(cluster, mpi, FAST)
    return FailureDetector(cluster, mpi, events)


class TestTimerWheelUnit:
    def test_same_instant_waits_share_one_event(self):
        det = _detector()
        det._after(0.5, lambda: None)
        det._after(0.5, lambda: None)
        assert list(det._timers) == [0.5]
        det._after(0.25, lambda: None)  # a different instant
        assert sorted(det._timers) == [0.25, 0.5]

    def test_shared_timer_fires_at_the_exact_instant(self):
        det = _detector()
        sim = det.sim
        woke: list[tuple[str, float]] = []
        det._after(0.125, lambda: woke.append(("a", sim.now)))
        det._after(0.125, lambda: woke.append(("b", sim.now)))
        sim.run()
        # Bit-equal to a private sim.timeout(0.125): the key IS the
        # firing time, so sharing cannot shift anyone's wake-up.
        assert woke == [("a", 0.125), ("b", 0.125)]

    def test_processed_slot_is_not_reused(self):
        det = _detector()
        sim = det.sim
        woke: list[str] = []

        def again():
            woke.append("first")
            # Same absolute instant, but the shared timer already fired.
            det._after(0.0, lambda: woke.append("second"))

        det._after(0.0, again)
        sim.run()
        assert woke == ["first", "second"]
        assert sim._seq == 2  # two timer events: one per firing

    def test_fired_slots_are_pruned(self):
        det = _detector()
        ticks = []

        def tick():
            ticks.append(det.sim.now)
            if len(ticks) < 200:
                det._after(0.001, tick)

        det._after(0.001, tick)
        det.sim.run()
        assert len(ticks) == 200
        # A fired instant leaves the table at once.
        assert det._timers == {}


class TestRingUsesWheel:
    def _ring(self, use_wheel: bool, n: int = 6):
        with _wheel(use_wheel):
            cluster = Cluster(ClusterSpec(num_nodes=n))
            mpi = MpiWorld(cluster)
            events = EventSystem(cluster, mpi, FAST)
            events.start()
            ring = FailureDetector(cluster, mpi, events)
            ring.start()

            def stopper():
                yield cluster.sim.timeout(0.02)
                ring.stop()

            cluster.sim.process(stopper())
            cluster.sim.run(until=0.05)
        return cluster, ring

    def test_steady_state_interns_most_timers(self):
        calls = fresh = 0
        shared = FailureDetector._after

        def counting(self, delay, fn, *args):
            nonlocal calls, fresh
            before = self.sim._seq
            shared(self, delay, fn, *args)
            calls += 1
            fresh += self.sim._seq != before

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FailureDetector, "_after", counting)
            _cluster, ring = self._ring(use_wheel=True)
        assert 2 * fresh < calls
        assert ring.detections == []
        assert ring.false_positives == 0

    def test_wheel_reduces_event_count_with_identical_health(self):
        with_wheel, ring_on = self._ring(use_wheel=True)
        without, ring_off = self._ring(use_wheel=False)
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
        # ...and sharing genuinely batched the detector's timers.
        assert events_on < events_off
