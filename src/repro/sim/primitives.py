"""Composite waiting primitives: AND/OR conditions and a deadline queue."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.core import Event, Simulator

_INF = float("inf")


class Condition(Event):
    """An event that fires when a predicate over child events is met.

    The condition's value is a dict mapping each *triggered* child event
    to its value, in trigger order.  If any child fails before the
    condition is met, the condition fails with the child's exception.
    """

    __slots__ = ("_need", "_count", "_results")

    def __init__(self, sim: Simulator, events: list[Event], need: int, name: str = ""):
        super().__init__(sim, name or f"condition({need}/{len(events)})")
        if need < 0 or need > len(events):
            raise ValueError(f"need={need} out of range for {len(events)} events")
        self._need = need
        self._count = 0
        self._results: dict[Event, Any] = {}
        if need == 0:
            self.succeed(self._results)
            return
        # The children are not kept: a child that never fires holds the
        # condition through its callback, and the condition holding it
        # back would make a reference cycle.
        for ev in events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._results[ev] = ev.value
        self._count += 1
        if self._count >= self._need:
            self.succeed(dict(self._results))


def AllOf(sim: Simulator, events: list[Event]) -> Condition:
    """Fires when *all* of ``events`` have fired."""
    return Condition(sim, events, need=len(events), name="all_of")


def AnyOf(sim: Simulator, events: list[Event]) -> Condition:
    """Fires when *any one* of ``events`` has fired."""
    return Condition(sim, events, need=min(1, len(events)), name="any_of")


class DeadlineQueue:
    """Deadlines of many items, served by one armed simulator timer.

    :meth:`push` gives an item a deadline (replacing any earlier one),
    :meth:`cancel` withdraws it, and :meth:`arm` makes sure a timer is
    scheduled for the earliest deadline; :meth:`add` is a push followed
    by an arm.  That timer calls ``fire`` with
    every item due by its fire time, in ``(when, tie, push order)``
    order, including items pushed for that same instant while they
    fire; pushes made during the drain arm no timer of their own.

    An item carries a ``due`` attribute that the queue owns: the stamp
    of its live entry, 0 while it has none.  Withdrawn and replaced
    entries stay in the heap until they reach its top (lazy deletion).  A timer superseded by an earlier deadline
    stays scheduled and is re-adopted if its fire time is the earliest
    again, so a deadline that moves earlier and back schedules no second
    timer.  The flow engine's completions and the reliable transport's
    retransmit deadlines each run on one.
    """

    __slots__ = ("sim", "fire", "_heap", "_pushes", "_at", "_timers")

    def __init__(self, sim: Simulator, fire: Callable[[Any], None]):
        self.sim = sim
        self.fire = fire
        #: ``(when, tie, stamp, item)``; live while ``stamp`` is the
        #: item's ``due``.
        self._heap: list[tuple[float, Any, int, Any]] = []
        self._pushes = 0
        #: Fire time of the armed timer (``-inf`` while a timer drains).
        self._at = _INF
        #: Every scheduled, not yet fired timer by fire time.
        self._timers: dict[float, Event] = {}

    def push(self, when: float, tie: Any, item: Any) -> None:
        """Give ``item`` the deadline ``when``; call :meth:`arm` after."""
        stamp = self._pushes = self._pushes + 1
        item.due = stamp
        heappush(self._heap, (when, tie, stamp, item))

    def add(self, when: float, tie: Any, item: Any) -> None:
        """:meth:`push`, then :meth:`arm`.

        Outside a drain the armed timer is at or before every live
        deadline, so only a deadline earlier than it can need a timer;
        a later one skips the arm.
        """
        stamp = self._pushes = self._pushes + 1
        item.due = stamp
        heappush(self._heap, (when, tie, stamp, item))
        if when < self._at:
            self.arm()

    def cancel(self, item: Any) -> bool:
        """Withdraw ``item``'s deadline; False if it had none."""
        if item.due:
            item.due = 0
            return True
        return False

    def arm(self) -> None:
        """Arm the timer if the earliest live deadline moved earlier."""
        heap = self._heap
        while heap and heap[0][2] != heap[0][3].due:
            heappop(heap)
        if heap and heap[0][0] < self._at:
            when = heap[0][0]
            self._at = when
            if when not in self._timers:
                delay = when - self.sim._now
                # The timer's value is its fire time.
                timer = self.sim.timeout(delay if delay > 0.0 else 0.0, when)
                timer.callbacks.append(self._on_timer)
                self._timers[when] = timer

    def _on_timer(self, timer: Event) -> None:
        target = timer._value
        del self._timers[target]
        if target != self._at:
            return  # superseded by an earlier deadline
        self._at = -_INF
        heap = self._heap
        fire = self.fire
        while heap:
            when, _tie, stamp, item = heap[0]
            if stamp != item.due:
                heappop(heap)
                continue
            if when > target:
                break
            heappop(heap)
            item.due = 0
            fire(item)
        self._at = _INF
        self.arm()
