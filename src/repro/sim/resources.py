"""Shared-resource primitives: counted resources and stores.

These model the contended entities of the cluster: CPU cores
(:class:`Resource`) and message/work queues (:class:`Store`).  All
queues are FIFO, which keeps the simulation deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.core import Event, Simulator
from repro.sim.errors import Interrupt, SimulationError


class Resource:
    """A counted resource with FIFO request queue (like a semaphore).

    ``request()`` returns an event that fires when a slot is granted;
    the holder must later call ``release()`` exactly once per grant.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._req_name = "request:" + self.name
        self._in_use = 0
        # Most resources are never contended: the queue is allocated at
        # the first request that must wait.
        self._queue: deque[Event] | tuple[()] = ()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Event:
        ev = self.sim.event(self._req_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            # Inlined ev.succeed(self): the event is fresh, so the
            # already-triggered guard cannot fire — this is one of the
            # kernel's hottest grant paths.
            ev._value = self
            self.sim._schedule(ev)
        else:
            if type(self._queue) is tuple:
                self._queue = deque()
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free slot at once, with no event; False if none is free.

        On False the caller queues with :meth:`request` as usual.  A free
        slot implies an empty queue (``release`` hands a slot straight to
        the next waiter), so this never overtakes a queued request.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._queue:
            # Hand the slot directly to the next waiter; in_use unchanged.
            nxt = self._queue.popleft()
            nxt._value = self
            self.sim._schedule(nxt)
        else:
            self._in_use -= 1

    def cancel(self, request_event: Event) -> bool:
        """Withdraw a queued ``request()``; True if it was still queued.

        A request that was already granted cannot be withdrawn — the
        caller owns the slot and must ``release()`` it.  Needed by
        callers whose waiting frame can be interrupted (e.g. head
        failover teardown): an abandoned queued request would otherwise
        swallow the next freed slot forever.
        """
        for i, ev in enumerate(self._queue):
            if ev is request_event:
                del self._queue[i]
                return True
        return False

    def acquire(self):
        """Generator: ``yield from res.acquire()`` waits for a slot.

        Interrupt-safe: a waiter interrupted (or closed) while queued
        withdraws its request, and one granted in the same instant hands
        the slot back, so an abandoned wait never swallows the next
        freed slot.  The interrupt is re-raised.
        """
        req = self.request()
        try:
            yield req
        except (Interrupt, GeneratorExit):
            if not self.cancel(req):
                self.release()
            raise

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
            f" queued={len(self._queue)}>"
        )


class Store:
    """An unbounded (or bounded) FIFO item store.

    ``put(item)`` returns an event that fires once the item is accepted;
    ``get()`` returns an event that fires with the next item.  Getters
    may pass a ``filter`` predicate; filtered getters scan the buffered
    items in FIFO order, so matching is deterministic.  This is the
    mechanism behind MPI message matching.
    """

    def __init__(self, sim: Simulator, capacity: int | None = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._put_name = "put:" + self.name
        self._get_name = "get:" + self.name
        self._items: deque[Any] = deque()
        self._getters: deque[tuple[Event, Callable[[Any], bool] | None]] = deque()
        # Allocated at the first put that blocks, as Resource._queue is.
        self._putters: deque[tuple[Event, Any]] | tuple[()] = ()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (read-only view for inspection)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event(self._put_name)
        if self.capacity is not None and len(self._items) >= self.capacity:
            if type(self._putters) is tuple:
                self._putters = deque()
            self._putters.append((ev, item))
        else:
            self._items.append(item)
            ev._value = item  # inlined succeed() on a fresh event
            self.sim._schedule(ev)
            self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deliver ``item`` without a put event (unbounded stores only)."""
        if self.capacity is not None:
            raise SimulationError("put_nowait() needs an unbounded store")
        self._items.append(item)
        self._dispatch()

    def get(self, filter: Callable[[Any], bool] | None = None) -> Event:
        ev = self.sim.event(self._get_name)
        self._getters.append((ev, filter))
        self._dispatch()
        return ev

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending ``get()``; True if it was still queued.

        A cancelled get event never fires, so callers must stop waiting
        on it.  Items are unaffected — a message that would have matched
        the withdrawn getter stays buffered for future getters.
        """
        for i, (ev, _pred) in enumerate(self._getters):
            if ev is get_event:
                del self._getters[i]
                return True
        return False

    def peek(self, filter: Callable[[Any], bool] | None = None) -> Any | None:
        """Return (without removing) the first matching item, or None."""
        for item in self._items:
            if filter is None or filter(item):
                return item
        return None

    def _dispatch(self) -> None:
        # Match waiting getters against buffered items (FIFO both ways).
        progressed = True
        while progressed:
            progressed = False
            for gi, (gev, pred) in enumerate(self._getters):
                for ii, item in enumerate(self._items):
                    if pred is None or pred(item):
                        del self._items[ii]
                        del self._getters[gi]
                        gev._value = item  # inlined succeed()
                        self.sim._schedule(gev)
                        progressed = True
                        break
                if progressed:
                    break
            # Admit blocked putters into freed capacity.
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                pev, item = self._putters.popleft()
                self._items.append(item)
                pev.succeed(item)
                progressed = True
