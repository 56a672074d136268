"""Slotted MPI message matching: every MPI queue's match tables.

The reference implementation of message matching (kept test-side, in
``tests/reference_kernel.py``) is a :class:`~repro.sim.resources.Store`
holding every buffered message for one ``(rank, comm)`` pair, with each
receive expressed as a predicate closure over ``(src, tag)``.
Matching then costs a linear scan of all buffered messages per receive
and a getters × items fixpoint per delivery — fine at 4 nodes,
dominant at 64.

:class:`MatchStore` keeps the exact same externally observable behavior
(same events, created in the same order, firing at the same times — the
digest property tests assert bit-identical event streams against the
reference) while making both directions O(1) for the common case:

* buffered messages live in per-``(src, tag)`` slots, stamped with a
  global arrival sequence so wildcard receives can compare slot heads;
  the ``ANY_SOURCE``-by-tag pattern — mass fan-in on one tag — skips
  even that scan via a per-tag arrival FIFO with lazy stale discard;
* pending receives live in four pattern buckets — exact ``(src, tag)``,
  ``ANY_SOURCE``-by-tag, ``ANY_TAG``-by-src, and fully wild — stamped
  with a posting sequence so a delivery picks the earliest-posted match
  by comparing at most four bucket heads;
* ``cancel`` is O(1): a withdrawn receive is dropped from the pending
  map and swept once it reaches its bucket's head (every
  failure-detector ping that goes unanswered cancels its receive, which
  makes an O(getters) scan a hot path under fault storms).

Lifetime rule: a table entry exists only while it holds pending work.
A slot or a pattern bucket exists only while it holds a buffered
message or a pending receive; a tag's arrival FIFO exists only while
that tag has a buffered message.  Each is deleted by the operation that
drains it, so a queue's footprint follows its pending work, not its
history — the event system draws a fresh tag per event, so per-tag
state that outlived its event would grow with the run.

Equivalence argument: an unbounded Store is always at a fixpoint where
no waiting getter matches any buffered item.  A ``put`` can therefore
pair only the new message — with the *earliest-posted* matching receive
(the reference dispatch scans getters in FIFO order).  A ``get`` can
pair only the new receive — with the *earliest-arrival* matching
message (the reference getter scans items in FIFO order).  Those two
rules are exactly what the bucket/slot heads implement.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import Event, Simulator

#: Wildcards (mirrors :data:`repro.mpi.comm.ANY_SOURCE` / ``ANY_TAG``
#: without a circular import).
_ANY = -1


class MatchStore:
    """One ``(rank, comm)`` matching queue, keyed by MPI ``(src, tag)``.

    It keeps the parts of the :class:`~repro.sim.resources.Store` API
    that MPI matching uses — ``put``/``put_nowait``, ``cancel``,
    ``items``, ``peek`` and ``len`` — and names its events as a Store
    of the same name would.  Queues are unbounded, and receives must be
    posted through :meth:`get_match`; the generic predicate :meth:`get`
    is disabled so an accidental fallback to linear matching cannot
    hide here.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or "store"
        self._get_name = "get:" + self.name
        #: Buffered messages per (src, tag), as (arrival_seq, msg).
        self._slots: dict[tuple[int, int], deque[tuple[int, Any]]] = {}
        #: Per-tag arrival FIFO of (arrival_seq, slot_key).  An
        #: ``ANY_SOURCE``-by-tag receive pops this instead of scanning
        #: every live ``(src, tag)`` slot: with N sources fanning in on
        #: one tag (the event system's drain pattern) the slot scan is
        #: O(N) per receive — O(N^2) per drain.  Entries whose message
        #: was consumed by another pattern are stale; every consuming
        #: receive sweeps its tag's stale heads.  Within one slot
        #: arrivals strictly increase, so the first live entry is the
        #: tag's global earliest arrival — the same message the scan
        #: would pick, keeping the digest tests bit-identical.
        self._tag_fifo: dict[int, deque[tuple[int, tuple[int, int]]]] = {}
        self._arrival = 0
        #: Pending receives per pattern ``(src, tag)`` — exact,
        #: ``(ANY, tag)``, ``(src, ANY)`` or ``(ANY, ANY)`` — as
        #: (post_seq, event).
        self._buckets: dict[tuple[int, int], deque[tuple[int, Event]]] = {}
        self._posted = 0
        #: Receives still pending, with their bucket's pattern (drives
        #: O(1) cancel; bucket entries missing from this map were
        #: cancelled and are swept when they reach the head).
        self._pending: dict[Event, tuple[int, int]] = {}
        self._n_items = 0

    def __len__(self) -> int:
        return self._n_items

    @property
    def drained(self) -> bool:
        """True while the store holds no message and no pending receive."""
        return not self._n_items and not self._pending

    @property
    def items(self) -> tuple:
        """Buffered messages in arrival order (inspection only)."""
        entries = [e for slot in self._slots.values() for e in slot]
        entries.sort()
        return tuple(msg for _arr, msg in entries)

    def peek(self, filter=None) -> Any | None:
        for item in self.items:
            if filter is None or filter(item):
                return item
        return None

    def get(self, filter=None) -> Event:
        raise TypeError(
            "MatchStore receives must use get_match(src, tag); "
            "predicate get() would reintroduce the linear scan"
        )

    # -- matching ----------------------------------------------------------
    def _sweep_bucket(self, key: tuple[int, int]) -> None:
        """Drop a bucket's cancelled heads, and the bucket once it is
        empty: every bucket left is headed by a pending receive."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        pending = self._pending
        while bucket:
            if bucket[0][1] in pending:
                return
            bucket.popleft()
        del self._buckets[key]

    def _sweep_fifo(self, tag: int) -> None:
        """Drop the stale heads of ``tag``'s arrival FIFO: entries whose
        slot is gone or whose slot head has moved past them."""
        fifo = self._tag_fifo.get(tag)
        if fifo is None:
            return
        slots = self._slots
        while fifo:
            arr, key = fifo[0]
            slot = slots.get(key)
            if slot is not None and slot[0][0] == arr:
                return
            fifo.popleft()
        del self._tag_fifo[tag]

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, "put:" + self.name)
        ev._value = item  # inlined succeed() on a fresh event
        self.sim._schedule(ev)
        self.put_nowait(item)
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deliver ``item`` to the earliest-posted matching receive, or
        buffer it; no put event (the sender never waits on one)."""
        src = item.src
        tag = item.tag
        # Earliest-posted pending receive among the four patterns'
        # bucket heads (every head is pending: see _sweep_bucket).
        buckets = self._buckets
        best = best_key = None
        if buckets:
            for key in ((src, tag), (_ANY, tag), (src, _ANY), (_ANY, _ANY)):
                bucket = buckets.get(key)
                if bucket is not None and (
                        best is None or bucket[0][0] < best[0]):
                    best, best_key = bucket[0], key
        if best is not None:
            bucket = buckets[best_key]
            bucket.popleft()
            if not bucket:
                del buckets[best_key]
            elif bucket[0][1] not in self._pending:
                self._sweep_bucket(best_key)
            gev = best[1]
            del self._pending[gev]
            gev._value = item
            self.sim._schedule(gev)
            return
        key = (src, tag)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = deque()
        slot.append((self._arrival, item))
        fifo = self._tag_fifo.get(tag)
        if fifo is None:
            fifo = self._tag_fifo[tag] = deque()
        fifo.append((self._arrival, key))
        self._arrival += 1
        self._n_items += 1

    def get_match(self, src: int, tag: int) -> Event:
        """Post a receive for ``(src, tag)`` (either may be ``-1``/ANY)."""
        ev = Event(self.sim, self._get_name)
        # Earliest-arrival buffered message matching the pattern.
        best_key: tuple[int, int] | None = None
        best_arr = -1
        if src != _ANY and tag != _ANY:
            if (src, tag) in self._slots:
                best_key = (src, tag)
        elif src == _ANY and tag != _ANY:
            # ANY_SOURCE by tag: the per-tag arrival FIFO's head is the
            # tag's earliest arrival (consuming receives sweep it).
            fifo = self._tag_fifo.get(tag)
            if fifo:
                best_key = fifo[0][1]
        else:
            # Wildcard: compare the heads of the matching slots.  Slots
            # are deleted when drained, so this scans live traffic
            # classes, not history.
            for key, slot in self._slots.items():
                if src != _ANY and key[0] != src:
                    continue
                if tag != _ANY and key[1] != tag:
                    continue
                arr = slot[0][0]
                if best_key is None or arr < best_arr:
                    best_key = key
                    best_arr = arr
        if best_key is not None:
            slot = self._slots[best_key]
            _arr, item = slot.popleft()
            if not slot:
                del self._slots[best_key]
            # The tag's FIFO holds an entry for every message of the tag
            # still buffered when it arrived; one left is item's own.
            item_tag = best_key[1]
            if len(self._tag_fifo[item_tag]) == 1:
                del self._tag_fifo[item_tag]
            else:
                self._sweep_fifo(item_tag)
            self._n_items -= 1
            ev._value = item  # inlined succeed()
            self.sim._schedule(ev)
            return ev
        key = (src, tag)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        bucket.append((self._posted, ev))
        self._posted += 1
        self._pending[ev] = key
        return ev

    def pending_receives(self) -> list[Event]:
        """The events of the receives still pending, in posting order."""
        return list(self._pending)

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending receive in O(1) amortized."""
        key = self._pending.pop(get_event, None)
        if key is None:
            return False
        self._sweep_bucket(key)  # drops it if it headed its bucket
        return True
