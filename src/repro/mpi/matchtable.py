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
* ``cancel`` is lazy O(1): withdrawn receives are dropped from the
  pending set and swept from bucket heads on the next match attempt
  (every failure-detector ping that goes unanswered cancels its
  receive, which makes an O(getters) scan a hot path under fault storms).

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
from repro.sim.resources import Store

#: Wildcards (mirrors :data:`repro.mpi.comm.ANY_SOURCE` / ``ANY_TAG``
#: without a circular import).
_ANY = -1


class MatchStore(Store):
    """A Store specialized for MPI ``(src, tag)`` matching.

    Only the unbounded form is supported (MPI matching queues are never
    bounded), and receives must be posted through :meth:`get_match`;
    the generic predicate :meth:`get` is disabled so an accidental
    fallback to linear matching cannot hide here.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, capacity=None, name=name)
        #: Buffered messages per (src, tag), as (arrival_seq, msg).
        self._slots: dict[tuple[int, int], deque[tuple[int, Any]]] = {}
        #: Per-tag arrival FIFO of (arrival_seq, slot_key).  An
        #: ``ANY_SOURCE``-by-tag receive pops this instead of scanning
        #: every live ``(src, tag)`` slot: with N sources fanning in on
        #: one tag (the event system's drain pattern) the slot scan is
        #: O(N) per receive — O(N^2) per drain.  Entries whose message
        #: was consumed by another pattern are discarded lazily; within
        #: one slot arrivals strictly increase, so the first live entry
        #: is the tag's global earliest arrival — the same message the
        #: scan would pick, keeping the digest tests bit-identical.
        self._tag_fifo: dict[int, deque[tuple[int, tuple[int, int]]]] = {}
        self._arrival = 0
        #: Pending receives per pattern, as (post_seq, event, key).
        self._g_exact: dict[tuple[int, int], deque[tuple[int, Event]]] = {}
        self._g_bytag: dict[int, deque[tuple[int, Event]]] = {}
        self._g_bysrc: dict[int, deque[tuple[int, Event]]] = {}
        self._g_any: deque[tuple[int, Event]] = deque()
        self._posted = 0
        #: Receives still pending (drives O(1) cancel; bucket entries
        #: missing from this set were cancelled and are swept lazily).
        self._pending: set[Event] = set()
        self._n_items = 0

    # -- Store API kept coherent ------------------------------------------
    def __len__(self) -> int:
        return self._n_items

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
    def _live_head(self, bucket: deque[tuple[int, Event]] | None):
        """First non-cancelled entry of a bucket (sweeping stale heads)."""
        if not bucket:
            return None
        pending = self._pending
        while bucket:
            entry = bucket[0]
            if entry[1] in pending:
                return entry
            bucket.popleft()  # cancelled; swept lazily
        return None

    def put(self, item: Any) -> Event:
        ev = self.sim.event(self._put_name)
        ev._value = item  # inlined succeed() on a fresh event
        self.sim._schedule(ev)
        self.put_nowait(item)
        return ev

    def put_nowait(self, item: Any) -> None:
        """Deliver ``item`` to the earliest-posted matching receive, or
        buffer it; no put event (the sender never waits on one)."""
        src = item.src
        tag = item.tag
        # Earliest-posted pending receive among the four pattern buckets.
        best = self._live_head(self._g_exact.get((src, tag)))
        best_bucket = None
        cand = self._live_head(self._g_bytag.get(tag))
        if cand is not None and (best is None or cand[0] < best[0]):
            best, best_bucket = cand, self._g_bytag[tag]
        cand = self._live_head(self._g_bysrc.get(src))
        if cand is not None and (best is None or cand[0] < best[0]):
            best, best_bucket = cand, self._g_bysrc[src]
        cand = self._live_head(self._g_any)
        if cand is not None and (best is None or cand[0] < best[0]):
            best, best_bucket = cand, self._g_any
        if best is not None:
            if best_bucket is None:
                best_bucket = self._g_exact[(src, tag)]
            best_bucket.popleft()
            gev = best[1]
            self._pending.discard(gev)
            gev._value = item
            self.sim._schedule(gev)
        else:
            slot = self._slots.get((src, tag))
            if slot is None:
                slot = deque()
                self._slots[(src, tag)] = slot
            slot.append((self._arrival, item))
            fifo = self._tag_fifo.get(tag)
            if fifo is None:
                fifo = deque()
                self._tag_fifo[tag] = fifo
            fifo.append((self._arrival, (src, tag)))
            self._arrival += 1
            self._n_items += 1

    def get_match(self, src: int, tag: int) -> Event:
        """Post a receive for ``(src, tag)`` (either may be ``-1``/ANY)."""
        ev = self.sim.event(self._get_name)
        # Earliest-arrival buffered message matching the pattern.
        best_key: tuple[int, int] | None = None
        best_arr = -1
        if src != _ANY and tag != _ANY:
            slot = self._slots.get((src, tag))
            if slot:
                best_key = (src, tag)
                best_arr = slot[0][0]
        elif src == _ANY and tag != _ANY:
            # ANY_SOURCE by tag: pop the per-tag arrival FIFO instead
            # of scanning every live slot.  Entries are stale when the
            # slot is gone or its head arrival moved past the recorded
            # one (consumed by an exact / by-src / fully-wild receive);
            # the first live entry is the tag's earliest arrival.
            fifo = self._tag_fifo.get(tag)
            while fifo:
                arr, key = fifo[0]
                slot = self._slots.get(key)
                if slot is not None and slot[0][0] == arr:
                    fifo.popleft()
                    best_key = key
                    best_arr = arr
                    break
                fifo.popleft()  # stale: message already consumed
            if fifo is not None and not fifo:
                del self._tag_fifo[tag]
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
            self._n_items -= 1
            ev._value = item  # inlined succeed()
            self.sim._schedule(ev)
            return ev
        entry = (self._posted, ev)
        self._posted += 1
        self._pending.add(ev)
        if src != _ANY and tag != _ANY:
            bucket = self._g_exact.get((src, tag))
            if bucket is None:
                bucket = deque()
                self._g_exact[(src, tag)] = bucket
            bucket.append(entry)
        elif src == _ANY and tag != _ANY:
            bucket = self._g_bytag.get(tag)
            if bucket is None:
                bucket = deque()
                self._g_bytag[tag] = bucket
            bucket.append(entry)
        elif src != _ANY:
            bucket = self._g_bysrc.get(src)
            if bucket is None:
                bucket = deque()
                self._g_bysrc[src] = bucket
            bucket.append(entry)
        else:
            self._g_any.append(entry)
        return ev

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending receive in O(1) (lazy bucket sweep)."""
        if get_event in self._pending:
            self._pending.discard(get_event)
            return True
        return False
