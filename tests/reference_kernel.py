"""The reference simulation kernel: the oracle of the digest tests.

The production kernel (:class:`repro.sim.core.Simulator` plus the
slotted :class:`repro.mpi.matchtable.MatchStore`) promises exactly the
event stream of the plain textbook kernel kept here:

* every event, including one scheduled *now*, goes through a single
  binary heap (no FIFO lane for same-time NORMAL events);
* every MPI receive is a predicate scan over a plain
  :class:`~repro.sim.resources.Store` (no ``(src, tag)`` slots).

:func:`reference_kernel` installs both with ``monkeypatch`` for the
duration of a block, so a test can run one scenario on each kernel and
compare event-order digests; :func:`kernel` picks one by flag.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager, nullcontext

import pytest

from repro.mpi import comm
from repro.mpi.comm import ANY_SOURCE, ANY_TAG
from repro.sim.core import NORMAL, Event, Simulator
from repro.sim.resources import Store

_INF = float("inf")


def _schedule(self, event, delay=0.0, priority=NORMAL):
    if delay != 0.0 and not 0.0 < delay < _INF:
        raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
    seq = self._seq
    self._seq = seq + 1
    heapq.heappush(self._heap, (self._now + delay, priority, seq, event))


def _timeout(self, delay, value=None):
    if not 0.0 <= delay < _INF:
        raise ValueError(f"bad delay {delay!r}")
    ev = Event(self, "timeout")
    ev._value = value
    _schedule(self, ev, delay)
    return ev


class ScanStore(Store):
    """MPI matching as a predicate scan over every buffered message."""

    def get_match(self, src, tag):
        def match(msg):
            return ((src == ANY_SOURCE or msg.src == src)
                    and (tag == ANY_TAG or msg.tag == tag))

        return self.get(match)

    @property
    def drained(self):
        """True while no message is buffered and no receive pending."""
        return not self._items and not self._getters

    def pending_receives(self):
        return [ev for ev, _match in self._getters]


@contextmanager
def reference_kernel():
    """Run the block on the reference kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "_schedule", _schedule)
        mp.setattr(Simulator, "timeout", _timeout)
        mp.setattr(comm, "MatchStore", ScanStore)
        yield


def kernel(fastpath: bool):
    """The production kernel (``fastpath``) or the reference one."""
    return nullcontext() if fastpath else reference_kernel()
