"""The reference reliable transport: the oracle of the transport test.

The production transport (:mod:`repro.mpi.comm`) runs a reliable send
and its acks as callback chains, with every retransmit deadline on one
heap per :class:`~repro.mpi.comm.MpiWorld`.  It promises the timing of
the generator transport kept here, exactly:

* one simulator process per reliable send loops over attempts: software
  overhead, fabric transfer, drop check, dedup and enqueue at the
  receiver, then a race between the ack and a per-attempt
  retransmission timeout (``AnyOf``);
* one simulator process per delivered copy sends the ack back over the
  fabric; the first ack that is not dropped completes the send.

:func:`reference_transport` installs it with ``monkeypatch`` for the
duration of a block.  Only the reliable path is swapped: plain sends,
receives, matching, drop decisions, the fabric, and the transport's
sequence numbering and receiver dedup (``Communicator._message`` and
``_transport_accept``) are the production code in both runs.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.mpi.comm import Communicator
from repro.mpi.errors import MpiError
from repro.mpi.request import Request
from repro.sim.primitives import AnyOf

_production_init = Communicator.__init__
_production_isend = Communicator._isend


def _init(self, mpi, comm_id, transport=None, service=False):
    _production_init(self, mpi, comm_id, transport, service)
    #: Pending ack events keyed by (src, dst, seq).
    self._ack_waiters = {}


def _isend(self, src, dst, payload, nbytes, tag):
    if self.transport is None or src == dst:
        return _production_isend(self, src, dst, payload, nbytes, tag)
    msg = self._message(src, dst, payload, nbytes, tag)
    event = self.mpi.sim.process(
        _deliver_reliable(self, msg), name=f"isend:{src}->{dst}:t{tag}"
    )
    request = Request(event, "send")
    if self.mpi.analysis.enabled and not self.service:
        self.mpi.analysis.mpi.on_isend(request, self.comm_id, src, dst, tag)
    return request


def _deliver_reliable(comm, msg):
    """Generator: send with ack + exponential-backoff retransmission."""
    mpi = comm.mpi
    sim = mpi.sim
    obs = mpi.obs
    enabled = obs.enabled
    tc = comm.transport
    net = mpi.cluster.network
    key = (msg.src, msg.dst, msg.seq)
    ack = sim.event(f"mpi-ack:{key}")
    comm._ack_waiters[key] = ack
    # The wait window covers the ack's own uncontended round trip.
    rto = tc.rto + 2 * net.transfer_time(msg.dst, msg.src, tc.ack_bytes)
    flow = None
    accepted_once = False
    try:
        for attempt in range(tc.max_retries + 1):
            if attempt:
                mpi.stats["retransmissions"] += 1
            if enabled:
                open_span = obs.begin(
                    "mpi", f"send t{msg.tag}", msg.src,
                    dst=msg.dst, nbytes=msg.nbytes, seq=msg.seq,
                    attempt=attempt,
                )
            if mpi.overhead:
                yield sim.timeout(mpi.overhead)
            yield from net.transfer(msg.src, msg.dst, msg.nbytes)
            if not mpi._dropped(msg.src, msg.dst):
                fresh = not accepted_once
                accepted_once = True
                if fresh and enabled:
                    flow = obs.new_flow()
                _accept(comm, msg, flow if fresh else None)
                if enabled:
                    obs.end(
                        open_span,
                        flow_id=flow if fresh else None,
                        flow_phase="s" if fresh else None,
                    )
            elif enabled:
                obs.end(open_span, dropped=True)
            if ack.triggered:
                return
            yield AnyOf(sim, [ack, sim.timeout(rto)])
            if ack.triggered:
                return
            rto *= tc.backoff
        raise MpiError(
            f"reliable send {msg.src}->{msg.dst} seq={msg.seq} "
            f"tag={msg.tag} unacked after {tc.max_retries} retries"
        )
    finally:
        comm._ack_waiters.pop(key, None)


def _accept(comm, msg, flow_id):
    """Receiver side: the production dedup and enqueue, then spawn the
    ack process."""
    mpi = comm.mpi
    comm._transport_accept(msg, flow_id)
    mpi.sim.process(_send_ack(comm, msg), name=f"mpi-ack:{msg.dst}->{msg.src}")


def _send_ack(comm, msg):
    mpi = comm.mpi
    sim = mpi.sim
    obs = mpi.obs
    enabled = obs.enabled
    if enabled:
        open_span = obs.begin(
            "mpi", f"ack t{msg.tag}", msg.dst, dst=msg.src, seq=msg.seq
        )
    if mpi.overhead:
        yield sim.timeout(mpi.overhead)
    yield from mpi.cluster.network.transfer(
        msg.dst, msg.src, comm.transport.ack_bytes
    )
    mpi.stats["acks"] += 1
    dropped = mpi._dropped(msg.dst, msg.src)
    if enabled:
        obs.end(open_span, dropped=dropped)
    if dropped:
        return  # the ack itself was lost; the sender will retransmit
    ack = comm._ack_waiters.get((msg.src, msg.dst, msg.seq))
    if ack is not None and not ack.triggered:
        ack.succeed()


@contextmanager
def reference_transport():
    """Run the block on the reference (generator) transport."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Communicator, "__init__", _init)
        mp.setattr(Communicator, "_isend", _isend)
        yield
