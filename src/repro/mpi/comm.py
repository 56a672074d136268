"""Communicators, ranks, and point-to-point messaging.

Matching semantics follow MPI: a receive names ``(source, tag)`` within
one communicator; either may be a wildcard.  Matching is FIFO over the
arrival order at the receiver, which preserves the non-overtaking rule
on a fabric that delivers every message.

Protocol model: *eager*.  A send charges a per-message software overhead
plus the fabric transfer time (VCI-contended), then the message lands in
the receiver's matching queue.  The sender never blocks on the receiver;
this matches how MPICH handles the small-to-medium control messages the
OMPC event system exchanges, and the bulk-data sends in our workloads
are always pre-posted on the receive side.  A fire-and-forget send runs
no simulator process: it is a chain of event callbacks (overhead timer,
fabric transfer, drop check, enqueue) ending in its request's event.

Reliable transport
------------------
A clean fabric delivers every message, so the default path is
fire-and-forget.  When the cluster carries a lossy
:class:`~repro.core.faultmodel.FaultPlan`, construct the world with a
:class:`TransportConfig`: point-to-point sends then carry their
per-(comm, src, dst) sequence number end to end, the receiving NIC
acknowledges each delivery, and the sender retransmits on an exponential
-backoff timer until acked or a configurable retry cap is exceeded.
Duplicates created by lost acks are suppressed at the receiver, which
keeps per ``(src, dst)`` pair a low watermark (every seq below it was
delivered) and the delivered seqs above it: the set holds only copies
that overtook a retransmission, so dedup state stays bounded by the
sends still in flight.  Retransmissions and acks travel through the same
VCI-contended fabric as first transmissions, so loss costs simulated
time rather than correctness.  Under loss, retransmitted messages may
arrive after later first-try messages — the non-overtaking guarantee is
relaxed to what an unordered reliable datagram transport provides, which
every consumer in this codebase tolerates (matching is tag-isolated).
Acks model NIC-level delivery receipts: a crashed node's queue still
acks (the origin detects death through the §3.1 failure machinery, not
through transport timeouts).

Like a fire-and-forget send, a reliable send runs no simulator process.
A :class:`_ReliableSend` is the request's event and a callback chain:
each attempt is a fabric transfer whose arrival runs the drop check,
dedup and enqueue, and starts an :class:`_Ack` — itself a transfer back
whose arrival, unless dropped, acks the send.  Each attempt's
retransmission deadline (arrival time + ``rto``) goes on one
:class:`~repro.sim.primitives.DeadlineQueue` per :class:`MpiWorld`; an
acked send's entry is dropped lazily, and a single timer serves the
earliest live deadline, so a send that is acked in time costs no timer
event.  Due
deadlines expire in ``(deadline, arm order)`` order, the order
per-attempt timers would fire in.  An ack that comes back while a
retransmission is in flight completes the send when that copy arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.hooks import NULL_ANALYSIS
from repro.cluster.machine import Cluster
from repro.mpi.datatypes import Message
from repro.mpi.errors import MpiError
from repro.mpi.matchtable import MatchStore
from repro.mpi.request import Request
from repro.sim.core import _PENDING, Event
from repro.sim.primitives import DeadlineQueue
from repro.util.units import MICROSECOND


#: Receive-source wildcard (``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Receive-tag wildcard (``MPI_ANY_TAG``).
ANY_TAG = -1

_INF = float("inf")


@dataclass(frozen=True)
class TransportConfig:
    """Parameters of the reliable (ack + retransmit) transport.

    ``rto`` is the *base* retransmission timeout added on top of an
    estimate of the message's own uncontended round trip (so bulk
    messages do not spuriously retransmit merely because they serialize
    longer than small ones); each retry multiplies the base by
    ``backoff``.  Exceeding ``max_retries`` raises :class:`MpiError` —
    the fabric is considered broken, not merely lossy.
    """

    ack_bytes: float = 16.0
    rto: float = 100.0 * MICROSECOND
    backoff: float = 2.0
    max_retries: int = 16

    def __post_init__(self) -> None:
        # Chained comparisons, as the kernel guards: each also rejects
        # NaN, which would otherwise stop retransmission silently.
        if not 0.0 <= self.ack_bytes < _INF:
            raise ValueError(
                f"ack_bytes must be finite and >= 0, got {self.ack_bytes!r}")
        if not 0.0 < self.rto < _INF:
            raise ValueError(f"rto must be finite and > 0, got {self.rto!r}")
        if not 1.0 <= self.backoff < _INF:
            raise ValueError(
                f"backoff must be finite and >= 1, got {self.backoff!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class MpiWorld:
    """All MPI state for one cluster: ranks, queues, communicators.

    ``overhead`` is the per-message software cost (matching, packing,
    progress-engine work) charged on the sending side; 0.5 µs is in line
    with measured MPICH/UCX small-message overheads.  ``transport``
    enables the reliable ack/retransmit protocol on every communicator
    that does not opt out (see :meth:`new_communicator`).
    """

    def __init__(
        self,
        cluster: Cluster,
        overhead: float = 0.5 * MICROSECOND,
        transport: TransportConfig | None = None,
    ):
        if overhead < 0:
            raise ValueError("overhead must be >= 0")
        self.cluster = cluster
        self.sim = cluster.sim
        #: The fabric every send crosses (the cluster's, or a job view's).
        self.network = cluster.network
        #: Ranks in the world: one per node (a cluster never resizes).
        self.size = cluster.num_nodes
        self.overhead = overhead
        self.transport = transport
        #: Observability sink, captured from the cluster at construction
        #: (install an observer via ``Cluster.install_observer`` first).
        self.obs = cluster.obs
        #: Correctness-analysis sink, captured likewise (install via
        #: ``Cluster.install_analysis`` before constructing the world).
        self.analysis = getattr(cluster, "analysis", NULL_ANALYSIS)
        #: Transport-level counters (drops seen, retransmissions, acks,
        #: duplicate deliveries suppressed).
        self.stats: dict[str, int] = {
            "drops": 0, "retransmissions": 0, "acks": 0, "duplicates": 0,
        }
        #: Retransmit deadlines of every reliable send in the world,
        #: expired in ``(deadline, arm order)`` order, the order
        #: per-send timers would have fired in.
        self._rto = DeadlineQueue(self.sim, _ReliableSend.expire)
        self._next_comm_id = 0
        # Matching queues are per (rank, comm); one MatchStore per pair,
        # so traffic on one communicator never scans another's.  A store
        # exists only while it holds a buffered message or a pending
        # receive: the operation that finds no store for its pair builds
        # one, and the one that drains it drops it.  A later operation
        # on the pair builds a fresh store of the same name, so event
        # names do not change; a store's arrival and posting counters
        # only order entries it holds.
        self._queues: dict[tuple[int, int], MatchStore] = {}
        self.world = self.new_communicator()

    def new_communicator(
        self, reliable: bool | None = None, service: bool = False,
    ) -> "Communicator":
        """Create a communicator.

        ``reliable=False`` opts this communicator out of the world's
        reliable transport even when one is configured — datagram
        semantics for traffic whose loss is handled at the protocol
        level (heartbeats).  ``None`` inherits the world default.

        ``service=True`` marks infrastructure traffic (heartbeats,
        pings, head-log replication): the MPI checker skips it entirely
        — persistent service loops legitimately hold pending receives
        at shutdown, and datagrams are lost by design, so auditing them
        would only produce noise.
        """
        transport = self.transport if reliable is not False else None
        comm = Communicator(self, self._next_comm_id, transport, service)
        self.analysis.mpi.register_comm(comm.comm_id, service)
        self._next_comm_id += 1
        return comm

    def close(self) -> None:
        """The world's run is over: unlink what refers back to this
        world, so reference counting frees it.  That is :attr:`world`,
        and the waiters of every receive still pending (a failed node's
        gate, a stopped detector's listener), each holding a
        communicator of this world; a message that matches one later
        still fires its event, which wakes nothing of the ended run."""
        self.world = None
        for store in self._queues.values():
            for get in store.pending_receives():
                get.callbacks.clear()

    def _deliver(self, msg: Message) -> None:
        """Enqueue ``msg`` at its receiver."""
        key = (msg.dst, msg.comm_id)
        queues = self._queues
        store = queues.get(key)
        if store is None:
            # A fresh store has no receive to match: it buffers msg.
            queues[key] = store = MatchStore(
                self.sim, name=f"mpi.q{msg.dst}.c{msg.comm_id}")
            store.put_nowait(msg)
            return
        store.put_nowait(msg)
        if store.drained:
            del queues[key]

    def _dropped(self, src: int, dst: int) -> bool:
        """Consult the installed fault plan for one drop decision."""
        faults = self.network.faults
        if faults is None or src == dst:
            return False
        if faults.drops(src, dst):
            self.stats["drops"] += 1
            return True
        return False


class Communicator:
    """An isolated message-matching context (like ``MPI_Comm``).

    ``_isend`` and ``_irecv`` take the calling rank explicitly: a
    :class:`Rank` binds it, and the event system, whose ranks are its
    node ids, calls them directly.  Both check every rank they are
    given inline.
    """

    def __init__(
        self,
        mpi: MpiWorld,
        comm_id: int,
        transport: TransportConfig | None = None,
        service: bool = False,
    ):
        self.mpi = mpi
        self.comm_id = comm_id
        self.transport = transport
        self.service = service
        #: Next sequence number per (src, dst).
        self._send_seq: dict[tuple[int, int], int] = {}
        #: Reliable-mode dedup per (src, dst): every seq below the low
        #: watermark was delivered, and ``_ooo`` holds the delivered
        #: seqs above it (deleted when the watermark catches up).
        self._low: dict[tuple[int, int], int] = {}
        self._ooo: dict[tuple[int, int], set[int]] = {}

    def rank(self, rank_id: int) -> "Rank":
        """Bind a rank identity for issuing operations."""
        if not 0 <= rank_id < self.mpi.size:
            self._check_rank(rank_id)
        return Rank(self, rank_id)

    def dup(self) -> "Communicator":
        """Duplicate: a new communicator over the same group."""
        return self.mpi.new_communicator(
            reliable=self.transport is not None if self.mpi.transport else None,
            service=self.service,
        )

    def _check_rank(self, rank_id: int) -> None:
        size = self.mpi.size
        if not 0 <= rank_id < size:
            raise MpiError(f"rank {rank_id} out of range [0, {size})")

    # -- point-to-point --------------------------------------------------------
    def _message(self, src: int, dst: int, payload: Any, nbytes: float,
                 tag: int) -> Message:
        """Check a send and stamp its next ``(src, dst)`` sequence number."""
        size = self.mpi.size
        if not (0 <= src < size and 0 <= dst < size):
            self._check_rank(src)
            self._check_rank(dst)
        if tag < 0:
            raise MpiError(f"send tag must be >= 0, got {tag}")
        pair = (src, dst)
        seq_of = self._send_seq
        seq = seq_of.get(pair, 0)
        seq_of[pair] = seq + 1
        return Message(self.comm_id, src, dst, tag, payload, nbytes, seq)

    def _isend(self, src: int, dst: int, payload: Any, nbytes: float, tag: int) -> Request:
        msg = self._message(src, dst, payload, nbytes, tag)
        mpi = self.mpi
        if self.transport is not None and src != dst:
            event = _ReliableSend(self, msg)
            event.transmit()
            request = Request(event, "send")
        else:
            request = _Send(mpi, msg)
        if mpi.analysis.enabled and not self.service:
            mpi.analysis.mpi.on_isend(request, self.comm_id, src, dst, tag)
        return request

    def _transport_accept(self, msg: Message, flow_id: int | None = None) -> None:
        """Receiver-side transport: suppress a duplicate or enqueue."""
        obs = self.mpi.obs
        enabled = obs.enabled
        pair = (msg.src, msg.dst)
        seq = msg.seq
        low = self._low.get(pair, 0)
        above = self._ooo.get(pair)
        if seq < low or (above is not None and seq in above):
            self.mpi.stats["duplicates"] += 1
            if enabled:
                obs.instant("mpi", f"dup t{msg.tag}", msg.dst, src=msg.src)
        else:
            if seq == low:
                low += 1
                while above and low in above:
                    above.remove(low)
                    low += 1
                if above is not None and not above:
                    del self._ooo[pair]
                self._low[pair] = low
            else:
                self._ooo.setdefault(pair, set()).add(seq)
            self.mpi._deliver(msg)
            if enabled:
                obs.instant(
                    "mpi", f"recv t{msg.tag}", msg.dst,
                    flow_id=flow_id,
                    flow_phase="f" if flow_id is not None else None,
                    src=msg.src,
                )

    def _irecv(self, dst: int, src: int, tag: int) -> Request:
        mpi = self.mpi
        size = mpi.size
        if not 0 <= dst < size:
            self._check_rank(dst)
        if src != ANY_SOURCE and not 0 <= src < size:
            self._check_rank(src)
        if tag < 0 and tag != ANY_TAG:
            raise MpiError(f"recv tag must be >= 0 or ANY_TAG, got {tag}")

        comm_id = self.comm_id
        key = (dst, comm_id)
        queues = mpi._queues
        store = queues.get(key)
        if store is None:
            # A fresh store has no message to match: it holds the receive.
            queues[key] = store = MatchStore(
                mpi.sim, name=f"mpi.q{dst}.c{comm_id}")
            get = store.get_match(src, tag)
        else:
            get = store.get_match(src, tag)
            # Only a receive that matched at once can drain the store.
            if get._value is not _PENDING and store.drained:
                del queues[key]
        request = _Recv(get, queues, key, store)
        if mpi.analysis.enabled and not self.service:
            mpi.analysis.mpi.on_irecv(request, comm_id, dst, src, tag)
        return request


class _Recv(Request):
    """A receive's request, which can withdraw the pending receive from
    its match store (and drop the store once that drains it)."""

    kind = "recv"

    def __init__(self, get: Event, queues: dict, key: tuple[int, int],
                 store: MatchStore):
        self._event = get
        self._queues = queues
        self._key = key
        self._store = store

    def _withdraw(self) -> bool:
        store = self._store
        withdrawn = store.cancel(self._event)
        queues = self._queues
        key = self._key
        if store.drained and queues.get(key) is store:
            del queues[key]
        return withdrawn


class _Send(Request):
    """One fire-and-forget send's request, which also runs the send:
    overhead and fabric transfer, then — as the arrival event's first
    waiter — drop check and enqueue.

    The arrival event is the request's event, so the send costs no
    simulator process and no generator frame; it runs once per
    point-to-point message, the hottest MPI path there is.
    """

    kind = "send"

    def __init__(self, mpi: MpiWorld, msg: Message):
        self.mpi = mpi
        self.msg = msg
        obs = mpi.obs
        self.span = obs.begin(
            "mpi", f"send t{msg.tag}", msg.src,
            dst=msg.dst, nbytes=msg.nbytes, seq=msg.seq,
        ) if obs.enabled else None
        arrival = self._event = mpi.network.start_transfer(
            msg.src, msg.dst, msg.nbytes, mpi.overhead
        )
        arrival.callbacks.append(self._arrive)

    def _arrive(self, _ev: Event) -> None:
        mpi = self.mpi
        msg = self.msg
        span = self.span
        if mpi.network.faults is not None and mpi._dropped(msg.src, msg.dst):
            # Lost in the fabric; fire-and-forget senders never know.
            if span is not None:
                mpi.obs.end(span, dropped=True)
            return
        if span is None:
            mpi._deliver(msg)
            return
        obs = mpi.obs
        flow = obs.new_flow()
        obs.end(span, flow_id=flow, flow_phase="s")
        mpi._deliver(msg)
        obs.instant(
            "mpi", f"recv t{msg.tag}", msg.dst,
            flow_id=flow, flow_phase="f", src=msg.src,
        )


class _ReliableSend(Event):
    """One reliable send: the event its request waits on, which also
    carries the send's retransmission state.

    Each attempt is a fabric transfer (overhead, then flow).  On arrival
    the drop check runs; a copy that survives is deduplicated and
    enqueued at the receiver, which starts an :class:`_Ack` back.  Then
    the attempt's deadline (``now + rto``) goes on the world's
    retransmit queue.  The first ack that is not dropped completes the
    send; a deadline that expires first retransmits with ``rto``
    multiplied by ``backoff``, and one past ``max_retries`` fails the
    event with :class:`MpiError`.  No simulator process runs any of it.
    """

    __slots__ = ("comm", "msg", "rto", "attempt", "acked", "accepted",
                 "span", "due")

    def __init__(self, comm: Communicator, msg: Message):
        mpi = comm.mpi
        Event.__init__(self, mpi.sim, "reliable-send")
        self.comm = comm
        self.msg = msg
        tc = comm.transport
        # The wait window covers the ack's own uncontended round trip.
        self.rto = tc.rto + 2 * mpi.network.transfer_time(
            msg.dst, msg.src, tc.ack_bytes
        )
        self.attempt = 0
        #: Stamp of the live retransmit deadline (``MpiWorld._rto``).
        self.due = 0
        #: An ack came back while a retransmission was in flight: the
        #: send completes when that copy arrives.
        self.acked = False
        #: Some copy got through (only the first draws a flow arrow).
        self.accepted = False
        self.span = None

    def transmit(self) -> None:
        """Put the current attempt on the fabric."""
        msg = self.msg
        mpi = self.comm.mpi
        obs = mpi.obs
        if obs.enabled:
            self.span = obs.begin(
                "mpi", f"send t{msg.tag}", msg.src,
                dst=msg.dst, nbytes=msg.nbytes, seq=msg.seq,
                attempt=self.attempt,
            )
        arrival = mpi.network.start_transfer(
            msg.src, msg.dst, msg.nbytes, mpi.overhead
        )
        arrival.callbacks.append(self._arrive)

    def _arrive(self, _ev: Event) -> None:
        comm = self.comm
        mpi = comm.mpi
        msg = self.msg
        span = self.span
        obs = mpi.obs
        if not mpi._dropped(msg.src, msg.dst):
            flow = None
            if not self.accepted:
                self.accepted = True
                if span is not None:
                    flow = obs.new_flow()
            comm._transport_accept(msg, flow)
            if span is not None:
                obs.end(span, flow_id=flow,
                        flow_phase="s" if flow is not None else None)
            _Ack(self)
        elif span is not None:
            obs.end(span, dropped=True)
        if self.acked:
            self.succeed()  # an earlier copy's ack beat this copy home
        else:
            mpi._rto.add(mpi.sim._now + self.rto, 0, self)

    def on_ack(self) -> None:
        """An ack got through."""
        if self.triggered:
            return  # already acked (a duplicate's ack), or given up
        if self.comm.mpi._rto.cancel(self):
            self.succeed()
        else:
            self.acked = True

    def expire(self) -> None:
        """The retransmit deadline passed without an ack."""
        comm = self.comm
        mpi = comm.mpi
        tc = comm.transport
        if self.attempt == tc.max_retries:
            msg = self.msg
            exc = MpiError(
                f"reliable send {msg.src}->{msg.dst} seq={msg.seq} "
                f"tag={msg.tag} unacked after {tc.max_retries} retries"
            )
            if not self.callbacks:
                # Nobody waits: crash the run, as a failed process does.
                mpi.sim._crash = exc
            self.fail(exc)
            return
        self.rto *= tc.backoff
        self.attempt += 1
        mpi.stats["retransmissions"] += 1
        self.transmit()


class _Ack:
    """The ack of one delivered copy: a fabric transfer back to the
    sender whose arrival, unless dropped, acks the send."""

    __slots__ = ("send", "span")

    def __init__(self, send: _ReliableSend):
        self.send = send
        comm = send.comm
        mpi = comm.mpi
        msg = send.msg
        obs = mpi.obs
        self.span = obs.begin(
            "mpi", f"ack t{msg.tag}", msg.dst, dst=msg.src, seq=msg.seq
        ) if obs.enabled else None
        arrival = mpi.network.start_transfer(
            msg.dst, msg.src, comm.transport.ack_bytes, mpi.overhead
        )
        arrival.callbacks.append(self._arrive)

    def _arrive(self, _ev: Event) -> None:
        send = self.send
        mpi = send.comm.mpi
        msg = send.msg
        mpi.stats["acks"] += 1
        dropped = mpi._dropped(msg.dst, msg.src)
        if self.span is not None:
            mpi.obs.end(self.span, dropped=dropped)
        if not dropped:
            send.on_ack()


class Rank:
    """A rank identity bound to one communicator.

    All methods that move data are generators (``yield from``) or return
    :class:`Request` handles; they must be driven from inside a sim
    process running "on" the corresponding node.
    """

    __slots__ = ("comm", "rank_id")

    def __init__(self, comm: Communicator, rank_id: int):
        self.comm = comm
        self.rank_id = rank_id

    def on(self, comm: Communicator) -> "Rank":
        """This same rank identity on a different communicator."""
        return comm.rank(self.rank_id)

    # -- nonblocking -------------------------------------------------------
    def isend(self, dst: int, payload: Any, nbytes: float = 0.0, tag: int = 0) -> Request:
        return self.comm._isend(self.rank_id, dst, payload, nbytes, tag)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return self.comm._irecv(self.rank_id, src, tag)

    # -- blocking (generators) ------------------------------------------------
    def send(self, dst: int, payload: Any, nbytes: float = 0.0, tag: int = 0):
        """Generator: send and wait for local completion."""
        yield from self.comm._isend(self.rank_id, dst, payload, nbytes,
                                    tag).wait()

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: receive the next matching message (returns it)."""
        return (yield from self.comm._irecv(self.rank_id, src, tag).wait())
