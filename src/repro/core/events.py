"""The MPI-based distributed event system (§4.2, Fig. 3).

Events are logical units that encapsulate multiple MPI messages.  Every
event has an *origin* half (usually on the head node) and a
*destination* half (on a worker).  The flow mirrors Fig. 3:

1. the origin thread creates the event, drawing a unique MPI tag from
   its :class:`~repro.core.tags.TagAllocator` and selecting a data
   communicator from the round-robin pool by tag;
2. a small *new-event notification* goes to the destination process on
   the control communicator;
3. the destination's **gate** receives the notification and hands the
   destination half to a free **event handler**, or queues it for one;
4. the handler executes it, exchanging payload messages with the origin
   on ``(comm, tag)`` — the tag plus the rank pair form an exclusive
   channel;
5. a completion notification unblocks the origin.

Fig. 3's gate thread and handler threads run no simulator process here.
A node's gate is one standing receive for ``NOTIFY_TAG`` on the control
communicator, whose callback re-posts it and dispatches the
notification.  Its handler pool is a slot pool, a
:class:`~repro.sim.resources.Resource` of ``EVENT_HANDLERS`` slots that
exists while the node has events pending.  A notification takes a free
slot or queues for one in arrival order, pays
``event_handler_overhead``, and runs its type's body as a callback chain
(:class:`_Chain`) that ends in the completion send and frees the slot.
An idle node thus holds nothing of the event system but its posted
receive.

Event types map one-to-one to the functions a libomptarget device
plugin must implement (§4.2): memory allocation and removal, data
submission and retrieval, indirect worker-to-worker forwarding, and
target-region execution.  ``BROADCAST`` implements the §7 one-to-many
extension; ``EXIT`` tears the system down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.hooks import NULL_ANALYSIS
from repro.cluster.machine import Cluster
from repro.core.config import OMPCConfig
from repro.core.memory import DeviceMemory
from repro.core.tags import NOTIFY_TAG, TagAllocator
from repro.mpi.comm import ANY_SOURCE, Communicator, MpiWorld
from repro.mpi.request import Request
from repro.mpi.vci import CommunicatorPool
from repro.omp.task import Task
from repro.sim.core import Event, Simulator
from repro.sim.errors import SimulationError
from repro.sim.primitives import AnyOf
from repro.sim.resources import Resource


class EventType(enum.Enum):
    """Actions the event system can perform between nodes."""

    ALLOC = "alloc"
    DELETE = "delete"
    SUBMIT = "submit"
    RETRIEVE = "retrieve"
    EXCHANGE_SRC = "exchange_src"
    EXCHANGE_DST = "exchange_dst"
    EXECUTE = "execute"
    BROADCAST = "broadcast"
    EXIT = "exit"


@dataclass(frozen=True)
class Notification:
    """The new-event notification delivered to a gate thread."""

    event_type: EventType
    tag: int
    origin: int
    info: dict = field(default_factory=dict)


#: Event-handler threads per node (§4.2, Fig. 3).  The default HEFT
#: models each worker's concurrent-execution capacity with it.
EVENT_HANDLERS = 4
#: Size of the duplicated-communicator pool used round-robin by event
#: tag to exploit MPICH VCIs (§4.2; the paper compiles MPICH for up to
#: 64 VCIs, §6.1).  The pool size changes no simulated time or event
#: count; per-NIC channel concurrency is ``NetworkSpec.vcis``.
NUM_COMMS = 8
#: Control-message sizes of the event protocol, in bytes: the new-event
#: notification, the completion, and a target region's parameters.
NOTIFICATION_BYTES = 64.0
COMPLETION_BYTES = 32.0
PARAMS_BYTES = 256.0
#: Page granularity of ``write_detection="page_protect"`` (§7): every
#: touched page of a written buffer costs one write fault.
PAGE_SIZE = 4096

#: Interned per-type counter keys for the handler hot path.
_EVENT_COUNT_KEY = {t: f"ompc.events.{t.value}" for t in EventType}


class EventSystem:
    """Event machinery across all cluster nodes plus the origin API.

    The head node (rank ``origin``, default 0) drives workers through
    the origin-side generator methods (:meth:`alloc`, :meth:`submit`,
    :meth:`retrieve`, :meth:`exchange`, :meth:`execute`, ...).  Every
    node's gate (a standing receive) and handler pool (a slot pool)
    serve the destination halves as callback chains.
    """

    def __init__(
        self,
        cluster: Cluster,
        mpi: MpiWorld,
        config: OMPCConfig,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.mpi = mpi
        self.config = config
        #: The cluster's recorder, captured at construction (install a
        #: traced one via ``Cluster.install_observer`` first).
        self.obs = cluster.obs
        #: Correctness-analysis sink, captured likewise (install via
        #: ``Cluster.install_analysis`` before building the system).
        self.analysis = getattr(cluster, "analysis", NULL_ANALYSIS)

        #: Control communicator carrying notifications only.
        self.control: Communicator = mpi.new_communicator()
        #: Data communicators, selected round-robin by event tag (VCIs).
        self.pool = CommunicatorPool(mpi, NUM_COMMS)
        self.tags = TagAllocator()
        #: Per-node mapped-buffer tables (the "device memory").
        capacity = config.device_memory_bytes or None
        self.memories = [
            DeviceMemory(i, capacity_bytes=capacity)
            for i in range(cluster.num_nodes)
        ]

        #: Handler pools of the nodes with events pending, dropped when
        #: their node goes idle.
        self._pools: dict[int, _HandlerPool] = {}
        #: Per-node events that fire on receipt of EXIT (armed by
        #: :meth:`shutdown`) or on the node's failure.
        self._exits: dict[int, Event] = {}
        self._started = False
        self._first_event_done = False
        self._failed: set[int] = set()
        self._failure_events: dict[int, object] = {}
        #: (task_id, attempt) pairs whose kernel launch was revoked
        #: (straggler speculation: the other attempt already won).
        self._cancelled_execs: set[tuple[int, int]] = set()
        #: Per-node idempotence state for head failover: task ids this
        #: node executed and no log committed yet (dedup table), EXECUTEs
        #: currently running (so a re-issued dispatch serializes behind
        #: the original instead of double-applying an in-place kernel),
        #: and the newest head epoch seen (fences zombie dispatches from
        #: a deposed head).
        n = cluster.num_nodes
        self._exec_done: list[set[int]] = [set() for _ in range(n)]
        self._exec_inflight: list[dict[int, Any]] = [{} for _ in range(n)]
        self._node_epoch: list[int] = [0] * n
        #: The run's failure sink: a handler hands it the
        #: ``SimulationError`` of a worker-side event (a device memory
        #: overflow, say), so the error fails that run only.  ``None``
        #: lets the error abort the simulator.
        self.on_error = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open every node's gate: post its standing notification receive."""
        if self._started:
            raise RuntimeError("event system already started")
        self._started = True
        for node_id in range(self.cluster.num_nodes):
            self._post_gate(node_id)

    def shutdown(self, origin: int = 0):
        """Generator: send every live node EXIT and wait until each has
        received it, which closes its gate.

        All in-flight events must already be complete (the runtime waits
        for the task graph before shutting down).  Failed nodes are
        skipped — their machinery is already dead — and a node that
        fails meanwhile counts as stopped.
        """
        control = self.control
        exits = self._exits
        for node_id in range(self.cluster.num_nodes):
            if node_id in self._failed:
                continue
            exits[node_id] = self.sim.event(f"exit{node_id}")
            note = Notification(EventType.EXIT, 0, origin)
            yield from control._isend(
                origin, node_id, note, NOTIFICATION_BYTES, NOTIFY_TAG
            ).wait()
        for node_id in range(self.cluster.num_nodes):
            exit_ev = exits.get(node_id)
            if exit_ev is not None and node_id not in self._failed:
                yield exit_ev
        exits.clear()

    # ------------------------------------------------------------------
    # failures (§3.1 fault tolerance)
    # ------------------------------------------------------------------
    def node_failed(self, node_id: int) -> bool:
        return node_id in self._failed

    @property
    def failed_nodes(self) -> frozenset[int]:
        """Every node that has crashed (or been aborted) so far."""
        return frozenset(self._failed)

    def abort(self) -> None:
        """Tear the machinery down: fail every live node.

        A run that ends in an error (or a workload manager's preemption
        interrupt) calls this so a shared simulation is not left with
        event chains still running, or device slots still held, on its
        nodes.  Before :meth:`start` there is nothing to tear down, and
        this is a no-op.
        """
        if not self._started:
            return
        for node_id in range(self.cluster.num_nodes):
            if node_id not in self._failed:
                self.fail_node(node_id)

    def failure_event(self, node_id: int):
        """An event that fires if/when ``node_id`` crashes.

        Origins race their completion waits against this so a crash
        mid-event does not strand the head node.
        """
        ev = self._failure_events.get(node_id)
        if ev is None:
            ev = self.sim.event(f"failure:{node_id}")
            self._failure_events[node_id] = ev
        return ev

    def race_failure(self, waits: list, nodes):
        """The race of ``waits`` against any of ``nodes`` crashing: an
        event that fires with the first of them (check which with
        ``triggered``/``node_failed``).

        When the race fires, its callback is removed from the failure
        events that have not, so a live node's failure event holds only
        races still pending — also when the waiter was interrupted and
        an operation resolves the race later.  The ``waits`` keep
        theirs: detaching from an operation's process would leave a
        failing process with no waiter, which crashes the run instead
        of reporting it.
        """
        fails = [self.failure_event(n) for n in nodes]
        race = AnyOf(self.sim, waits + fails)

        def detach(_race) -> None:
            on_child = race._on_child
            for ev in fails:
                if ev.callbacks is not None:
                    ev.callbacks.remove(on_child)

        race.callbacks.append(detach)
        return race

    def cancel_execution(self, task_id: int, attempt: int) -> None:
        """Revoke a speculative EXECUTE attempt's side effects.

        The worker still spends the compute time it already committed to
        (the simulation cannot un-run a kernel's occupancy), but the
        task function itself is not applied, so a late-finishing losing
        attempt can never clobber buffers its winner (or the winner's
        successors) produced.
        """
        self._cancelled_execs.add((task_id, attempt))

    def forget_execution(self, node_id: int, task_id: int) -> None:
        """A log committed ``task_id``'s completion: no head re-issues it."""
        self._exec_done[node_id].discard(task_id)

    def fail_node(self, node_id: int) -> None:
        """Crash a node: stop its event chains, lose its memory.

        A stopped chain sends no completion, writes nothing into the
        wiped memory and holds no slot; the node's gate ignores any
        later notification.

        Any node may fail, including the head (node 0): the
        fault-tolerant runtime replicates head state to standbys and
        fails over (see :mod:`repro.core.headlog`); without standbys a
        head crash is unrecoverable and surfaces as ``RecoveryError``.
        """
        if not self._started:
            raise RuntimeError("event system not started")
        if node_id in self._failed:
            return
        self._failed.add(node_id)
        self.memories[node_id].wipe()
        # The wipe zeroes resident_bytes; reset the gauge too, so a
        # co-located job's utilization report never shows ghost bytes
        # from a tenant that was aborted or preempted mid-run.
        self._mem_gauge(node_id, self.memories[node_id])
        pool = self._pools.pop(node_id, None)
        if pool is not None:
            for chain in list(pool.chains):
                chain.stop(pool)
        exit_ev = self._exits.get(node_id)
        if exit_ev is not None and not exit_ev.triggered:
            exit_ev.succeed()
        self.obs.count("ompc.node_failures")
        ev = self.failure_event(node_id)
        if not ev.triggered:
            ev.succeed(node_id)

    # ------------------------------------------------------------------
    # destination side: the gate and the handler pool
    # ------------------------------------------------------------------
    def _post_gate(self, node_id: int) -> None:
        """Post ``node_id``'s standing receive for its next notification."""
        self.control._irecv(node_id, ANY_SOURCE, NOTIFY_TAG).then(
            self._notified)

    def _notified(self, ev: Event) -> None:
        """The gate: a notification matched a node's standing receive.

        Re-post the receive, then hand the event to a free handler slot,
        or queue it for one.  EXIT closes the gate instead.
        """
        msg = ev._value
        node_id = msg.dst
        if node_id in self._failed:
            return  # a dead node's gate stays closed
        note: Notification = msg.payload
        if note.event_type is EventType.EXIT:
            exit_ev = self._exits.get(node_id)
            if exit_ev is not None and not exit_ev.triggered:
                exit_ev.succeed()
            return
        self._post_gate(node_id)
        obs = self.obs
        obs.count("ompc.notifications")
        if obs.enabled:
            obs.gauge_add(f"node{node_id}.evq", 1, node=node_id)
        pool = self._pools.get(node_id)
        if pool is None:
            pool = self._pools[node_id] = _HandlerPool(self.sim, node_id)
        chain = _Chain(self, node_id, note)
        pool.chains[chain] = None
        if pool.try_acquire():
            chain.run(chain.begin)
        else:
            chain.slot_req = pool.request()
            chain.wait(chain.slot_req, chain.begin)

    def _release_slot(self, chain: "_Chain") -> None:
        """``chain`` has ended: free its handler slot, and drop the pool
        once its node has no event left."""
        node_id = chain.node_id
        pool = self._pools[node_id]
        del pool.chains[chain]
        pool.release()
        if not pool.chains:
            del self._pools[node_id]

    def _mem_gauge(self, node_id: int, mem: DeviceMemory) -> None:
        """Publish the node's resident-byte footprint after a table change."""
        if self.obs.enabled:
            self.obs.gauge_set(
                f"node{node_id}.mem.resident_bytes",
                mem.resident_bytes,
                node=node_id,
            )

    def _stretched(self, node_id: int, duration: float) -> float:
        """Wall time for ``duration`` of compute starting now on the node,
        stretched through any installed stall/hang windows (stragglers)."""
        faults = self.cluster.faults
        if faults is None or duration <= 0:
            return duration
        return faults.stretched(node_id, self.sim.now, duration)

    # ------------------------------------------------------------------
    # origin side (generator API, normally driven from the head node)
    # ------------------------------------------------------------------
    def _begin(
        self, origin: int, dst: int, event_type: EventType, info: dict
    ):
        """Create the origin half: charge overhead, allocate tag, notify."""
        if not self._started:
            raise RuntimeError("event system not started")
        if self.config.event_origin_overhead:
            yield self.sim.timeout(self.config.event_origin_overhead)
        if not self._first_event_done:
            # One-time lazy initialization right after the first event
            # (the ~4.7 ms interval of Fig. 7a).
            self._first_event_done = True
            if self.config.first_event_interval:
                start = self.sim.now
                obs_span = self.obs.begin(
                    "ompc", "first_event_interval", origin
                )
                yield self.sim.timeout(self.config.first_event_interval)
                self.obs.end(obs_span)
                # Always on, so Fig. 7a is measurable untraced.
                self.obs.count("ompc.first_event_interval",
                               self.sim.now - start)
        tag = self.tags.allocate()
        note = Notification(event_type, tag, origin, info)
        yield from self.control._isend(
            origin, dst, note, NOTIFICATION_BYTES, NOTIFY_TAG
        ).wait()
        return tag

    def _completion(self, origin: int, src: int, tag: int) -> Request:
        """The receive of the (tag-isolated) completion message.

        ``src`` may be :data:`~repro.mpi.comm.ANY_SOURCE` for events
        acknowledged by several nodes (broadcast).
        """
        return self.pool.select(tag)._irecv(origin, src, tag)

    # -- the plugin-visible operations ------------------------------------
    def alloc(self, dst: int, buffer_id: int, payload: Any = None,
              origin: int = 0, nbytes: float = 0.0,
              label: str | None = None, owner: str | None = None):
        """Generator: allocate a device entry for ``buffer_id`` on ``dst``.

        ``payload`` optionally seeds the entry with the host-side object
        reference *without charging any transfer time* — this stands in
        for "device memory the task is about to fill" when buffers carry
        real NumPy arrays (payloads travel by reference; only explicit
        submit/exchange/retrieve operations charge bytes).  ``nbytes``
        is the logical size billed against the node's device-memory
        capacity; an overflow surfaces as ``DeviceMemoryError`` on the
        worker.
        """
        tag = yield from self._begin(origin, dst, EventType.ALLOC,
                                     {"buffer_id": buffer_id,
                                      "payload": payload,
                                      "nbytes": nbytes,
                                      "label": label,
                                      "owner": owner})
        yield from self._completion(origin, dst, tag).wait()

    def delete(self, dst: int, buffer_id: int, origin: int = 0):
        """Generator: remove ``buffer_id`` from ``dst``."""
        tag = yield from self._begin(origin, dst, EventType.DELETE,
                                     {"buffer_id": buffer_id})
        yield from self._completion(origin, dst, tag).wait()

    def submit(self, dst: int, buffer_id: int, payload: Any, nbytes: float,
               origin: int = 0, label: str | None = None):
        """Generator: push data origin → ``dst`` (host-to-device copy)."""
        tag = yield from self._begin(origin, dst, EventType.SUBMIT,
                                     {"buffer_id": buffer_id,
                                      "nbytes": nbytes,
                                      "label": label})
        comm = self.pool.select(tag)
        req = comm._isend(origin, dst, payload, nbytes, tag)
        yield from self._completion(origin, dst, tag).wait()
        yield from req.wait()
        self.obs.count("ompc.bytes_submitted", nbytes)

    def retrieve(self, dst: int, buffer_id: int, nbytes: float, origin: int = 0):
        """Generator: pull data ``dst`` → origin; returns the payload."""
        tag = yield from self._begin(origin, dst, EventType.RETRIEVE,
                                     {"buffer_id": buffer_id, "nbytes": nbytes})
        msg = yield from self._completion(origin, dst, tag).wait()
        self.obs.count("ompc.bytes_retrieved", nbytes)
        return msg.payload

    def exchange(self, src: int, dst: int, buffer_id: int, nbytes: float,
                 origin: int = 0, label: str | None = None):
        """Generator: forward data worker → worker without passing
        through the origin (§4.3's head-bypassing copy).

        The origin orchestrates: both endpoints get notifications
        sharing one tag; the payload flows ``src → dst`` directly.
        """
        if self.config.event_origin_overhead:
            yield self.sim.timeout(self.config.event_origin_overhead)
        tag = self.tags.allocate()
        ctrl = self.control
        note_src = Notification(
            EventType.EXCHANGE_SRC, tag, origin,
            {"buffer_id": buffer_id, "dst": dst, "nbytes": nbytes},
        )
        note_dst = Notification(
            EventType.EXCHANGE_DST, tag, origin,
            {"buffer_id": buffer_id, "src": src, "nbytes": nbytes,
             "label": label},
        )
        req_a = ctrl._isend(origin, src, note_src, NOTIFICATION_BYTES,
                            NOTIFY_TAG)
        req_b = ctrl._isend(origin, dst, note_dst, NOTIFICATION_BYTES,
                            NOTIFY_TAG)
        yield from req_a.wait()
        yield from req_b.wait()
        yield from self._completion(origin, dst, tag).wait()
        self.obs.count("ompc.bytes_exchanged", nbytes)

    def broadcast(self, src: int, dsts: list[int], buffer_id: int, nbytes: float,
                  origin: int = 0):
        """Generator: one-to-many forward along a binomial tree (§7).

        ``src`` holds the data; every node in ``dsts`` receives a copy.
        A single event (one tag) covers the whole tree; the origin waits
        for one completion per destination.
        """
        if not dsts:
            return
        if self.config.event_origin_overhead:
            yield self.sim.timeout(self.config.event_origin_overhead)
        tag = self.tags.allocate()
        participants = [src] + list(dsts)
        tree = _binomial_tree(participants)
        ctrl = self.control
        reqs = []
        for node_id in participants:
            parent, children = tree[node_id]
            note = Notification(
                EventType.BROADCAST, tag, origin,
                {
                    "buffer_id": buffer_id,
                    "nbytes": nbytes,
                    "parent": parent,
                    "children": children,
                },
            )
            reqs.append(
                ctrl._isend(origin, node_id, note, NOTIFICATION_BYTES,
                            NOTIFY_TAG)
            )
        for req in reqs:
            yield from req.wait()
        for _ in dsts:
            yield from self._completion(origin, ANY_SOURCE, tag).wait()
        self.obs.count("ompc.bytes_broadcast", nbytes * len(dsts))

    def execute(self, dst: int, task: Task, origin: int = 0, attempt: int = 0,
                dedup: bool = False, fo_epoch: int = 0, outputs=()):
        """Generator: run a target region on ``dst`` (the EXECUTE event).

        Returns the tuple of buffer ids the device *detected* as written
        when page-protection write detection is enabled (§7), else
        ``None`` (the caller trusts the depend clauses).  ``attempt``
        identifies this dispatch for :meth:`cancel_execution` (straggler
        speculation re-dispatches the same task under a new attempt id).
        ``dedup`` marks a post-failover re-issue the worker may answer
        from its completion table; ``fo_epoch`` stamps the dispatch with
        the issuing head's epoch so workers can fence zombie dispatches
        from a deposed head.  ``outputs`` are the ``(buffer id,
        version)`` pairs the task writes: the worker stamps its copies,
        and answers a dedup'd re-issue only while it holds them.
        """
        info: dict[str, Any] = {"task_id": task.task_id, "attempt": attempt,
                                "outputs": outputs}
        if self.analysis.enabled:
            # The happens-before context token rides the notification:
            # the worker-side kernel recording joins the declared task
            # edge to the physical dispatch that realized it.  Recovery
            # re-executions of finished tasks carry None (system work).
            info["actx"] = self.analysis.ctx_token(task)
        if dedup:
            info["dedup"] = True
        if fo_epoch:
            info["fo_epoch"] = fo_epoch
        if dst == origin:
            # Self-dispatch: after a head failover the elected head is
            # both dispatcher and worker.  A separate params message
            # and the completion would both match ``(src, tag) ==
            # (origin, tag)`` on this node — the origin's completion
            # wait would swallow the params — so the params ride inside
            # the notification instead.
            info["params"] = task
            tag = yield from self._begin(origin, dst, EventType.EXECUTE,
                                         info)
            msg = yield from self._completion(origin, dst, tag).wait()
        else:
            tag = yield from self._begin(origin, dst, EventType.EXECUTE,
                                         info)
            comm = self.pool.select(tag)
            req = comm._isend(origin, dst, task, PARAMS_BYTES, tag)
            msg = yield from self._completion(origin, dst, tag).wait()
            yield from req.wait()
        if isinstance(msg.payload, tuple) and msg.payload[0] == "done":
            return msg.payload[1]
        return None


class _HandlerPool(Resource):
    """A node's event handlers (Fig. 3): ``EVENT_HANDLERS`` slots, and
    the chains holding or queued for one, in arrival order."""

    def __init__(self, sim: Simulator, node_id: int):
        super().__init__(sim, EVENT_HANDLERS, name=f"handlers{node_id}")
        self.chains: dict[_Chain, None] = {}


class _Chain:
    """One notification's destination half, run as a callback chain.

    The chain waits on one event at a time — its handler slot, the
    handler overhead, an MPI receive or send, a device slot or timer —
    and that event's callback runs the next step, the idiom of the MPI
    layer's ``_Send``.  The event type's body ends in the completion
    send, whose arrival ends the chain and frees its handler slot.  A
    step that raises :class:`~repro.sim.errors.SimulationError` ends the
    chain too, and hands the error to ``EventSystem.on_error``.

    :meth:`stop` (the node crashed) makes every later step a no-op: the
    chain sends no completion and writes nothing into the wiped memory.
    It withdraws a slot request still queued and frees a CPU or GPU slot
    at once, so the node's next tenant finds them free.
    """

    __slots__ = ("es", "node_id", "note", "comm", "step", "stopped",
                 "slot_req", "span", "task", "device", "device_req", "busy",
                 "marker", "kernel_span", "before", "faults", "payload",
                 "children")

    def __init__(self, es: EventSystem, node_id: int, note: Notification):
        self.es = es
        self.node_id = node_id
        self.note = note
        #: The event's data communicator; the chain's rank is node_id.
        self.comm = es.pool.select(note.tag)
        self.step = None
        self.stopped = False
        #: The queued handler-slot request, until it is granted.
        self.slot_req = None
        self.span = None
        #: The CPU or GPU slot pool this chain holds or queues for (its
        #: queued request is ``device_req``, ``None`` once granted).
        self.device = None
        self.marker = None

    # -- driving -------------------------------------------------------------
    def run(self, step, value=None) -> None:
        """Run ``step(value)``; a simulation error ends the chain."""
        try:
            step(value)
        except SimulationError as exc:
            self._fail(exc)

    def wait(self, event: Event, step) -> None:
        """Run ``step(value)`` once ``event`` fires."""
        self.step = step
        event.add_callback(self._resume)

    def after(self, delay: float | None, step) -> None:
        """Run ``step`` after a ``delay`` timer, or at once if ``None``."""
        if delay is None:
            step()
        else:
            self.step = step
            self.es.sim.timeout(delay).callbacks.append(self._resume)

    def _resume(self, ev: Event) -> None:
        if self.stopped:
            return
        if not ev._ok:
            self._fail(ev._value)
            return
        # Inlined run(): one resume per MPI operation and timer.
        try:
            self.step(ev._value)
        except SimulationError as exc:
            self._fail(exc)

    def send(self, dst: int, payload: Any, nbytes: float, step) -> None:
        """Send on the event's channel; ``step`` runs on arrival."""
        self.step = step
        self.comm._isend(self.node_id, dst, payload, nbytes,
                         self.note.tag).then(self._resume)

    def recv(self, src: int, step) -> None:
        """Receive on the event's channel; ``step`` gets the message."""
        self.step = step
        self.comm._irecv(self.node_id, src, self.note.tag).then(self._resume)

    def complete(self, completion: Any) -> None:
        """The completion send, which ends the chain on arrival."""
        self.send(self.note.origin, completion, COMPLETION_BYTES, self.finish)

    def begin(self, _value=None) -> None:
        """A handler slot is held: pay the overhead, then run the body."""
        self.slot_req = None
        es = self.es
        obs = es.obs
        if obs.enabled:
            note = self.note
            obs.gauge_add(f"node{self.node_id}.evq", -1, node=self.node_id)
            self.span = obs.begin(
                "ompc", f"evt:{note.event_type.value}", self.node_id,
                tag=note.tag, origin=note.origin,
            )
        self.after(es.config.event_handler_overhead or None, self.body)

    def body(self, _value=None) -> None:
        _BODIES[self.note.event_type](self)

    def finish(self, _value=None) -> None:
        """The body is done: close the event and free the slot."""
        # The last step is this bound method: dropping it leaves the
        # chain no reference cycle, so reference counting frees it.
        self.step = None
        es = self.es
        self._end_execute()
        if self.span is not None:
            es.obs.end(self.span)
        es.obs.counters[_EVENT_COUNT_KEY[self.note.event_type]] += 1
        es._release_slot(self)

    def _fail(self, exc: BaseException) -> None:
        self.stopped = True
        self.step = None
        self._drop_device()
        self._end_execute()
        es = self.es
        es._release_slot(self)
        if es.on_error is None:
            raise exc
        es.on_error(exc)

    def stop(self, pool: _HandlerPool) -> None:
        """The node crashed: end the chain where it stands."""
        self.stopped = True
        self.step = None
        if self.slot_req is not None:
            pool.cancel(self.slot_req)
        self._drop_device()
        self._end_execute()

    # -- the bodies ----------------------------------------------------------
    @property
    def mem(self) -> DeviceMemory:
        return self.es.memories[self.node_id]

    def _alloc(self) -> None:
        info = self.note.info
        mem = self.mem
        mem.alloc(info["buffer_id"], info.get("payload"),
                  nbytes=info.get("nbytes", 0.0),
                  label=info.get("label"),
                  owner=info.get("owner"))
        self.es._mem_gauge(self.node_id, mem)
        self.complete("done")

    def _delete(self) -> None:
        # An eviction may delete a charged copy whose transfer never
        # landed (its source died): deleting nothing is a no-op.
        bid = self.note.info["buffer_id"]
        mem = self.mem
        if bid in mem:
            mem.delete(bid)
        self.es._mem_gauge(self.node_id, mem)
        self.complete("done")

    def _submit(self) -> None:
        self.recv(self.note.origin, self._store)

    def _exchange_dst(self) -> None:
        self.recv(self.note.info["src"], self._store)

    def _store(self, msg) -> None:
        """The data of a SUBMIT or EXCHANGE_DST landed: write it."""
        info = self.note.info
        mem = self.mem
        if info["buffer_id"] not in mem:
            mem.alloc(info["buffer_id"], nbytes=info.get("nbytes", 0.0),
                      label=info.get("label"))
            self.es._mem_gauge(self.node_id, mem)
        mem.write(info["buffer_id"], msg.payload)
        self.complete("done")

    def _retrieve(self) -> None:
        # The data message itself completes the event at the origin.
        info = self.note.info
        self.send(self.note.origin, self.mem.read(info["buffer_id"]),
                  info["nbytes"], self.finish)

    def _exchange_src(self) -> None:
        info = self.note.info
        self.send(info["dst"], self.mem.read(info["buffer_id"]),
                  info["nbytes"], self.finish)

    def _broadcast(self) -> None:
        """One participant of a binomial-tree broadcast (§7 extension).

        ``info`` carries ``parent`` (None for the data source) and
        ``children``.  Every non-source participant stores the payload,
        forwards it to its children one after another, and acknowledges
        to the origin.
        """
        info = self.note.info
        self.children = iter(info["children"])
        if info["parent"] is None:
            self.payload = self.mem.read(info["buffer_id"])
            self._forward()
        else:
            self.recv(info["parent"], self._broadcast_landed)

    def _broadcast_landed(self, msg) -> None:
        info = self.note.info
        mem = self.mem
        self.payload = msg.payload
        if info["buffer_id"] not in mem:
            mem.alloc(info["buffer_id"], nbytes=info.get("nbytes", 0.0))
            self.es._mem_gauge(self.node_id, mem)
        mem.write(info["buffer_id"], self.payload)
        self._forward()

    def _forward(self, _value=None) -> None:
        child = next(self.children, None)
        if child is not None:
            self.send(child, self.payload, self.note.info["nbytes"],
                      self._forward)
        elif self.note.info["parent"] is not None:
            self.complete("done")
        else:
            self.finish()

    def _execute(self) -> None:
        # 5a in Fig. 3: fetch which function to run and its parameters
        # (a self-dispatching head embeds them in the notification).
        info = self.note.info
        if "params" in info:
            self._dispatch(None)
        else:
            self.recv(self.note.origin, self._dispatch)

    def _dispatch(self, params) -> None:
        es = self.es
        node_id = self.node_id
        info = self.note.info
        task = self.task = info["params"] if params is None else params.payload
        # Head-failover fencing: a dispatch stamped with an older head
        # epoch comes from a deposed (possibly zombie) head whose
        # messages were still in flight — discard it so it can never
        # double-apply work the elected head already re-issued.
        epoch = info.get("fo_epoch", 0)
        if epoch < es._node_epoch[node_id]:
            es.obs.count("ompc.exec_fenced")
            self.complete("fenced")
            return
        es._node_epoch[node_id] = epoch
        if not info.get("dedup"):
            self._launch()
            return
        # Idempotent re-issue after failover: if the original dispatch
        # is still running here, wait it out, then answer from the
        # dedup table while this node still holds the versions it
        # wrote, instead of running the task twice.
        prior = es._exec_inflight[node_id].get(task.task_id)
        if prior is not None and not prior.triggered:
            self.wait(prior, self._dedup)
        else:
            self._dedup()

    def _dedup(self, _value=None) -> None:
        es = self.es
        versions = self.mem.versions
        if self.task.task_id in es._exec_done[self.node_id] and all(
                versions.get(bid) == version
                for bid, version in self.note.info["outputs"]):
            es.obs.count("ompc.exec_dedup_hits")
            self.complete("done")
        else:
            self._launch()

    def _launch(self) -> None:
        es = self.es
        node_id = self.node_id
        task = self.task
        marker = self.marker = es.sim.event(f"exec{node_id}:{task.task_id}")
        es._exec_inflight[node_id][task.task_id] = marker
        obs = es.obs
        self.kernel_span = obs.begin(
            "task", f"{task.name}:kernel", node_id,
            task_id=task.task_id, attempt=self.note.info.get("attempt", 0),
        ) if obs.enabled else None
        self.before = None
        if es.config.write_detection == "page_protect":
            mem = self.mem
            self.before = {
                d.buffer.buffer_id: _fingerprint(mem.read(d.buffer.buffer_id))
                for d in task.deps
                if d.buffer.buffer_id in mem
            }
        node = es.cluster.node(node_id)
        if task.meta.get("device") == "gpu" and node.gpus is not None:
            # §7 second-level offloading: a nested target region inside
            # the cluster-level target.  The buffers stage over PCIe,
            # the kernel runs at the accelerator's rate, and written
            # buffers stage back.
            self._acquire(node.gpus, self._stage_in)
        else:
            self._acquire(node.cpu, self._compute)

    def _acquire(self, device: Resource, step) -> None:
        self.device = device
        self.busy = 0
        if device.try_acquire():
            self.device_req = None
            step()
        else:
            self.device_req = device.request()
            self.wait(self.device_req, step)

    def _drop_device(self) -> None:
        """Free the CPU or GPU slot held, or withdraw the queued request."""
        device = self.device
        if device is None:
            return
        self.device = None
        if self.device_req is not None and device.cancel(self.device_req):
            return
        if self.busy:
            self.es.obs.gauge_add(f"node{self.node_id}.cpu_busy", -self.busy,
                                  node=self.node_id)
        device.release()

    def _compute(self, _value=None) -> None:
        # Second-level parallelism: a task may use several cores inside
        # the node (parallel-for inside the target region, §3.1).  The
        # model charges cost / (threads × speed) while occupying one
        # hardware context, which is exact when a node runs one task at
        # a time (our workloads) and conservative otherwise.
        self.device_req = None
        es = self.es
        node = es.cluster.node(self.node_id)
        threads = min(int(self.task.meta.get("omp_threads", 1)),
                      node.spec.cores)
        if es.obs.enabled:
            es.obs.gauge_add(f"node{self.node_id}.cpu_busy", threads,
                             node=self.node_id)
            self.busy = threads
        duration = es._stretched(
            self.node_id, node.compute_time(self.task.cost) / max(threads, 1)
        )
        self.after(duration if duration > 0 else None, self._computed)

    def _computed(self, _value=None) -> None:
        self._apply()
        self._drop_device()
        self._kernel_done()

    def _stage_in(self, _value=None) -> None:
        self.device_req = None
        task = self.task
        spec = self.es.cluster.node(self.node_id).spec
        in_bytes = sum(b.nbytes for b in task.reads)
        self.after(spec.pcie_latency + in_bytes / spec.pcie_bandwidth
                   if in_bytes or task.reads else None, self._gpu_kernel)

    def _gpu_kernel(self, _value=None) -> None:
        es = self.es
        spec = es.cluster.node(self.node_id).spec
        duration = es._stretched(
            self.node_id,
            self.task.cost / (spec.speed * spec.accelerator_speed),
        )
        self.after(duration if duration > 0 else None, self._stage_out)

    def _stage_out(self, _value=None) -> None:
        self._apply()
        task = self.task
        spec = self.es.cluster.node(self.node_id).spec
        out_bytes = sum(b.nbytes for b in task.writes)
        self.after(spec.pcie_latency + out_bytes / spec.pcie_bandwidth
                   if out_bytes or task.writes else None, self._staged_out)

    def _staged_out(self, _value=None) -> None:
        self._drop_device()
        self.es.obs.count("ompc.gpu_executions")
        self._kernel_done()

    def _revoked(self) -> bool:
        """Straggler speculation revoked this attempt's side effects."""
        return ((self.task.task_id, self.note.info.get("attempt", 0))
                in self.es._cancelled_execs)

    def _apply(self) -> None:
        """Run the task function against the device copies."""
        task = self.task
        if task.fn is not None and not self._revoked():
            mem = self.mem
            task.fn(*[mem.read(d.buffer.buffer_id) for d in task.deps])

    def _kernel_done(self) -> None:
        before = self.before
        if before is None:
            self._report("done")
            return
        # §7's alternative write detection: allocations are write-
        # protected; the first store to each page faults into the
        # runtime, which marks the region dirty.  We observe which
        # payloads actually changed and charge one fault per page.
        mem = self.mem
        written: list[int] = []
        fault_pages = 0
        for dep in self.task.deps:
            bid = dep.buffer.buffer_id
            if bid not in before:
                continue
            after = _fingerprint(mem.read(bid))
            if after != before[bid] or (after is None and dep.type.writes):
                # Timing-only payloads can't be fingerprinted; they fall
                # back to the declared intent.
                written.append(bid)
                fault_pages += max(1, int(dep.buffer.nbytes // PAGE_SIZE))
        self.payload = ("done", tuple(written))
        self.faults = fault_pages
        overhead = self.es.config.page_fault_overhead
        self.after(fault_pages * overhead if fault_pages and overhead
                   else None, self._faulted)

    def _faulted(self, _value=None) -> None:
        self.es.obs.count("ompc.page_faults", self.faults)
        self._report(self.payload)

    def _report(self, completion: Any) -> None:
        es = self.es
        task = self.task
        info = self.note.info
        if self.kernel_span is not None:
            es.obs.end(self.kernel_span)
        if es.analysis.enabled and not self._revoked():
            es.analysis.on_kernel(task, self.node_id, info.get("actx"))
        if not self._revoked():
            es._exec_done[self.node_id].add(task.task_id)
            self.mem.versions.update(info["outputs"])
        self.complete(completion)

    def _end_execute(self) -> None:
        """Retire this EXECUTE from the node's in-flight table (a dedup
        re-issue waiting on it resumes)."""
        marker = self.marker
        if marker is None:
            return
        self.marker = None
        inflight = self.es._exec_inflight[self.node_id]
        if inflight.get(self.task.task_id) is marker:
            del inflight[self.task.task_id]
        if not marker.triggered:
            marker.succeed()


#: Each event type's body (EXIT never reaches a handler).
_BODIES = {
    EventType.ALLOC: _Chain._alloc,
    EventType.DELETE: _Chain._delete,
    EventType.SUBMIT: _Chain._submit,
    EventType.RETRIEVE: _Chain._retrieve,
    EventType.EXCHANGE_SRC: _Chain._exchange_src,
    EventType.EXCHANGE_DST: _Chain._exchange_dst,
    EventType.BROADCAST: _Chain._broadcast,
    EventType.EXECUTE: _Chain._execute,
}


def _fingerprint(payload: Any):
    """A change-detecting digest of a device payload.

    NumPy arrays hash their bytes; hashable (hence immutable) objects
    hash directly (they cannot change); unhashable mutable objects
    return ``None``, signalling "undetectable — fall back to the
    declared dependence type".
    """
    if payload is None:
        return None
    import numpy as np

    if isinstance(payload, np.ndarray):
        return hash(payload.tobytes())
    try:
        return hash(payload)
    except TypeError:
        return None


def _binomial_tree(participants: list[int]) -> dict[int, tuple[int | None, list[int]]]:
    """Binomial spanning tree over ``participants`` (first is the root).

    Returns ``{node: (parent_or_None, [children])}`` using actual node
    ids, with tree positions taken in list order.  A position's parent
    clears its lowest set bit; its children add each power of two below
    that bit (below ``2^ceil(log2 n)`` for the root).
    """
    n = len(participants)
    tree: dict[int, tuple[int | None, list[int]]] = {}
    for pos, node in enumerate(participants):
        if pos == 0:
            parent = None
            receive_bit = 1
            while receive_bit < n:
                receive_bit <<= 1
        else:
            parent = participants[pos & (pos - 1)]
            receive_bit = pos & -pos
        children = []
        child_bit = receive_bit >> 1
        while child_bit > 0:
            if pos + child_bit < n:
                children.append(participants[pos + child_bit])
            child_bit >>= 1
        tree[node] = (parent, children)
    return tree
