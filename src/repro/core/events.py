"""The MPI-based distributed event system (§4.2, Fig. 3).

Events are logical units that encapsulate multiple MPI messages.  Every
event has an *origin* half (usually on the head node) and a
*destination* half (on a worker).  The flow mirrors Fig. 3:

1. the origin thread creates the event, drawing a unique MPI tag from
   its :class:`~repro.core.tags.TagAllocator` and selecting a data
   communicator from the round-robin pool by tag;
2. a small *new-event notification* goes to the destination process on
   the control communicator;
3. the destination's **gate thread** receives the notification and
   enqueues the destination half into the local event queue;
4. one of the **event handlers** dequeues it and executes it,
   exchanging payload messages with the origin on ``(comm, tag)`` —
   the tag plus the rank pair form an exclusive channel;
5. a completion notification unblocks the origin.

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
from repro.mpi.comm import Communicator, MpiWorld
from repro.mpi.vci import CommunicatorPool
from repro.omp.task import Task
from repro.sim.primitives import AnyOf
from repro.sim.resources import Store


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

#: Queue sentinel shutting down one event handler.
_POISON = object()

#: Interned per-type counter keys for the handler hot loop.
_EVENT_COUNT_KEY = {t: f"ompc.events.{t.value}" for t in EventType}


class EventSystem:
    """Event machinery across all cluster nodes plus the origin API.

    The head node (rank ``origin``, default 0) drives workers through
    the origin-side generator methods (:meth:`alloc`, :meth:`submit`,
    :meth:`retrieve`, :meth:`exchange`, :meth:`execute`, ...).  Gate
    threads and handler pools run on every node.
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

        self._queues = [
            Store(self.sim, name=f"evq{i}") for i in range(cluster.num_nodes)
        ]
        self._gates: list = []
        self._handlers: dict[int, list] = {}
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
        """Spawn gate threads and handler pools on every node."""
        if self._started:
            raise RuntimeError("event system already started")
        self._started = True
        for node_id in range(self.cluster.num_nodes):
            gate = self.sim.process(self._gate(node_id), name=f"gate{node_id}")
            self._gates.append(gate)
            self._handlers[node_id] = [
                self.sim.process(
                    self._handler(node_id, h), name=f"handler{node_id}.{h}"
                )
                for h in range(EVENT_HANDLERS)
            ]

    def shutdown(self, origin: int = 0):
        """Generator: stop all gate threads and handlers.

        All in-flight events must already be complete (the runtime waits
        for the task graph before shutting down).  Failed nodes are
        skipped — their machinery is already dead.
        """
        rank = self.control.rank(origin)
        for node_id in range(self.cluster.num_nodes):
            if node_id in self._failed:
                continue
            note = Notification(EventType.EXIT, 0, origin)
            yield from rank.send(
                node_id, note, NOTIFICATION_BYTES, NOTIFY_TAG
            )
        for node_id, gate in enumerate(self._gates):
            if node_id in self._failed:
                continue
            yield gate  # gates forward poison to handlers and finish

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
        orphaned gate and handler processes.  Before :meth:`start`
        there is nothing to tear down, and this is a no-op.
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
        """Crash a node: kill its event machinery, lose its memory.

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
        gate = self._gates[node_id]
        if gate.is_alive:
            gate.interrupt("node failure")
        for handler in self._handlers[node_id]:
            if handler.is_alive:
                handler.interrupt("node failure")
        self.obs.count("ompc.node_failures")
        ev = self.failure_event(node_id)
        if not ev.triggered:
            ev.succeed(node_id)

    # ------------------------------------------------------------------
    # destination side: gate thread and event handlers
    # ------------------------------------------------------------------
    def _gate(self, node_id: int):
        from repro.sim.errors import Interrupt

        rank = self.control.rank(node_id)
        try:
            while True:
                msg = yield from rank.recv(tag=NOTIFY_TAG)
                note: Notification = msg.payload
                if note.event_type == EventType.EXIT:
                    for _ in range(EVENT_HANDLERS):
                        yield self._queues[node_id].put(_POISON)
                    return
                self.obs.count("ompc.notifications")
                yield self._queues[node_id].put(note)
                if self.obs.enabled:
                    self.obs.gauge_add(f"node{node_id}.evq", 1, node=node_id)
        except Interrupt:
            return  # node crashed

    def _handler(self, node_id: int, handler_id: int):
        from repro.sim.errors import Interrupt, SimulationError

        queue = self._queues[node_id]
        obs = self.obs
        counts = obs.counters
        try:
            while True:
                note = yield queue.get()
                if note is _POISON:
                    return
                enabled = obs.enabled
                if enabled:
                    obs.gauge_add(f"node{node_id}.evq", -1, node=node_id)
                    open_span = obs.begin(
                        "ompc", f"evt:{note.event_type.value}", node_id,
                        tag=note.tag, origin=note.origin,
                    )
                if self.config.event_handler_overhead:
                    yield self.sim.timeout(self.config.event_handler_overhead)
                yield from self._handle(node_id, note)
                if enabled:
                    obs.end(open_span)
                # Interned counter keys: one dict lookup instead of an
                # f-string build per handled event.
                counts[_EVENT_COUNT_KEY[note.event_type]] += 1
        except Interrupt:
            return  # node crashed mid-event; the origin races failure_event
        except SimulationError as exc:
            if self.on_error is None:
                raise
            self.on_error(exc)

    def _mem_gauge(self, node_id: int, mem: DeviceMemory) -> None:
        """Publish the node's resident-byte footprint after a table change."""
        if self.obs.enabled:
            self.obs.gauge_set(
                f"node{node_id}.mem.resident_bytes",
                mem.resident_bytes,
                node=node_id,
            )

    def _handle(self, node_id: int, note: Notification):
        mem = self.memories[node_id]
        comm = self.pool.select(note.tag)
        rank = comm.rank(node_id)

        if note.event_type == EventType.ALLOC:
            mem.alloc(note.info["buffer_id"], note.info.get("payload"),
                      nbytes=note.info.get("nbytes", 0.0),
                      label=note.info.get("label"),
                      owner=note.info.get("owner"))
            self._mem_gauge(node_id, mem)
            yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

        elif note.event_type == EventType.DELETE:
            # An eviction may delete a charged copy whose transfer never
            # landed (its source died): deleting nothing is a no-op.
            if note.info["buffer_id"] in mem:
                mem.delete(note.info["buffer_id"])
            self._mem_gauge(node_id, mem)
            yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

        elif note.event_type == EventType.SUBMIT:
            msg = yield from rank.recv(src=note.origin, tag=note.tag)
            if note.info["buffer_id"] not in mem:
                mem.alloc(note.info["buffer_id"],
                          nbytes=note.info.get("nbytes", 0.0),
                          label=note.info.get("label"))
                self._mem_gauge(node_id, mem)
            mem.write(note.info["buffer_id"], msg.payload)
            yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

        elif note.event_type == EventType.RETRIEVE:
            payload = mem.read(note.info["buffer_id"])
            # The data message itself completes the event at the origin.
            yield from rank.send(
                note.origin, payload, note.info["nbytes"], note.tag
            )

        elif note.event_type == EventType.EXCHANGE_SRC:
            payload = mem.read(note.info["buffer_id"])
            yield from rank.send(
                note.info["dst"], payload, note.info["nbytes"], note.tag
            )

        elif note.event_type == EventType.EXCHANGE_DST:
            msg = yield from rank.recv(src=note.info["src"], tag=note.tag)
            if note.info["buffer_id"] not in mem:
                mem.alloc(note.info["buffer_id"],
                          nbytes=note.info.get("nbytes", 0.0),
                          label=note.info.get("label"))
                self._mem_gauge(node_id, mem)
            mem.write(note.info["buffer_id"], msg.payload)
            yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

        elif note.event_type == EventType.BROADCAST:
            yield from self._handle_broadcast(node_id, note, mem, rank)

        elif note.event_type == EventType.EXECUTE:
            yield from self._handle_execute(node_id, note, mem, rank)

        else:  # pragma: no cover - enum is exhaustive
            raise AssertionError(f"unhandled event type {note.event_type}")

    def _handle_broadcast(self, node_id: int, note: Notification, mem, rank):
        """One participant of a binomial-tree broadcast (§7 extension).

        ``info`` carries ``parent`` (None for the data source) and
        ``children``.  Every non-source participant stores the payload
        and acknowledges to the origin.
        """
        parent = note.info["parent"]
        if parent is None:
            payload = mem.read(note.info["buffer_id"])
        else:
            msg = yield from rank.recv(src=parent, tag=note.tag)
            payload = msg.payload
            if note.info["buffer_id"] not in mem:
                mem.alloc(note.info["buffer_id"],
                          nbytes=note.info.get("nbytes", 0.0))
                self._mem_gauge(node_id, mem)
            mem.write(note.info["buffer_id"], payload)
        for child in note.info["children"]:
            yield from rank.send(child, payload, note.info["nbytes"], note.tag)
        if parent is not None:
            yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

    def _stretched(self, node_id: int, duration: float) -> float:
        """Wall time for ``duration`` of compute starting now on the node,
        stretched through any installed stall/hang windows (stragglers)."""
        faults = self.cluster.faults
        if faults is None or duration <= 0:
            return duration
        return faults.stretched(node_id, self.sim.now, duration)

    def _handle_execute(self, node_id: int, note: Notification, mem, rank):
        # 5a in Fig. 3: fetch which function to run and its parameters
        # (a self-dispatching head embeds them in the notification).
        if "params" in note.info:
            task: Task = note.info["params"]
        else:
            params = yield from rank.recv(src=note.origin, tag=note.tag)
            task = params.payload
        tid = task.task_id
        # Head-failover fencing: a dispatch stamped with an older head
        # epoch comes from a deposed (possibly zombie) head whose
        # messages were still in flight — discard it so it can never
        # double-apply work the elected head already re-issued.
        epoch = note.info.get("fo_epoch", 0)
        if epoch < self._node_epoch[node_id]:
            self.obs.count("ompc.exec_fenced")
            yield from rank.send(note.origin, "fenced", COMPLETION_BYTES,
                                 note.tag)
            return
        self._node_epoch[node_id] = epoch
        if note.info.get("dedup"):
            # Idempotent re-issue after failover: if the original
            # dispatch is still running here, wait it out, then answer
            # from the dedup table while this node still holds the
            # versions it wrote, instead of running the task twice.
            prior = self._exec_inflight[node_id].get(tid)
            if prior is not None and not prior.triggered:
                yield prior
            if tid in self._exec_done[node_id] and all(
                    mem.versions.get(bid) == version
                    for bid, version in note.info["outputs"]):
                self.obs.count("ompc.exec_dedup_hits")
                yield from rank.send(note.origin, "done",
                                     COMPLETION_BYTES, note.tag)
                return
        marker = self.sim.event(f"exec{node_id}:{tid}")
        self._exec_inflight[node_id][tid] = marker
        try:
            yield from self._run_execute(node_id, note, mem, rank, task)
        finally:
            if self._exec_inflight[node_id].get(tid) is marker:
                del self._exec_inflight[node_id][tid]
            if not marker.triggered:
                marker.succeed()

    def _run_execute(self, node_id: int, note: Notification, mem, rank,
                     task: Task):
        cfg = self.config
        node = self.cluster.node(node_id)
        attempt = note.info.get("attempt", 0)
        obs_enabled = self.obs.enabled
        kernel_span = self.obs.begin(
            "task", f"{task.name}:kernel", node_id,
            task_id=task.task_id, attempt=attempt,
        ) if obs_enabled else None

        def revoked() -> bool:
            return (task.task_id, attempt) in self._cancelled_execs

        page_protect = cfg.write_detection == "page_protect"
        if page_protect:
            before = {
                d.buffer.buffer_id: _fingerprint(mem.read(d.buffer.buffer_id))
                for d in task.deps
                if d.buffer.buffer_id in mem
            }

        if task.meta.get("device") == "gpu" and node.gpus is not None:
            # §7 second-level offloading: a nested target region inside
            # the cluster-level target.  The buffers stage over PCIe,
            # the kernel runs at the accelerator's rate, and written
            # buffers stage back.
            spec = node.spec
            in_bytes = sum(b.nbytes for b in task.reads)
            out_bytes = sum(b.nbytes for b in task.writes)
            yield from node.gpus.acquire()
            try:
                if in_bytes or task.reads:
                    yield self.sim.timeout(
                        spec.pcie_latency + in_bytes / spec.pcie_bandwidth
                    )
                duration = self._stretched(
                    node_id, task.cost / (spec.speed * spec.accelerator_speed)
                )
                if duration > 0:
                    yield self.sim.timeout(duration)
                if task.fn is not None and not revoked():
                    args = [mem.read(d.buffer.buffer_id) for d in task.deps]
                    task.fn(*args)
                if out_bytes or task.writes:
                    yield self.sim.timeout(
                        spec.pcie_latency + out_bytes / spec.pcie_bandwidth
                    )
            finally:
                node.gpus.release()
            self.obs.count("ompc.gpu_executions")
        else:
            # Second-level parallelism: a task may use several cores
            # inside the node (parallel-for inside the target region,
            # §3.1).  The model charges cost / (threads × speed) while
            # occupying one hardware context, which is exact when a node
            # runs one task at a time (our workloads) and conservative
            # otherwise.
            threads = min(int(task.meta.get("omp_threads", 1)), node.spec.cores)
            duration = node.compute_time(task.cost) / max(threads, 1)
            yield from node.cpu.acquire()
            if obs_enabled:
                self.obs.gauge_add(
                    f"node{node_id}.cpu_busy", threads, node=node_id
                )
            try:
                duration = self._stretched(node_id, duration)
                if duration > 0:
                    yield self.sim.timeout(duration)
                if task.fn is not None and not revoked():
                    args = [mem.read(d.buffer.buffer_id) for d in task.deps]
                    task.fn(*args)
            finally:
                if obs_enabled:
                    self.obs.gauge_add(
                        f"node{node_id}.cpu_busy", -threads, node=node_id
                    )
                node.cpu.release()

        completion: Any = "done"
        if page_protect:
            # §7's alternative write detection: allocations are write-
            # protected; the first store to each page faults into the
            # runtime, which marks the region dirty.  We observe which
            # payloads actually changed and charge one fault per page.
            written: list[int] = []
            fault_pages = 0
            for dep in task.deps:
                bid = dep.buffer.buffer_id
                if bid not in before:
                    continue
                after = _fingerprint(mem.read(bid))
                if after != before[bid]:
                    written.append(bid)
                    fault_pages += max(
                        1, int(dep.buffer.nbytes // PAGE_SIZE)
                    )
                elif after is None and dep.type.writes:
                    # Timing-only payloads can't be fingerprinted; fall
                    # back to the declared intent for them.
                    written.append(bid)
                    fault_pages += max(
                        1, int(dep.buffer.nbytes // PAGE_SIZE)
                    )
            if fault_pages and cfg.page_fault_overhead:
                yield self.sim.timeout(fault_pages * cfg.page_fault_overhead)
            self.obs.count("ompc.page_faults", fault_pages)
            completion = ("done", tuple(written))
        if obs_enabled:
            self.obs.end(kernel_span)
        if self.analysis.enabled and not revoked():
            self.analysis.on_kernel(task, node_id, note.info.get("actx"))
        if not revoked():
            self._exec_done[node_id].add(task.task_id)
            mem.versions.update(note.info["outputs"])
        yield from rank.send(note.origin, completion, COMPLETION_BYTES,
                             note.tag)

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
        yield from self.control.rank(origin).send(
            dst, note, NOTIFICATION_BYTES, NOTIFY_TAG
        )
        return tag

    def _await_completion(self, origin: int, src: int, tag: int):
        """Generator: wait for the (tag-isolated) completion message.

        ``src`` may be :data:`~repro.mpi.comm.ANY_SOURCE` for events
        acknowledged by several nodes (broadcast).
        """
        comm = self.pool.select(tag)
        msg = yield from comm.rank(origin).recv(src=src, tag=tag)
        return msg

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
        yield from self._await_completion(origin, dst, tag)

    def delete(self, dst: int, buffer_id: int, origin: int = 0):
        """Generator: remove ``buffer_id`` from ``dst``."""
        tag = yield from self._begin(origin, dst, EventType.DELETE,
                                     {"buffer_id": buffer_id})
        yield from self._await_completion(origin, dst, tag)

    def submit(self, dst: int, buffer_id: int, payload: Any, nbytes: float,
               origin: int = 0, label: str | None = None):
        """Generator: push data origin → ``dst`` (host-to-device copy)."""
        tag = yield from self._begin(origin, dst, EventType.SUBMIT,
                                     {"buffer_id": buffer_id,
                                      "nbytes": nbytes,
                                      "label": label})
        comm = self.pool.select(tag)
        req = comm.rank(origin).isend(dst, payload, nbytes, tag)
        yield from self._await_completion(origin, dst, tag)
        yield from req.wait()
        self.obs.count("ompc.bytes_submitted", nbytes)

    def retrieve(self, dst: int, buffer_id: int, nbytes: float, origin: int = 0):
        """Generator: pull data ``dst`` → origin; returns the payload."""
        tag = yield from self._begin(origin, dst, EventType.RETRIEVE,
                                     {"buffer_id": buffer_id, "nbytes": nbytes})
        msg = yield from self._await_completion(origin, dst, tag)
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
        ctrl = self.control.rank(origin)
        note_src = Notification(
            EventType.EXCHANGE_SRC, tag, origin,
            {"buffer_id": buffer_id, "dst": dst, "nbytes": nbytes},
        )
        note_dst = Notification(
            EventType.EXCHANGE_DST, tag, origin,
            {"buffer_id": buffer_id, "src": src, "nbytes": nbytes,
             "label": label},
        )
        req_a = ctrl.isend(src, note_src, NOTIFICATION_BYTES, NOTIFY_TAG)
        req_b = ctrl.isend(dst, note_dst, NOTIFICATION_BYTES, NOTIFY_TAG)
        yield from req_a.wait()
        yield from req_b.wait()
        yield from self._await_completion(origin, dst, tag)
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
        ctrl = self.control.rank(origin)
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
                ctrl.isend(node_id, note, NOTIFICATION_BYTES, NOTIFY_TAG)
            )
        for req in reqs:
            yield from req.wait()
        from repro.mpi.comm import ANY_SOURCE

        for _ in dsts:
            yield from self._await_completion(origin, ANY_SOURCE, tag)
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
            msg = yield from self._await_completion(origin, dst, tag)
        else:
            tag = yield from self._begin(origin, dst, EventType.EXECUTE,
                                         info)
            comm = self.pool.select(tag)
            req = comm.rank(origin).isend(dst, task,
                                          PARAMS_BYTES, tag)
            msg = yield from self._await_completion(origin, dst, tag)
            yield from req.wait()
        if isinstance(msg.payload, tuple) and msg.payload[0] == "done":
            return msg.payload[1]
        return None


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
