"""The reference worker-side event system: the oracle of the events test.

The production event system (:mod:`repro.core.events`) runs a node's
gate as one standing receive on the control communicator and its
handler pool as a :class:`~repro.sim.resources.Resource`, with each
notification's destination half a callback chain.  It promises the
timing of the generator machinery kept here, exactly:

* one *gate* process per node loops over ``recv(tag=NOTIFY_TAG)`` and
  puts each notification on the node's event queue (a
  :class:`~repro.sim.resources.Store`); EXIT puts one poison item per
  handler and ends the gate;
* ``EVENT_HANDLERS`` *handler* processes per node take notifications
  off that queue, pay ``event_handler_overhead`` and run the event
  type's body as a generator that ends in the completion send;
* :meth:`EventSystem.shutdown` waits for every live node's gate, and
  :meth:`EventSystem.fail_node` interrupts the node's gate and handlers.

:func:`reference_events` installs it with ``monkeypatch`` for the
duration of a block.  Only the worker side is swapped: the origin-side
operations, tags, communicators, device memory, failure events and
races are the production code in both runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

import pytest

from repro.core.events import (
    _EVENT_COUNT_KEY,
    COMPLETION_BYTES,
    EVENT_HANDLERS,
    NOTIFICATION_BYTES,
    PAGE_SIZE,
    EventSystem,
    EventType,
    Notification,
    _fingerprint,
)
from repro.core.memory import DeviceMemory
from repro.core.tags import NOTIFY_TAG
from repro.omp.task import Task
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.resources import Store

#: Queue sentinel shutting down one event handler.
_POISON = object()

_production_init = EventSystem.__init__


def _init(self, cluster, mpi, config):
    _production_init(self, cluster, mpi, config)
    self._queues = [
        Store(self.sim, name=f"evq{i}") for i in range(cluster.num_nodes)
    ]
    self._gates = []
    self._handlers = {}


def start(self) -> None:
    """Spawn gate threads and handler pools on every node."""
    if self._started:
        raise RuntimeError("event system already started")
    self._started = True
    for node_id in range(self.cluster.num_nodes):
        gate = self.sim.process(_gate(self, node_id), name=f"gate{node_id}")
        self._gates.append(gate)
        self._handlers[node_id] = [
            self.sim.process(
                _handler(self, node_id, h), name=f"handler{node_id}.{h}"
            )
            for h in range(EVENT_HANDLERS)
        ]


def shutdown(self, origin: int = 0):
    """Generator: stop all gate threads and handlers."""
    rank = self.control.rank(origin)
    for node_id in range(self.cluster.num_nodes):
        if node_id in self._failed:
            continue
        note = Notification(EventType.EXIT, 0, origin)
        yield from rank.send(node_id, note, NOTIFICATION_BYTES, NOTIFY_TAG)
    for node_id, gate in enumerate(self._gates):
        if node_id in self._failed:
            continue
        yield gate  # gates forward poison to handlers and finish


def fail_node(self, node_id: int) -> None:
    """Crash a node: kill its event machinery, lose its memory."""
    if not self._started:
        raise RuntimeError("event system not started")
    if node_id in self._failed:
        return
    self._failed.add(node_id)
    self.memories[node_id].wipe()
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


def _gate(es, node_id: int):
    rank = es.control.rank(node_id)
    try:
        while True:
            msg = yield from rank.recv(tag=NOTIFY_TAG)
            note: Notification = msg.payload
            if note.event_type == EventType.EXIT:
                for _ in range(EVENT_HANDLERS):
                    yield es._queues[node_id].put(_POISON)
                return
            es.obs.count("ompc.notifications")
            yield es._queues[node_id].put(note)
            if es.obs.enabled:
                es.obs.gauge_add(f"node{node_id}.evq", 1, node=node_id)
    except Interrupt:
        return  # node crashed


def _handler(es, node_id: int, handler_id: int):
    queue = es._queues[node_id]
    obs = es.obs
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
            if es.config.event_handler_overhead:
                yield es.sim.timeout(es.config.event_handler_overhead)
            yield from _handle(es, node_id, note)
            if enabled:
                obs.end(open_span)
            counts[_EVENT_COUNT_KEY[note.event_type]] += 1
    except Interrupt:
        return  # node crashed mid-event; the origin races failure_event
    except SimulationError as exc:
        if es.on_error is None:
            raise
        es.on_error(exc)


def _handle(es, node_id: int, note: Notification):
    mem = es.memories[node_id]
    comm = es.pool.select(note.tag)
    rank = comm.rank(node_id)

    if note.event_type == EventType.ALLOC:
        mem.alloc(note.info["buffer_id"], note.info.get("payload"),
                  nbytes=note.info.get("nbytes", 0.0),
                  label=note.info.get("label"),
                  owner=note.info.get("owner"))
        es._mem_gauge(node_id, mem)
        yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

    elif note.event_type == EventType.DELETE:
        if note.info["buffer_id"] in mem:
            mem.delete(note.info["buffer_id"])
        es._mem_gauge(node_id, mem)
        yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

    elif note.event_type == EventType.SUBMIT:
        msg = yield from rank.recv(src=note.origin, tag=note.tag)
        if note.info["buffer_id"] not in mem:
            mem.alloc(note.info["buffer_id"],
                      nbytes=note.info.get("nbytes", 0.0),
                      label=note.info.get("label"))
            es._mem_gauge(node_id, mem)
        mem.write(note.info["buffer_id"], msg.payload)
        yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

    elif note.event_type == EventType.RETRIEVE:
        payload = mem.read(note.info["buffer_id"])
        yield from rank.send(note.origin, payload, note.info["nbytes"],
                             note.tag)

    elif note.event_type == EventType.EXCHANGE_SRC:
        payload = mem.read(note.info["buffer_id"])
        yield from rank.send(note.info["dst"], payload, note.info["nbytes"],
                             note.tag)

    elif note.event_type == EventType.EXCHANGE_DST:
        msg = yield from rank.recv(src=note.info["src"], tag=note.tag)
        if note.info["buffer_id"] not in mem:
            mem.alloc(note.info["buffer_id"],
                      nbytes=note.info.get("nbytes", 0.0),
                      label=note.info.get("label"))
            es._mem_gauge(node_id, mem)
        mem.write(note.info["buffer_id"], msg.payload)
        yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)

    elif note.event_type == EventType.BROADCAST:
        yield from _handle_broadcast(es, node_id, note, mem, rank)

    elif note.event_type == EventType.EXECUTE:
        yield from _handle_execute(es, node_id, note, mem, rank)

    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(f"unhandled event type {note.event_type}")


def _handle_broadcast(es, node_id: int, note: Notification,
                      mem: DeviceMemory, rank):
    parent = note.info["parent"]
    if parent is None:
        payload = mem.read(note.info["buffer_id"])
    else:
        msg = yield from rank.recv(src=parent, tag=note.tag)
        payload = msg.payload
        if note.info["buffer_id"] not in mem:
            mem.alloc(note.info["buffer_id"],
                      nbytes=note.info.get("nbytes", 0.0))
            es._mem_gauge(node_id, mem)
        mem.write(note.info["buffer_id"], payload)
    for child in note.info["children"]:
        yield from rank.send(child, payload, note.info["nbytes"], note.tag)
    if parent is not None:
        yield from rank.send(note.origin, "done", COMPLETION_BYTES, note.tag)


def _handle_execute(es, node_id: int, note: Notification, mem: DeviceMemory,
                    rank):
    if "params" in note.info:
        task: Task = note.info["params"]
    else:
        params = yield from rank.recv(src=note.origin, tag=note.tag)
        task = params.payload
    tid = task.task_id
    epoch = note.info.get("fo_epoch", 0)
    if epoch < es._node_epoch[node_id]:
        es.obs.count("ompc.exec_fenced")
        yield from rank.send(note.origin, "fenced", COMPLETION_BYTES,
                             note.tag)
        return
    es._node_epoch[node_id] = epoch
    if note.info.get("dedup"):
        prior = es._exec_inflight[node_id].get(tid)
        if prior is not None and not prior.triggered:
            yield prior
        if tid in es._exec_done[node_id] and all(
                mem.versions.get(bid) == version
                for bid, version in note.info["outputs"]):
            es.obs.count("ompc.exec_dedup_hits")
            yield from rank.send(note.origin, "done",
                                 COMPLETION_BYTES, note.tag)
            return
    marker = es.sim.event(f"exec{node_id}:{tid}")
    es._exec_inflight[node_id][tid] = marker
    try:
        yield from _run_execute(es, node_id, note, mem, rank, task)
    finally:
        if es._exec_inflight[node_id].get(tid) is marker:
            del es._exec_inflight[node_id][tid]
        if not marker.triggered:
            marker.succeed()


def _run_execute(es, node_id: int, note: Notification, mem: DeviceMemory,
                 rank, task: Task):
    cfg = es.config
    node = es.cluster.node(node_id)
    attempt = note.info.get("attempt", 0)
    obs_enabled = es.obs.enabled
    kernel_span = es.obs.begin(
        "task", f"{task.name}:kernel", node_id,
        task_id=task.task_id, attempt=attempt,
    ) if obs_enabled else None

    def revoked() -> bool:
        return (task.task_id, attempt) in es._cancelled_execs

    page_protect = cfg.write_detection == "page_protect"
    if page_protect:
        before = {
            d.buffer.buffer_id: _fingerprint(mem.read(d.buffer.buffer_id))
            for d in task.deps
            if d.buffer.buffer_id in mem
        }

    if task.meta.get("device") == "gpu" and node.gpus is not None:
        spec = node.spec
        in_bytes = sum(b.nbytes for b in task.reads)
        out_bytes = sum(b.nbytes for b in task.writes)
        if not node.gpus.try_acquire():
            yield from node.gpus.acquire()
        try:
            if in_bytes or task.reads:
                yield es.sim.timeout(
                    spec.pcie_latency + in_bytes / spec.pcie_bandwidth
                )
            duration = es._stretched(
                node_id, task.cost / (spec.speed * spec.accelerator_speed)
            )
            if duration > 0:
                yield es.sim.timeout(duration)
            if task.fn is not None and not revoked():
                args = [mem.read(d.buffer.buffer_id) for d in task.deps]
                task.fn(*args)
            if out_bytes or task.writes:
                yield es.sim.timeout(
                    spec.pcie_latency + out_bytes / spec.pcie_bandwidth
                )
        finally:
            node.gpus.release()
        es.obs.count("ompc.gpu_executions")
    else:
        threads = min(int(task.meta.get("omp_threads", 1)), node.spec.cores)
        duration = node.compute_time(task.cost) / max(threads, 1)
        if not node.cpu.try_acquire():
            yield from node.cpu.acquire()
        if obs_enabled:
            es.obs.gauge_add(f"node{node_id}.cpu_busy", threads, node=node_id)
        try:
            duration = es._stretched(node_id, duration)
            if duration > 0:
                yield es.sim.timeout(duration)
            if task.fn is not None and not revoked():
                args = [mem.read(d.buffer.buffer_id) for d in task.deps]
                task.fn(*args)
        finally:
            if obs_enabled:
                es.obs.gauge_add(
                    f"node{node_id}.cpu_busy", -threads, node=node_id
                )
            node.cpu.release()

    completion: Any = "done"
    if page_protect:
        written: list[int] = []
        fault_pages = 0
        for dep in task.deps:
            bid = dep.buffer.buffer_id
            if bid not in before:
                continue
            after = _fingerprint(mem.read(bid))
            if after != before[bid]:
                written.append(bid)
                fault_pages += max(1, int(dep.buffer.nbytes // PAGE_SIZE))
            elif after is None and dep.type.writes:
                written.append(bid)
                fault_pages += max(1, int(dep.buffer.nbytes // PAGE_SIZE))
        if fault_pages and cfg.page_fault_overhead:
            yield es.sim.timeout(fault_pages * cfg.page_fault_overhead)
        es.obs.count("ompc.page_faults", fault_pages)
        completion = ("done", tuple(written))
    if obs_enabled:
        es.obs.end(kernel_span)
    if es.analysis.enabled and not revoked():
        es.analysis.on_kernel(task, node_id, note.info.get("actx"))
    if not revoked():
        es._exec_done[node_id].add(task.task_id)
        mem.versions.update(note.info["outputs"])
    yield from rank.send(note.origin, completion, COMPLETION_BYTES, note.tag)


@contextmanager
def reference_events():
    """Run the block on the reference (generator) worker side."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EventSystem, "__init__", _init)
        mp.setattr(EventSystem, "start", start)
        mp.setattr(EventSystem, "shutdown", shutdown)
        mp.setattr(EventSystem, "fail_node", fail_node)
        yield
