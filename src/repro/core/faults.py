"""Fault tolerance: failure detection, failure injection, task restart.

§3.1: "each node in OMPC (head node and worker nodes) has a heart-beat
mechanism, connected in a ring topology, which allows nodes to monitor
their neighbors.  Thus, if a node fails, the system detects and
restarts the failed tasks.  Fault tolerance work on OMPC is underway
and will be released in a future version."

This module implements that future version on the simulated cluster:

* failure detection is :class:`~repro.core.gossip.FailureDetector`:
  the §3.1 heartbeat ring, or SWIM gossip with ``OMPCConfig.gossip``.
  Because the fabric may drop or delay messages (see
  :mod:`repro.core.faultmodel`), a missed beat only makes a node
  *suspected*; the head confirms with a direct ping before declaring it
  dead.  False positives and cleared suspicions are counted.
* :class:`FailureInjector` crashes chosen nodes at chosen simulated
  times (kills their event machinery and wipes their device memory).
* :class:`FaultTolerantRuntime` runs every task through the plain
  runtime's frames (:class:`~repro.core.runtime.HeadCore`);
  :meth:`~FaultTolerantRuntime.launch` wires an :class:`FTHead` (the
  acting head, its log, and the recover step that re-dispatches a dead
  node's in-flight tasks to survivors) to plug-ins on the core's hooks,
  each testable without a cluster:

  - lineage recovery (:meth:`FTHead.ensure_available`) rebuilds a
    buffer whose only copy died by re-executing its producer, or from a
    checkpoint plus a replay of the newer writes, which also rescues
    in-place (INOUT) producers.  It reads the directory's write record
    of the buffer (:class:`~repro.core.datamanager.WriteRecord`);
  - :class:`Checkpointer` snapshots written buffers head-side
    (``OMPCConfig.checkpoint_interval``);
  - :class:`LogReplay` is head failover (below);
  - :class:`Speculation` (``OMPCConfig.straggler_factor``) wraps the
    target frame: a too-slow task gets a second attempt elsewhere, and
    the first to finish wins.

  An unrecoverable loss raises :class:`RecoveryError`.

**The head node may fail too.**  With ``OMPCConfig.head_standbys > 0``
the head streams its commit log (task completions, directory updates,
checkpoint snapshots, dispatch intents) to standby workers through
:mod:`repro.core.headlog`.  When the detector confirms the head dead —
by a quorum of two nodes, never a self-confirmation through the dead
head itself — the reporter coordinates an election among the standbys,
the most-caught-up replica wins deterministically, and
:meth:`LogReplay.rebuild` replays it into a fresh directory (locations
and write records) and frontier.  Unacknowledged dispatches are re-issued
idempotently (workers dedup by task id and fence old-epoch zombies),
the checkpointer and failure detector re-root at the new head, and the
program finishes bit-identical to a fault-free run.  A head crash with
no live standby raises :class:`RecoveryError` instead of hanging.

Transient faults (message loss, degraded links, stalls, hangs) are
injected by passing a :class:`~repro.core.faultmodel.FaultPlan` to
:meth:`FaultTolerantRuntime.run`; a lossy plan automatically enables the
reliable MPI transport (:class:`~repro.mpi.comm.TransportConfig`) so
loss costs simulated time rather than correctness.
"""

from __future__ import annotations

import copy as _copy
import itertools

import numpy as np
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.datamanager import HOST, DataManager
from repro.core.events import EventSystem
from repro.core.faultmodel import FaultPlan
from repro.core.gossip import FailureDetector
from repro.core.headlog import LOG_RECORD_BYTES, HeadLog, Replicator
from repro.core.runtime import (
    Frontier,
    HeadCore,
    OMPCRunResult,
    ProcessGroup,
    _NodeCrashed,
    configure_tiering,
)
from repro.core.scheduler import HeftScheduler, Scheduler
from repro.mpi.comm import TransportConfig
from repro.omp.api import OmpProgram
from repro.omp.task import Buffer, Task, TaskKind
from repro.sim.errors import SimulationError
from repro.sim.primitives import AnyOf
from repro.sim.resources import Resource

class RecoveryError(SimulationError):
    """A lost buffer cannot be reconstructed from surviving data."""


class ClusterExhausted(RecoveryError):
    """Permanent failures left no workers to run on.

    Raised instead of a generic :class:`RecoveryError` when execution
    itself is impossible — every worker of the (sub)cluster has been
    declared dead — so a workload manager can distinguish "this
    partition is gone" (fail/requeue the one job, keep serving other
    tenants) from "this buffer is unrecoverable".
    """


@dataclass(frozen=True)
class NodeFailure:
    """One injected crash."""

    time: float
    node: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("failure time must be >= 0")
        if self.node < 0:
            raise ValueError("node must be >= 0")


class FailureInjector:
    """Schedules crashes against a running event system.

    Any node may be crashed, including the head (node 0) — recovering
    from that requires standbys (``OMPCConfig.head_standbys``).  A node
    can only be crashed once: arming a second failure for the same node
    is rejected (fail-stop nodes do not die twice).
    """

    def __init__(self, events: EventSystem):
        self.events = events
        self.injected: list[NodeFailure] = []
        self._armed: set[int] = set()

    def arm(self, failures: Sequence[NodeFailure]) -> None:
        sim = self.events.sim
        nodes = self.events.cluster.num_nodes
        for failure in tuple(failures):
            if failure.node >= nodes:
                raise ValueError(f"node {failure.node} is outside the "
                                 f"cluster of {nodes} nodes")
            if failure.node in self._armed:
                raise ValueError(
                    f"node {failure.node} already has an armed failure; "
                    "duplicate/overlapping injections would crash a "
                    "fail-stop node twice"
                )
            self._armed.add(failure.node)

            def crash(f=failure):
                yield sim.timeout(f.time)
                if self.events.node_failed(f.node):
                    return  # already dead (e.g. STONITH'd deposed head)
                self.events.fail_node(f.node)
                self.injected.append(f)

            sim.process(crash(), name=f"failure@{failure.node}")


@dataclass(frozen=True)
class FailoverEvent:
    """Telemetry for one head failover (detection → election → resume)."""

    epoch: int
    old_head: int
    new_head: int
    failed_at: float
    declared_at: float
    elected_at: float
    resumed_at: float
    replayed_records: int
    redispatched_tasks: int

    @property
    def detection_time(self) -> float:
        """Crash (or STONITH of a falsely declared head) → quorum
        declaration."""
        return self.declared_at - self.failed_at

    @property
    def election_time(self) -> float:
        """Declaration → elected winner known."""
        return self.elected_at - self.declared_at

    @property
    def recovery_time(self) -> float:
        """Declaration → new head resumed dispatching (includes the
        announcement round and the log-replay rebuild)."""
        return self.resumed_at - self.declared_at


@dataclass
class FTRunResult(OMPCRunResult):
    """An :class:`~repro.core.runtime.OMPCRunResult` plus the outcome of
    the fault tolerance (``task_intervals`` keeps each task's last
    frame)."""

    failures: list[int] = field(default_factory=list)
    detections: list[tuple[int, int, float]] = field(default_factory=list)
    reexecuted_tasks: int = 0
    task_attempts: dict[int, int] = field(default_factory=dict)
    #: Suspect→confirm outcomes: suspicions the head's ping cleared, and
    #: detection errors against ground truth (a false positive is an
    #: alive node declared dead; a false negative is a crashed node the
    #: detector never declared).
    suspicions_cleared: int = 0
    false_positive_detections: int = 0
    false_negative_detections: int = 0
    #: Checkpoint activity (0 unless ``checkpoint_interval`` > 0).
    checkpoints_taken: int = 0
    checkpoint_restores: int = 0
    #: Straggler mitigation: backup dispatches issued / races they won.
    speculative_attempts: int = 0
    speculation_wins: int = 0
    #: Reliable-transport counters (drops, retransmissions, acks,
    #: duplicates) — empty dict when the fabric is clean.
    transport: dict[str, int] = field(default_factory=dict)
    #: Head-failover telemetry (zero/empty when the head survived or
    #: replication was off).
    head_failovers: int = 0
    failovers: list[FailoverEvent] = field(default_factory=list)
    #: The node serving as head when the run finished (0 = no failover).
    final_head: int = 0
    #: Commit-log / replication activity (``head_standbys > 0`` only).
    log_records_appended: int = 0
    replication_bytes: float = 0.0
    log_flushes: int = 0
    replication: dict[str, float] = field(default_factory=dict)
    #: Ring windows without a beat, or gossip probes without an ack.
    missed_heartbeat_windows: int = 0


class FaultTolerantRuntime:
    """OMPC with the §3.1 heartbeat/restart mechanism enabled.

    Runs on the plain runtime's :class:`~repro.core.runtime.HeadCore`
    (set-up, phases, frontier, failure sink, task frame, the one data
    plane and the result) and plugs in the fault tolerance: membership,
    head-state replication and failover, lineage and checkpoint
    recovery, and speculation (see the module docstring).
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: OMPCConfig | None = None,
        scheduler: Scheduler | None = None,
    ):
        if cluster_spec.num_nodes < 3:
            raise ValueError(
                "fault tolerance needs a head node plus at least two "
                "workers (a lone worker's failure is unrecoverable)"
            )
        self.cluster_spec = cluster_spec
        self.config = config or OMPCConfig()
        if self.config.head_shards > 1:
            raise ValueError(
                "FaultTolerantRuntime drives a single head; sharded "
                "runs (head_shards > 1) go through OMPCRuntime, which "
                "delegates to repro.core.shard.ShardedRuntime"
            )
        if self.config.broadcast_events:
            raise ValueError(
                "FaultTolerantRuntime never broadcasts: no guard races "
                "a broadcast against node death, so broadcast_events=True "
                "is rejected"
            )
        if self.config.write_detection == "page_protect":
            raise ValueError(
                "FaultTolerantRuntime commits each task's declared "
                "writes (its lineage and replica bookkeeping follow the "
                "dependences), so write_detection='page_protect' is "
                "rejected"
            )
        if not self.config.forwarding_enabled:
            raise ValueError(
                "FaultTolerantRuntime exchanges buffers worker to worker; "
                "staging through the head (forwarding_enabled=False) is "
                "rejected"
            )
        self.scheduler = scheduler or HeftScheduler()
        self.last_cluster: Cluster | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        program: OmpProgram,
        failures: Sequence[NodeFailure] = (),
        fault_plan: FaultPlan | None = None,
    ) -> FTRunResult:
        """Execute ``program`` on a fresh cluster and drive the clock."""
        main_proc, finish = self.launch(
            program, failures=failures, fault_plan=fault_plan
        )
        main_proc.sim.run(until=main_proc)
        return finish()

    def launch(
        self,
        program: OmpProgram,
        failures: Sequence[NodeFailure] = (),
        fault_plan: FaultPlan | None = None,
        cluster=None,
    ):
        """Set up one execution and return ``(main_process, finish)``,
        as :meth:`OMPCRuntime.launch` does (an external ``cluster``, in
        practice a :class:`~repro.cluster.partition.ClusterView`, joins
        an already-ticking simulation).  Failure times are relative to
        runtime startup.  A ``fault_plan`` cannot be combined with an
        external cluster: plans install on the physical machine, which
        the partition's owner must do before carving views.
        """
        failures = tuple(failures)
        if cluster is None:
            cluster = Cluster(self.cluster_spec)
        elif fault_plan is not None:
            raise ValueError(
                "fault_plan must be installed on the physical cluster, "
                "not passed to a launch on a shared cluster view"
            )
        cfg = self.config
        # The plan binds before the MPI world is built, and a lossy
        # fabric switches the reliable transport on: loss then costs
        # simulated time, not correctness.
        active = fault_plan.install(cluster) if fault_plan is not None else None
        ambient = active if active is not None else cluster.faults
        lossy = ambient is not None and ambient.plan.lossy
        core = HeadCore(self.cluster_spec, cfg, program, cluster,
                        result_type=FTRunResult,
                        transport=TransportConfig() if lossy else None)
        cluster = self.last_cluster = core.cluster
        sim, mpi, events, result = core.sim, core.mpi, core.events, core.result
        # Membership's communicators are numbered after the event
        # system's; ring or gossip, it feeds the same two callbacks.
        detector = FailureDetector.from_config(cluster, mpi, events, cfg)
        graph = program.graph
        # Head-state replication: standbys are the lowest-id workers;
        # they keep executing tasks like any other worker while also
        # mirroring the head's log.
        n_standbys = min(cfg.head_standbys, cluster.num_nodes - 1)
        repl = Replicator(
            sim, mpi, events, HeadLog(),
            standbys=list(range(1, 1 + n_standbys)), head=HOST,
        ) if n_standbys > 0 else None
        core.set_schedule(graph, self.scheduler.schedule(graph, cluster))
        head = FTHead(core, graph, repl, detector)

        detector.on_detect = head.handle_node_death
        detector.on_head_detect = head.replay.on_head_death
        core.guard = core.guarded
        core.on_commit = head.on_commit
        core.run_target = head.speculation.run_target
        # With replication on, a deferred DELETE racing a post-failover
        # re-materialization of the same buffer could destroy the only
        # live copy; the directory alone drops stale copies.
        core.tombstones = repl is not None
        injector = FailureInjector(events)

        def stop_services() -> None:
            head.checkpointer.stopped = True
            detector.stop()

        def main_body():
            yield from core.boot(head.home)
            detector.start()
            injector.arm(failures)
            if repl is not None:
                repl.start()
                head.replay.bootstrap()
            head.start_epoch()
            if repl is not None:
                yield from repl.flush()
            yield from core.plan_phase(
                core.frontier.pending, graph.num_edges,
                cluster.num_nodes - 1, origin=head.home,
            )
            head.dispatch_ready()
            while True:
                done = core.frontier.all_done
                yield events.race_failure([done], [head.home])
                if done.triggered:
                    break
                yield from head.replay.failover()
            stop_services()
            yield from core.teardown(head.home)

        main_proc = sim.process(
            core.drive(main_body(), on_abort=stop_services),
            name="ompc-ft-main",
        )

        def finish() -> FTRunResult:
            result.detections = list(detector.detections)
            result.task_attempts = dict(head.speculation.attempts)
            result.suspicions_cleared = detector.suspicions_cleared
            result.false_positive_detections = detector.false_positives
            declared = {d for d, _by, _t in detector.detections}
            result.false_negative_detections = len(
                {f.node for f in injector.injected} - declared
            )
            result.transport = dict(mpi.stats)
            result.missed_heartbeat_windows = detector.missed_windows
            result.final_head = head.home
            result.head_failovers = len(result.failovers)
            if repl is not None:
                result.log_records_appended = repl.log.appended
                result.replication_bytes = repl.stats["bytes_sent"]
                result.log_flushes = repl.stats["flushes"]
                result.replication = dict(repl.stats)
            core.finish(failed=core.dead)
            if active is not None:
                result.counters["faults.dropped_messages"] = (
                    active.dropped_messages
                )
            return result

        return main_proc, finish


class FTHead:
    """One launch's fault-tolerant head, shared by the plug-ins: the
    :class:`~repro.core.runtime.HeadCore` (plug-ins read the live
    ``core.dm``, which a failover replaces), the node acting as head
    (``home``), the log (``repl``, ``append``), every mapped buffer by
    id, and the recover step :meth:`execute` each task frame runs."""

    def __init__(self, core: HeadCore, graph, repl: Replicator | None,
                 detector: FailureDetector | None):
        self.core = core
        self.graph = graph
        self.home = HOST
        self.repl = repl
        self.append = (repl.append if repl is not None
                       else lambda *_a, **_k: None)
        self.slots = Resource(core.sim, capacity=core.cfg.head_threads,
                              name="head-threads")
        #: Head-side processes of the current head incarnation, all
        #: interrupted when it dies: its frames unwind before the
        #: successor rebuilds state, so no stale completion races it.
        self.epoch = ProcessGroup(core.sim, core.fail)
        self.buffers: dict[int, Buffer] = {
            b.buffer_id: b for t in graph.tasks() for b in t.touched
        }
        self.checkpointer = Checkpointer(self)
        self.replay = LogReplay(self, detector)
        self.speculation = Speculation(self)

    def live_workers(self) -> list[int]:
        return [n for n in range(1, self.core.cluster.num_nodes)
                if n not in self.core.dead]

    def target_node(self, task: Task) -> int:
        dead = self.core.dead
        forced = self.replay.forced_target.get(task.task_id)
        if forced is not None and forced not in dead:
            return forced
        node = self.core.schedule.node_of(task)
        if node == HOST:
            return self.home  # data stays with the (current) head
        if node in dead:
            # Deterministic re-map: spread by task id over survivors.
            survivors = self.live_workers()
            if not survivors:
                raise ClusterExhausted("all worker nodes have failed")
            node = survivors[task.task_id % len(survivors)]
        return node

    def handle_node_death(self, node: int, _by: int | None = None) -> None:
        """A worker is declared dead (the detector's ``on_detect``):
        recovery state updates at once, and in-flight guards race the
        failure event."""
        core = self.core
        if node in core.dead or node == self.home:
            return  # the head's own death is the failover path's job
        core.dead.add(node)
        core.dm.on_node_failure(node)
        # Forgetting the node frees its tiered memory.
        core._mem_wake()
        core.result.failures.append(node)
        self.append("node_dead", node=node)

    def on_commit(self, task: Task, node: int, buf, recovery: bool) -> None:
        if buf is None:
            self.core.dm.record_writes(task, recovery)
            if not recovery:
                self.append("task_done", task_id=task.task_id, node=node)
        elif task.kind == TaskKind.TARGET_ENTER_DATA:
            self.append("enter_data", buffer_id=buf.buffer_id, node=node)
        else:
            self.append("exit_data", buffer_id=buf.buffer_id, home=node)

    # -- dispatch ---------------------------------------------------------
    def spawn(self, task: Task) -> None:
        self.epoch.spawn(
            self.core.run_task(task, self.slots, self.complete,
                               origin=self.home, body=self.execute),
            name=f"ft-task:{task.name}",
        )

    def complete(self, task: Task) -> None:
        if task.kind.is_data_movement:
            # ENTER/EXIT completions carry no writes, so they are
            # logged here rather than through record_writes.
            self.append("task_done", task_id=task.task_id, node=self.home)
        frontier = self.core.frontier
        frontier.done(task)
        frontier.release(task, self.spawn)
        frontier.settle()

    def dispatch_ready(self) -> None:
        frontier = self.core.frontier
        for task in frontier.ready():
            self.spawn(task)
        frontier.settle()

    def start_epoch(self) -> None:
        """Spawn the head-side services of the current incarnation."""
        fo_epoch = self.core.fo_epoch
        if self.repl is not None:
            for s in self.repl.live_standbys():
                self.epoch.spawn(self.repl.pump(s),
                                 name=f"repl-pump{s}.e{fo_epoch}")
        if self.core.cfg.checkpoint_interval > 0:
            self.epoch.spawn(self.checkpointer.run(),
                             name=f"ft-checkpoint.e{fo_epoch}")

    def execute(self, task: Task, chain: frozenset = frozenset()):
        """Generator: run ``task`` to completion through the core's
        frames, retrying a frame a node death failed on a fresh plan.

        Before each frame the buffers it reads get a live copy
        (lineage or checkpoint recovery, carrying ``chain``; a
        non-empty ``chain`` marks a lineage re-execution).
        """
        core = self.core
        recovery = bool(chain)
        attempts = self.speculation.attempts
        while True:
            node = self.target_node(task)
            attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
            if self.repl is not None and not recovery:
                yield from self._log_dispatch(task, node)
            try:
                if task.kind != TaskKind.CLASSICAL:
                    entering = task.kind == TaskKind.TARGET_ENTER_DATA
                    for buf in task.buffers if entering else task.reads:
                        yield from self.ensure_available(buf, chain)
                dedup = (not recovery
                         and task.task_id in self.replay.forced_target)
                yield from core._run_by_kind(task, self.home, dedup, node,
                                             recovery)
                return
            except _NodeCrashed as crash:
                if crash.node == self.home:
                    # The head itself died under this frame; the
                    # failover path owns recovery — park until the
                    # epoch teardown interrupts us.
                    yield core.sim.event("park-for-failover")
                self.handle_node_death(crash.node)  # retry on a survivor

    def _log_dispatch(self, task: Task, node: int):
        fence = False
        if task.kind in (TaskKind.CLASSICAL, TaskKind.TARGET):
            self.append(
                "dispatch", task_id=task.task_id,
                node=self.home if task.kind == TaskKind.CLASSICAL else node,
            )
            # INOUT fence: an ambiguous in-place mutation must be
            # *detectable* from every replica before it can happen.
            fence = any(d.type.writes and d.type.reads for d in task.deps)
        yield from self.repl.flush() if fence else self.repl.throttle()

    def ensure_available(self, buffer: Buffer, chain: frozenset = frozenset()):
        """Generator: guarantee a live copy of ``buffer`` exists, read
        off its write record in the directory.

        ``chain`` carries the buffer ids already being recovered on
        this call stack: needing one of them again means the lost
        value can only be rebuilt from itself (an in-place/INOUT
        producer), which is unrecoverable *without checkpoints* —
        with checkpointing on, the snapshot breaks the cycle.
        """
        core = self.core
        bid = buffer.buffer_id
        while True:
            rec = core.dm.writes(bid)
            if rec.recovering is not None and bid not in chain:
                # Someone else is recovering it: a location the
                # re-execution lists may not hold the value yet.
                yield rec.recovering
                continue
            if core.dm.locations(buffer) - core.dead:
                return
            if bid in chain:
                if rec.checkpoint is None:
                    raise RecoveryError(
                        f"buffer {buffer.name} can only be rebuilt "
                        "from its own lost value (in-place producer); "
                        "checkpoint-free lineage recovery cannot help"
                    )
                # A recursive loss mid-replay of this very buffer:
                # the in-flight restore sequence is void, tell the
                # owning frame to start over from the snapshot.
                raise _RecoveryRestart(bid)
            if rec.checkpoint is None and rec.writer is None:
                raise RecoveryError(
                    f"buffer {buffer.name} lost with no recorded "
                    "producer; its initial value existed only on the "
                    "failed node"
                )
            done = rec.recovering = core.sim.event(f"recover:{buffer.name}")
            try:
                if rec.checkpoint is not None:
                    yield from self.restore_and_replay(buffer, chain)
                else:
                    yield from self.execute(rec.writer, chain | {bid})
                    core.result.reexecuted_tasks += 1
            finally:
                rec.recovering = None
                done.succeed()

    def restore_and_replay(self, buffer: Buffer, chain: frozenset):
        """Generator: rebuild ``buffer`` from its newest checkpoint.

        Restores the snapshot to the head, then replays — in commit
        order, each task once — every write newer than the snapshot, so
        multi-step in-place chains come back complete, not just their
        last link.  If a replayed copy is lost again mid-sequence the
        whole sequence restarts from a fresh restore (partial replays
        would otherwise double-apply in-place writes).
        """
        core = self.core
        bid = buffer.buffer_id
        while True:
            rec = core.dm.writes(bid)
            version, snap = rec.checkpoint
            _restore_into(buffer, snap)
            core.dm.commit_restore(buffer)
            core.result.checkpoint_restores += 1
            core.obs.count("ft.checkpoint_restores")
            pending = {t.task_id: t for t in rec.history[version:]}
            try:
                for task in pending.values():
                    yield from self.execute(task, chain | {bid})
                    core.result.reexecuted_tasks += 1
            except _RecoveryRestart as restart:
                if restart.buffer_id != bid:
                    raise
                continue
            return


# -- the recovery plug-ins ------------------------------------------------
class Checkpointer:
    """Periodic head-side snapshots (``OMPCConfig.checkpoint_interval``).

    Each snapshot is retrieved through the event system, so checkpoint
    traffic is charged like any other data movement.  Only buffers
    written since their last snapshot are refreshed; one written again
    during its retrieve waits for the next round.  Each head epoch runs
    one :meth:`run` loop against the current directory's write records.
    """

    def __init__(self, head: FTHead):
        self.head = head
        self.stopped = False

    def run(self):
        """Generator: snapshot the written buffers every interval."""
        head = self.head
        core = head.core
        while not self.stopped:
            yield core.sim.timeout(core.cfg.checkpoint_interval)
            if self.stopped:
                return
            dm, home = core.dm, head.home
            for bid in dm.written():
                buf, rec = head.buffers[bid], dm.writes(bid)
                version = rec.version
                if rec.checkpoint and rec.checkpoint[0] >= version:
                    continue  # snapshot already current
                locations = dm.locations(buf) - core.dead
                if not locations:
                    continue  # already lost; recovery owns it now
                src = dm.latest(buf)
                if src in core.dead or src not in locations:
                    src = home if home in locations else min(locations)
                payload = buf.data
                if src != home:
                    try:
                        payload = yield from core.guard([src], (
                            core.events.retrieve(src, bid, buf.nbytes,
                                                 origin=home)))
                    except _NodeCrashed as crash:
                        head.handle_node_death(crash.node)
                        continue
                    if rec.version != version:
                        continue  # changed mid-flight; next round
                rec.checkpoint = (version, _snapshot(payload))
                core.result.checkpoints_taken += 1
                core.obs.count("ft.checkpoints")
                # Snapshots ride the log by reference: the stored copy
                # is pristine (restores copy out of it), so sharing it
                # with the replicas is safe.
                head.append(
                    "checkpoint", nbytes=LOG_RECORD_BYTES + buf.nbytes,
                    buffer_id=bid, version=version, snap=rec.checkpoint[1],
                )


class LogReplay:
    """Head failover: elect a standby, replay its log, resume.

    The log starts with every buffer's initial value (:meth:`bootstrap`).
    On a confirmed head death (:meth:`on_head_death`) :meth:`failover`
    ends the dead head's epoch, elects a standby and installs the state
    :meth:`rebuild` replays from its replica, including
    ``forced_target``: in-doubt tasks go back to their surviving target
    with ``dedup=True``, so it answers work it already ran from its
    completion table.
    """

    def __init__(self, head: FTHead, detector: FailureDetector | None):
        self.head = head
        self.detector = detector
        self.forced_target: dict[int, int] = {}
        self._declared: dict[int, Any] = {}

    def _declared_event(self, node: int):
        if node not in self._declared:
            self._declared[node] = self.head.core.sim.event(
                f"head-declared:{node}")
        return self._declared[node]

    def on_head_death(self, node: int, by: int) -> None:
        """Detector verdict on the head (``on_head_detect``): STONITH,
        then wake failover.  A falsely declared head is killed for real
        before any successor takes over — two live heads racing the same
        workers would be worse than one wrongly lost node."""
        core = self.head.core
        core.events.fail_node(node)
        ev = self._declared_event(node)
        if not ev.triggered:
            ev.succeed((by, core.sim.now))

    def bootstrap(self) -> None:
        """Log every buffer's pristine initial value, so even a
        first-write INOUT loss is restorable after failover (the caller
        flushes it to every standby before any task may run)."""
        buffers = self.head.buffers
        ids = sorted(buffers)
        self.head.append(
            "bootstrap",
            nbytes=LOG_RECORD_BYTES + sum(buffers[b].nbytes for b in ids),
            snapshots=tuple((b, _snapshot(buffers[b].data)) for b in ids),
        )

    def rebuild(self, old_head: int):
        """Replay the log into one fresh directory (locations and write
        records) for the elected ``head.home``: ``(dm, frontier,
        forced_target, in_doubt)``, where ``forced_target`` maps in-doubt
        tasks (a dispatch with no completion) to their surviving target
        and ``in_doubt`` counts them.

        Only *logged* transitions are replayed — completions, data
        enter/exit, node deaths, checkpoints (bootstrap: version 0) —
        which yields a conservative directory: every logged write
        pinned its buffer to the writing node, so dropping knowledge of
        intermediate moves can only forget extra replicas, never invent
        one.
        Writes are replayed for classical and target completions only,
        as the live head records them, so replayed versions equal the
        live ones.
        """
        head = self.head
        core, graph, home = head.core, head.graph, head.home
        dead, events = core.dead, core.events
        dm = DataManager(analysis=core.dm.analysis)
        completed: set[int] = set()
        dispatched: dict[int, int] = {}
        dropped: set[int] = set()
        for rec in head.repl.log.records:
            d = rec.data
            if rec.kind == "bootstrap":
                for bid, snap in d["snapshots"]:
                    dm.writes(bid).checkpoint = (0, snap)
            elif rec.kind == "dispatch":
                dispatched[d["task_id"]] = d["node"]
            elif rec.kind == "task_done":
                tid = d["task_id"]
                completed.add(tid)
                dispatched.pop(tid, None)
                task = graph.task(tid)
                if not task.kind.is_data_movement:
                    dm.record_writes(task)
                if task.kind == TaskKind.TARGET:
                    dm.commit_task_done(task, d["node"])
            elif rec.kind == "enter_data":
                dm.commit_enter_data(head.buffers[d["buffer_id"]], d["node"])
            elif rec.kind == "exit_data":
                # Apply with the home that was current when logged.
                dm.rehome(d["home"])
                dm.commit_exit_data(head.buffers[d["buffer_id"]])
            elif rec.kind == "node_dead":
                dropped.add(d["node"])
                if d["node"] != dm.home:
                    dm.on_node_failure(d["node"])
            elif rec.kind == "checkpoint":
                dm.writes(d["buffer_id"]).checkpoint = (d["version"], d["snap"])
        dm.rehome(home)
        for n in sorted((dead | {old_head}) - dropped):
            if n != home:
                dm.on_node_failure(n)
                head.append("node_dead", node=n)
        # Completed-but-unreplicated work re-runs; the worker-side dedup
        # and epoch fencing keep that idempotent on a surviving target.
        in_doubt = sorted(set(dispatched) - completed)
        forced_target: dict[int, int] = {}
        for tid in in_doubt:
            node = dispatched[tid]
            if node != old_head:
                if node not in dead and not events.node_failed(node):
                    forced_target[tid] = node
                    continue
                # In-doubt target (declared dead but physically still
                # running): fence it for real so no zombie in-place
                # mutation can land after the restore below.
                events.fail_node(node)
            for dep in graph.task(tid).deps:
                if dep.type.writes and dep.type.reads:
                    # The lost dispatch may or may not have applied its
                    # in-place mutation; only a snapshot restore plus
                    # write-log replay is well-defined.
                    dm.invalidate(dep.buffer)
        if core.dm.tiering is not None:
            # Re-arm the tiered store: every replica the log knows about
            # is charged; the ones it forgot are tombstones the eviction
            # pass collects.
            configure_tiering(dm, core.cfg, core.cluster)
            for bid in sorted(head.buffers):
                buf = head.buffers[bid]
                for n in sorted(dm.locations(buf)):
                    if n not in dead and dm.tiered(n):
                        dm.tiering.charge(n, buf)
        return (dm, Frontier(core.sim, graph, completed), forced_target,
                len(in_doubt))

    def failover(self):
        """Generator: elect, adopt, rebuild, resume (one head death)."""
        head = self.head
        core, repl = head.core, head.repl
        sim, events, dead = core.sim, core.events, core.dead
        old_head = head.home
        failed_at = sim.now
        # Tear down the dead head's epoch first: every head-side
        # frame unwinds before the successor rebuilds state.
        head.epoch.end("head failover")
        if repl is None:
            raise RecoveryError(
                "head node failed with no standbys configured "
                "(OMPCConfig.head_standbys = 0); head state is "
                "unrecoverable"
            )
        if old_head not in dead:
            dead.add(old_head)
            core.result.failures.append(old_head)
        if not any(
            n != old_head and not events.node_failed(n)
            for n in range(core.cluster.num_nodes)
        ):
            raise RecoveryError("head node failed and no live node "
                                "remains to elect a successor")
        by, declared_at = yield self._declared_event(old_head)
        taken = yield from repl.take_over(
            by, exclude=frozenset(dead | self.detector.dead | {old_head})
        )
        if taken is None:
            raise RecoveryError(
                "head node failed and no live standby replica "
                "survives to take over (raise "
                "OMPCConfig.head_standbys)"
            )
        head.home, elected_at = taken
        core.fo_epoch = repl.log.epoch
        self.detector.rebase(head.home)
        yield from repl.replay()
        (core.dm, core.frontier, self.forced_target,
         redispatched) = self.rebuild(old_head)
        head.start_epoch()
        core.result.failovers.append(FailoverEvent(
            epoch=repl.log.epoch, old_head=old_head, new_head=head.home,
            failed_at=failed_at, declared_at=declared_at,
            elected_at=elected_at, resumed_at=sim.now,
            replayed_records=len(repl.log.records),
            redispatched_tasks=redispatched,
        ))
        core.obs.count("ft.head_failovers")
        # Relaunch whatever the rebuilt frontier finds runnable.
        head.dispatch_ready()


class Speculation:
    """Straggler mitigation (``OMPCConfig.straggler_factor``), installed
    as the core's target frame (``HeadCore.run_target``).  ``attempts``
    counts frame attempts per task id (``FTRunResult.task_attempts``).
    """

    def __init__(self, head: FTHead):
        self.head = head
        self.attempts: dict[int, int] = {}
        #: Ids of speculative attempts (the loser's EXECUTE is revoked).
        self._exec_attempt = itertools.count(1)

    def speculatable(self, task: Task) -> bool:
        """Target tasks eligible for speculative re-dispatch.

        Only pure-``out`` writers qualify: a losing attempt's kernel
        launch is revoked, but one that already ran merely rewrote
        outputs it fully overwrites — the same idempotence contract
        lineage recovery relies on.  INOUT writers are excluded.
        """
        core = self.head.core
        return (
            core.cfg.straggler_factor > 0
            # Speculation doubles a task's transient footprint (both
            # attempts stage full working sets); under a bounded
            # device budget the duplicate attempt could itself force
            # the eviction storm it is trying to outrun, so tiered
            # runs fall back to plain (admission-controlled) dispatch.
            and core.dm.tiering is None
            and task.kind == TaskKind.TARGET
            and task.cost > 0
            and all(not (d.type.writes and d.type.reads) for d in task.deps)
            and len(self.head.live_workers()) > 1
        )

    def run_target(self, task: Task, node: int, origin: int, dedup: bool,
                   attempt: int = 0, recovery: bool = False):
        """Generator: the core's target frame.  A speculatable task's
        primary attempt gets ``straggler_factor`` times its cost
        estimate; past that a backup starts on another live worker, the
        first to finish wins, and the loser's kernel launch is revoked
        so a late finish cannot clobber downstream writes."""
        core = self.head.core
        if not self.speculatable(task):
            yield from core._run_target(task, node, origin, dedup, attempt,
                                        recovery)
            return
        sim = core.sim

        def attempt_on(n: int, label: str):
            att = next(self._exec_attempt)
            proc = sim.process(
                core._run_target(task, n, origin, dedup, att, recovery),
                name=f"ft-spec:{task.name}.{label}",
            )
            settled = sim.event(f"settle:{task.name}.{label}")
            proc.add_callback(lambda _ev: settled.succeed())
            return proc, att, settled

        estimate = core.cluster.node(node).compute_time(task.cost)
        primary, attempt_a, p_done = attempt_on(node, "a")
        yield AnyOf(sim, [
            p_done, sim.timeout(core.cfg.straggler_factor * estimate)
        ])
        spare = [n for n in self.head.live_workers() if n != node]
        if primary.triggered or not spare:
            if not primary.triggered:
                yield p_done  # no spare worker: wait the straggler out
            if not primary.ok:
                raise primary.value
            return
        self.attempts[task.task_id] = self.attempts.get(task.task_id, 0) + 1
        core.result.speculative_attempts += 1
        core.obs.count("ft.speculative_attempts")
        backup, attempt_b, b_done = attempt_on(
            spare[task.task_id % len(spare)], "b")
        yield AnyOf(sim, [p_done, b_done])
        first, second, second_att, second_done = (
            (primary, backup, attempt_b, b_done) if primary.triggered
            else (backup, primary, attempt_a, p_done)
        )
        if first.ok:
            core.events.cancel_execution(task.task_id, second_att)
            if second.is_alive:
                second.interrupt("lost speculation race")
        else:
            # The first finisher crashed; absorb its node's death and
            # let the surviving attempt decide the task.
            if not isinstance(first.value, _NodeCrashed):
                raise first.value
            self.head.handle_node_death(first.value.node)
            if not second.triggered:
                yield second_done
            if not second.ok:
                raise second.value  # both attempts crashed: retry
            first = second
        if first is backup:
            core.result.speculation_wins += 1


def _snapshot(payload: Any) -> Any:
    """A pristine copy of a device payload for checkpoint storage."""
    if payload is None:
        return None
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return _copy.deepcopy(payload)


def _restore_into(buffer: Any, snapshot: Any) -> None:
    """Restore a snapshot into a buffer, preserving payload identity.

    Payloads travel by reference in the simulation, so host code may
    hold the very array object ``buffer.data`` points at.  Copying the
    snapshot *into* that array (rather than rebinding ``buffer.data`` to
    a fresh one) keeps those aliases live across a recovery — matching
    OpenMP mapped-buffer semantics, where the original host storage is
    what gets refilled.
    """
    fresh = _snapshot(snapshot)  # the stored copy stays pristine
    data = buffer.data
    if (
        isinstance(data, np.ndarray)
        and isinstance(fresh, np.ndarray)
        and data.shape == fresh.shape
        and data.dtype == fresh.dtype
    ):
        np.copyto(data, fresh)
    else:
        buffer.data = fresh


class _RecoveryRestart(Exception):
    """Internal control flow: a checkpoint restore sequence was itself
    hit by a failure and must start over from the snapshot."""

    def __init__(self, buffer_id: int):
        super().__init__(f"recovery of buffer {buffer_id} must restart")
        self.buffer_id = buffer_id
