"""Fault tolerance: failure detection, failure injection, task restart.

§3.1: "each node in OMPC (head node and worker nodes) has a heart-beat
mechanism, connected in a ring topology, which allows nodes to monitor
their neighbors.  Thus, if a node fails, the system detects and
restarts the failed tasks.  Fault tolerance work on OMPC is underway
and will be released in a future version."

This module implements that future version on the simulated cluster.
:class:`~repro.core.gossip.FailureDetector` (the §3.1 ring, or SWIM
gossip with ``OMPCConfig.gossip``) suspects a node that misses beats
and declares it dead once a direct ping fails; :class:`FailureInjector`
crashes chosen nodes at chosen times.  :class:`FaultTolerantRuntime`
drives every plane's :class:`~repro.core.runtime.Head` and frames as an
:class:`FTHead`, wired to plug-ins on the core's hooks, each testable
without a cluster:

- recovery has one planner, :func:`plan_recovery`, a pure function of
  the directory (its holders and its per-buffer
  :class:`~repro.core.datamanager.WriteRecord` versions).  Before each
  frame, :meth:`FTHead.recover` plans the versions the task reads that
  no live node holds: checkpoint restores, then replays of their
  producers bound to the versions those read.  A worker death and a
  head failover's in-doubt tasks go through it alike;
- :class:`Checkpointer` snapshots written buffers head-side
  (``OMPCConfig.checkpoint_interval``);
- :class:`LogReplay` is head failover (below);
- :class:`Speculation` (``OMPCConfig.straggler_factor``) gives a
  too-slow task a second attempt elsewhere; the first to finish wins.

An unrecoverable loss raises :class:`RecoveryError`, naming the task,
buffer and version.

**The head node may fail too.**  With ``OMPCConfig.head_standbys > 0``
the head streams its commit log (completions, data enter and exit,
checkpoints, dispatch intents) to standby workers
(:mod:`repro.core.headlog`).  When a quorum of two nodes confirms the
head dead, the most-caught-up standby takes over as every head does
(:meth:`~repro.core.runtime.Head.take_over`) and :meth:`LogReplay.rebuild`
replays its log into a fresh directory and frontier.  The dispatches it
leaves in doubt are re-issued; a worker answers a
re-issue from its completion table only while it still holds the
versions that task wrote, and fences old-epoch zombies.  A head crash
with no live standby raises :class:`RecoveryError`.  A lossy
:class:`~repro.core.faultmodel.FaultPlan` switches the reliable MPI
transport on, so loss costs simulated time, not correctness.
"""

from __future__ import annotations

import copy as _copy
import itertools

import numpy as np
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.datamanager import HOST, DataManager
from repro.core.events import EventSystem
from repro.core.faultmodel import FaultPlan
from repro.core.gossip import FailureDetector
from repro.core.headlog import LOG_RECORD_BYTES, HeadLog, Replicator
from repro.core.runtime import (
    Frontier,
    Head,
    HeadCore,
    OMPCRunResult,
    _NodeCrashed,
    configure_tiering,
)
from repro.core.scheduler import HeftScheduler, Scheduler
from repro.omp.api import OmpProgram
from repro.omp.task import Buffer, Task, TaskKind
from repro.sim.errors import SimulationError
from repro.sim.primitives import AnyOf

class RecoveryError(SimulationError):
    """A lost buffer cannot be reconstructed from surviving data."""


class ClusterExhausted(RecoveryError):
    """Every worker of the (sub)cluster was declared dead, so a workload
    manager can tell "this partition is gone" (requeue the one job) from
    "this buffer is unrecoverable"."""


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
    """Schedules crashes against a running event system, on every
    control plane.  Any node may be crashed, the head (node 0) included,
    but only once: fail-stop nodes do not die twice."""

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
                raise ValueError(f"node {failure.node} already has an "
                                 "armed failure; it cannot crash twice")
            self._armed.add(failure.node)

            def crash(f=failure):
                yield sim.timeout(f.time)
                if self.events.node_failed(f.node):
                    return  # already dead (e.g. STONITH'd deposed head)
                self.events.fail_node(f.node)
                self.injected.append(f)

            sim.process(crash(), name=f"kill@{failure.node}")


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
        """Crash (or STONITH of a falsely declared head) → declaration."""
        return self.declared_at - self.failed_at

    @property
    def election_time(self) -> float:
        """Declaration → elected winner known."""
        return self.elected_at - self.declared_at

    @property
    def recovery_time(self) -> float:
        """Declaration → new head resumed (announcement and rebuild)."""
        return self.resumed_at - self.declared_at


@dataclass
class FTRunResult(OMPCRunResult):
    """An :class:`~repro.core.runtime.OMPCRunResult` plus the fault
    tolerance's outcome (``task_intervals`` keeps each last frame)."""

    failures: list[int] = field(default_factory=list)
    detections: list[tuple[int, int, float]] = field(default_factory=list)
    reexecuted_tasks: int = 0
    task_attempts: dict[int, int] = field(default_factory=dict)
    #: Suspicions the head's ping cleared; alive nodes declared dead and
    #: crashed nodes never declared.
    suspicions_cleared: int = 0
    false_positive_detections: int = 0
    false_negative_detections: int = 0
    #: Checkpoint activity (0 unless ``checkpoint_interval`` > 0).
    checkpoints_taken: int = 0
    checkpoint_restores: int = 0
    #: Straggler mitigation: backup dispatches issued / races they won.
    speculative_attempts: int = 0
    speculation_wins: int = 0
    #: Reliable-transport counters (empty when the fabric is clean).
    transport: dict[str, int] = field(default_factory=dict)
    #: Head-failover telemetry (empty when the head survived).
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
    """OMPC with the §3.1 heartbeat/restart mechanism enabled: the
    plain runtime's :class:`~repro.core.runtime.HeadCore` plus the fault
    tolerance plug-ins of the module docstring."""

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
        as :meth:`OMPCRuntime.launch` does.  Failure times are relative
        to runtime startup.  A ``fault_plan`` installs on the physical
        machine, so it cannot come with an external ``cluster`` view.
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
        # The plan binds before the MPI world is built (a lossy fabric
        # switches the reliable transport on).
        active = fault_plan.install(cluster) if fault_plan is not None else None
        core = HeadCore(self.cluster_spec, cfg, program, cluster,
                        result_type=FTRunResult)
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
                repl.start(core.services.spawn)
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
                    if not done.ok:
                        # The run failed in the instant the head died.
                        raise done.value
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


class FTHead(Head):
    """One launch's fault-tolerant :class:`~repro.core.runtime.Head`,
    shared by the plug-ins: the core (whose ``dm`` a failover replaces),
    every mapped buffer by id, and the task body :meth:`execute` with
    its :meth:`recover`.  Its log rebuilds the directory."""

    logs_commits = True

    def __init__(self, core: HeadCore, graph, repl: Replicator | None,
                 detector: FailureDetector | None):
        super().__init__(core, HOST, repl, frame="ft-task:")
        self.graph = graph
        self.buffers: dict[int, Buffer] = {
            b.buffer_id: b for t in graph.tasks() for b in t.touched
        }
        #: :meth:`recover`'s holds by buffer id, replays, and wake event.
        self.held: dict[int, int] = {}
        self.replaying: set[int] = set()
        self._turn = None
        self.checkpointer = Checkpointer(self)
        self.replay = LogReplay(self, detector)
        self.speculation = Speculation(self)

    def close(self) -> None:
        """The run ended: unlink each plug-in from this head; the result
        still reads ``speculation.attempts``."""
        for plugin in (self.checkpointer, self.replay, self.speculation):
            plugin.head = None

    def live_workers(self) -> list[int]:
        return [n for n in range(1, self.core.cluster.num_nodes)
                if n not in self.core.dead]

    def target_node(self, task: Task) -> int:
        dead = self.core.dead
        forced = self.in_doubt.get(task.task_id)
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

    def on_commit(self, task: Task, node: int, buf) -> None:
        if buf is None:
            if task.task_id in self.replaying:
                return  # a replay re-derives versions already committed
            self.core.dm.record_writes(task)
            self.append("task_done", task_id=task.task_id, node=node)
        elif task.kind == TaskKind.TARGET_ENTER_DATA:
            self.append("enter_data", buffer_id=buf.buffer_id, node=node)
        else:
            self.append("exit_data", buffer_id=buf.buffer_id, home=node)

    def pump_name(self, standby: int) -> str:
        return f"repl-pump{standby}.e{self.core.fo_epoch}"

    def start_epoch(self) -> None:
        """Spawn the head-side services of the current incarnation."""
        super().start_epoch()
        if self.core.cfg.checkpoint_interval > 0:
            self.epoch.spawn(self.checkpointer.run(),
                             name=f"ft-checkpoint.e{self.core.fo_epoch}")

    def execute(self, task: Task):
        """Generator: run ``task`` through the core's frames after
        :meth:`recover`, retrying an attempt a node death failed."""
        core = self.core
        attempts = self.speculation.attempts
        while True:
            node = self.target_node(task)
            attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
            yield from self.log_dispatch(task, node)
            try:
                yield from self.recover(task)
                try:
                    yield from core._run_by_kind(
                        task, self.home, task.task_id in self.in_doubt, node)
                finally:
                    self._hold({b.buffer_id for b in task.writes}, False)
                return
            except _NodeCrashed as crash:
                if crash.node == self.home:
                    # The head died under this frame: park until the
                    # failover's epoch teardown interrupts us.
                    yield core.sim.event("park-for-failover")
                self.handle_node_death(crash.node)  # retry on a survivor

    def recover(self, task: Task):
        """Generator: give each version ``task`` reads a live copy (the
        steps of :func:`plan_recovery`, run through the core's frames),
        then hold what ``task`` writes until its frame ends.  A frame or
        plan waits while another holds a buffer it touches, then plans
        again, so frames share a plan and no writer overwrites a version
        a step reads; a step whose node dies voids its plan's rebuilds."""
        core = self.core
        reads = (() if task.kind == TaskKind.CLASSICAL else task.buffers
                 if task.kind == TaskKind.TARGET_ENTER_DATA else task.reads)
        mine = {b.buffer_id for b in task.touched}
        while True:
            dm = core.dm
            try:
                steps = plan_recovery(dm, [(task, b, dm.version(b.buffer_id))
                                           for b in reads], core.dead)
            except RecoveryError:
                if not self.replaying:
                    raise
                steps = None  # plan again once the plan in flight ends
            planned = {b.buffer_id for s in steps or ()
                       for b, _v in s.reads + s.outputs}
            if steps is None or not self.held.keys().isdisjoint(mine | planned):
                if self._turn is None:
                    self._turn = core.sim.event("recovery-turn")
                yield self._turn
                continue
            if not steps:
                return self._hold({b.buffer_id for b in task.writes}, True)
            rebuilt = [b for s in steps for b, _v in s.outputs
                       if not dm.locations(b) - core.dead]
            self._hold(planned, True)
            try:
                for step in steps:
                    yield from self._run_step(step)
            except _NodeCrashed as crash:
                if crash.node == self.home:
                    raise
                self.handle_node_death(crash.node)
                for buf in rebuilt:
                    core.dm.invalidate(buf)
            finally:
                self._hold(planned, False)

    def _run_step(self, step):
        """Generator: one recovery step, through the core's frames."""
        core = self.core
        if isinstance(step, Restore):
            ((buf, _version),) = step.outputs
            _restore_into(buf, step.snapshot)
            core.dm.commit_restore(buf)
            core.result.checkpoint_restores += 1
            core.obs.count("ft.checkpoint_restores")
            return
        self.replaying.add(step.task.task_id)
        try:
            yield from core._run_by_kind(step.task, self.home, False,
                                         self.target_node(step.task))
        finally:
            self.replaying.discard(step.task.task_id)
        core.result.reexecuted_tasks += 1

    def _hold(self, bids, take: bool) -> None:
        """Take or free a hold on buffer ids; a free wakes the frames
        :meth:`recover` keeps waiting."""
        held = self.held
        for bid in bids:
            held[bid] = held.get(bid, 0) + (1 if take else -1)
            if not held[bid]:
                del held[bid]
        if not take and self._turn is not None:
            self._turn, turn = None, self._turn
            turn.succeed()


class Replay(NamedTuple):
    """A recovery step: re-run ``task`` on the versions it ``reads``."""

    task: Task
    reads: tuple
    outputs: tuple


class Restore(NamedTuple):
    """A recovery step: copy back the checkpointed one of ``outputs``."""

    snapshot: Any
    outputs: tuple
    reads: tuple = ()


def plan_recovery(dm: DataManager, needed, dead=frozenset()) -> list:
    """The ordered steps that give every needed version a live copy.

    ``needed`` holds ``(task, buffer, version)``: a pending ``task``
    reads that version.  A lost one (no holder outside ``dead``) is
    rebuilt from a checkpoint (:class:`Restore`) or a whole-buffer
    producer, then a :class:`Replay` of each later producer bound to the
    versions it read, planned first; it ends at its holders' version.
    One with no live copy, checkpoint or producer, or overwritten by a
    newer one (a buffer's copies share one payload), raises
    :class:`RecoveryError` naming task, buffer and version up front."""
    steps: list = []
    made: dict[int, int] = {}  # buffer id -> the version the plan leaves
    bufs: dict[int, Buffer] = {}

    def fail(task, buf, version, why):
        raise RecoveryError(f"task {task.name} needs buffer {buf.name} at "
                            f"version {version}, which {why}")

    def need(task, buf, version):
        bid, rec = buf.buffer_id, dm.writes(buf.buffer_id)
        bufs[bid] = buf
        if bid not in made:
            if dm.locations(buf) - dead:
                if version != rec.version:
                    fail(task, buf, version, "a newer version overwrote")
                return
            start = version  # the newest producer reading no old value
            while start and any(b is buf for b, _v in
                                rec.history[start - 1].reads):
                start -= 1
            ckpt = rec.checkpoint
            if ckpt is not None and start <= ckpt[0] <= version:
                steps.append(Restore(ckpt[1], ((buf, ckpt[0]),)))
                made[bid] = ckpt[0]
            elif start:
                replay(rec.history[start - 1])
            else:
                fail(task, buf, version, "has no live copy, no checkpoint "
                     "and " + ("only an in-place producer" if rec.history
                               else "no producer"))
        if made[bid] > version:
            fail(task, buf, version, "its rebuild has already passed")
        while made[bid] < version:
            replay(rec.history[made[bid]])

    def replay(write):
        task, outputs = write.task, []
        for buf, version in write.reads:
            need(task, buf, version)
        for bid, version in dm.outputs(task):
            buf = bufs[bid] = next(b for b in task.writes
                                   if b.buffer_id == bid)
            at = made.get(bid)
            if at is None and dm.locations(buf) - dead and (
                    version != dm.version(bid)):
                fail(task, buf, version, "a newer live version would lose")
            if at is not None and at >= version:
                fail(task, buf, version, "its rebuild has already passed")
            made[bid] = version
            outputs.append((buf, version))
        steps.append(Replay(task, write.reads, tuple(outputs)))

    try:
        for task, buf, version in needed:
            need(task, buf, version)
        while True:  # bring every rebuilt buffer to its current version
            behind = [bufs[b] for b, at in made.items()
                      if at < dm.version(b)]
            if not behind:
                return steps
            for buf in behind:
                need(needed[0][0], buf, dm.version(buf.buffer_id))
    finally:
        # ``need`` and ``replay`` close over each other: unlink them so
        # reference counting frees both closures.
        del need, replay


# -- the recovery plug-ins ------------------------------------------------
class Checkpointer:
    """Periodic head-side snapshots (``OMPCConfig.checkpoint_interval``),
    retrieved through the event system like any data movement.  Only
    buffers written since their last snapshot are refreshed; one written
    again during its retrieve waits for the next round."""

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
    """Head failover: on a confirmed head death :meth:`failover` has a
    standby take the head over (:meth:`Head.take_over
    <repro.core.runtime.Head.take_over>`) and installs what
    :meth:`rebuild` replays from its log, which starts with every
    buffer's initial value (:meth:`bootstrap`)."""

    def __init__(self, head: FTHead, detector: FailureDetector | None):
        self.head = head
        self.detector = detector
        self._declared: dict[int, Any] = {}

    def _declared_event(self, node: int):
        if node not in self._declared:
            self._declared[node] = self.head.core.sim.event(
                f"head-declared:{node}")
        return self._declared[node]

    def on_head_death(self, node: int, by: int) -> None:
        """Detector verdict on the head: STONITH, then wake failover (a
        falsely declared head is killed for real: two live heads racing
        the same workers would be worse than one wrongly lost node)."""
        core = self.head.core
        core.events.fail_node(node)
        ev = self._declared_event(node)
        if not ev.triggered:
            ev.succeed((by, core.sim.now))

    def bootstrap(self) -> None:
        """Log every buffer's initial value (version 0), flushed to every
        standby before any task runs."""
        buffers = self.head.buffers
        ids = sorted(buffers)
        self.head.append(
            "bootstrap",
            nbytes=LOG_RECORD_BYTES + sum(buffers[b].nbytes for b in ids),
            snapshots=tuple((b, _snapshot(buffers[b].data)) for b in ids),
        )

    def rebuild(self, old_head: int):
        """Replay the log into one fresh directory (locations and
        versions) for the elected ``head.home``: ``(dm, frontier,
        in_doubt)``, ``in_doubt`` counting the head's in-doubt tasks (a
        dispatch with no completion).  Those whose target lives stay in
        ``head.in_doubt`` and go back there; their frames plan what they
        read like any other.  Only logged transitions replay (bootstrap
        snapshots are version-0 checkpoints), which can forget replicas
        but never invent one, and versions equal the live head's.
        """
        head = self.head
        core, graph, home = head.core, head.graph, head.home
        dead, events = core.dead, core.events
        dm = DataManager(analysis=core.dm.analysis)
        completed: set[int] = set()
        dropped: set[int] = set()
        for rec in head.repl.log.records:
            d = rec.data
            if rec.kind == "bootstrap":
                for bid, snap in d["snapshots"]:
                    dm.writes(bid).checkpoint = (0, snap)
            elif rec.kind == "task_done":
                tid = d["task_id"]
                completed.add(tid)
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
        doubt = head.in_doubt
        redispatched = len(doubt)
        for tid in sorted(doubt):
            node = doubt[tid]
            if node != old_head:
                if node not in dead and not events.node_failed(node):
                    continue
                # In-doubt target (declared dead but physically still
                # running): fence it for real so no zombie in-place
                # mutation can land after the restore below.
                events.fail_node(node)
            del doubt[tid]
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
        return dm, Frontier(core.sim, graph, completed), redispatched

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
        taken = yield from head.take_over(
            by, frozenset(dead | self.detector.dead | {old_head}))
        if taken is None:
            raise RecoveryError(
                "head node failed and no live standby replica "
                "survives to take over (raise "
                "OMPCConfig.head_standbys)"
            )
        elected_at = taken[1]
        core.fo_epoch = repl.log.epoch
        self.detector.rebase(head.home)
        core.dm, core.frontier, redispatched = self.rebuild(old_head)
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
    """Straggler mitigation (``OMPCConfig.straggler_factor``) as the
    core's target frame; ``attempts`` counts frame attempts per task."""

    def __init__(self, head: FTHead):
        self.head = head
        self.attempts: dict[int, int] = {}
        #: Ids of speculative attempts (the loser's EXECUTE is revoked).
        self._exec_attempt = itertools.count(1)

    def speculatable(self, task: Task) -> bool:
        """Target tasks eligible for speculative re-dispatch: pure-``out``
        writers only, since a losing attempt that already ran merely
        rewrote outputs it fully overwrites (INOUT writers are out)."""
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
                   attempt: int = 0):
        """Generator: the core's target frame.  A speculatable task's
        primary attempt gets ``straggler_factor`` times its cost
        estimate; past that a backup starts on another live worker, the
        first to finish wins, and the loser's kernel launch is revoked
        so a late finish cannot clobber downstream writes."""
        core = self.head.core
        if not self.speculatable(task):
            yield from core._run_target(task, node, origin, dedup, attempt)
            return
        sim = core.sim

        def attempt_on(n: int, label: str):
            att = next(self._exec_attempt)
            proc = core.services.adopt(
                core._run_target(task, n, origin, dedup, att),
                f"ft-spec:{task.name}.{label}",
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
    """Restore a snapshot into a buffer, preserving payload identity:
    host code may hold the very array ``buffer.data`` points at, and
    OpenMP refills the original host storage, so the snapshot is copied
    *into* that array rather than rebinding ``buffer.data``."""
    fresh = _snapshot(snapshot)  # the stored copy stays pristine
    data = buffer.data
    if (isinstance(data, np.ndarray) and isinstance(fresh, np.ndarray)
            and data.shape == fresh.shape and data.dtype == fresh.dtype):
        np.copyto(data, fresh)
    else:
        buffer.data = fresh

