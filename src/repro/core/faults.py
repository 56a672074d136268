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
  :mod:`repro.core.faultmodel`), a missed beat no longer proves death:
  a node is only *suspected*, and the head confirms with a direct ping
  before declaring it dead.  False positives (alive nodes declared
  dead) and cleared suspicions are counted.
* :class:`FailureInjector` — crashes chosen worker nodes at chosen
  simulated times (kills their event machinery and wipes their device
  memory).
* :class:`FaultTolerantRuntime` — an OMPC runtime whose dispatch
  survives worker failures: in-flight tasks on a dead node are
  re-dispatched to survivors, and buffers whose only copy died are
  recovered by lineage — re-executing their recorded producer task
  (transitively) — or, when periodic checkpointing is enabled
  (``OMPCConfig.checkpoint_interval``), from head-side snapshots, which
  also rescues in-place/INOUT producers that checkpoint-free lineage
  cannot rebuild.  Straggler mitigation
  (``OMPCConfig.straggler_factor``) speculatively re-dispatches a
  too-slow target task to a second node and keeps whichever attempt
  finishes first.  An unrecoverable loss raises :class:`RecoveryError`.

**The head node may fail too.**  With ``OMPCConfig.head_standbys > 0``
the head streams its commit log (task completions, directory updates,
checkpoint snapshots, dispatch intents) to standby workers through
:mod:`repro.core.headlog`.  When the detector confirms the head dead —
by a quorum of two nodes, never a self-confirmation through the dead
head itself — the reporter coordinates an election among the standbys,
the most-caught-up replica wins deterministically, and the new head
rebuilds the data-manager directory, completed-task set, and
checkpoint store by replaying its replica.  Unacknowledged dispatches
are re-issued idempotently (workers dedup by task id and fence
old-epoch zombies), the checkpointer and failure detector re-root at
the new head, and the program finishes bit-identical to a fault-free run.
A head crash with no live standby raises :class:`RecoveryError`
instead of hanging.

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
from repro.core.headlog import (
    LOG_RECORD_BYTES,
    LOG_REPLAY_UNIT_COST,
    HeadLog,
    Replicator,
)
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
        for failure in tuple(failures):
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
    (set-up, startup/planning/shutdown phases, the dependency frontier
    and failure sink, head-thread task frame, and the one data plane: the enter-data, exit-data and target frames
    with their moves, memory admission, evictions and stale-copy
    deletes, and the result) and adds the fault tolerance: membership,
    head-state replication and failover, lineage and checkpoint
    recovery, and speculation.  It plugs into the core's frames only
    what the plain runtime lacks: a recover step before each frame, its
    commit bookkeeping, the tombstone rule under replication, the
    EXECUTE's attempt and failover epoch, and the "node may die" hook
    (the shared set of dead nodes, and ``HeadCore.guarded`` as the
    guard every event-system call of the frames goes through).
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
        """Set up one execution and return ``(main_process, finish)``.

        Mirrors :meth:`OMPCRuntime.launch`: with ``cluster=None`` a
        private machine is built and the caller drives the clock via
        ``run``; with an externally-owned cluster (in practice a
        :class:`~repro.cluster.partition.ClusterView`) the execution
        joins an already-ticking simulation.  Failure times stay
        relative to runtime startup either way (the injector arms after
        startup completes).  A ``fault_plan`` cannot be combined with an
        external cluster — plans install on the physical machine, which
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
        sim, mpi, events = core.sim, core.mpi, core.events
        dm, tiering, result = core.dm, core.tiering, core.result
        # Membership follows the event system: its communicators are
        # numbered after the event system's.  Either configuration of
        # the detector (ring or gossip) feeds on_detect / on_head_detect,
        # so failover below is the same for both.
        detector = FailureDetector.from_config(cluster, mpi, events, cfg)
        graph = program.graph

        # -- head-state replication (head failover) ----------------------
        # Standbys are the lowest-id workers; they keep executing tasks
        # like any other worker while also mirroring the head's log.
        n_standbys = min(cfg.head_standbys, cluster.num_nodes - 1)
        if n_standbys > 0:
            log = HeadLog()
            repl = Replicator(
                sim, mpi, events, log,
                standbys=list(range(1, 1 + n_standbys)),
                head=HOST,
            )
            append = repl.append
        else:
            log = repl = None
            append = lambda *_a, **_k: None  # noqa: E731 - no log kept

        core.set_schedule(graph, self.scheduler.schedule(graph, cluster))
        schedule = core.schedule

        #: Every mapped buffer by id (bootstrap snapshots, log replay).
        all_buffers: dict[int, Buffer] = {}
        for t in graph.tasks():
            for d in t.deps:
                all_buffers.setdefault(d.buffer.buffer_id, d.buffer)
            for b in t.buffers:
                all_buffers.setdefault(b.buffer_id, b)

        #: The node currently acting as head (rebound on failover).
        home = HOST
        #: Workers declared dead, shared with the core's data plane.
        dead = core.dead
        live_workers = lambda: [  # noqa: E731 - tiny local helper
            n for n in range(1, cluster.num_nodes) if n not in dead
        ]

        slots = Resource(sim, capacity=cfg.head_threads, name="head-threads")
        #: Which task last produced each buffer's current value.
        writer_of: dict[int, Task] = {}
        #: Monotone write counter per buffer (checkpoint freshness).
        write_version: dict[int, int] = {}
        #: Full write history per buffer: (version, task) in commit
        #: order — checkpoint recovery replays every write newer than
        #: the snapshot, not just the last one.
        write_log: dict[int, list[tuple[int, Task]]] = {}
        #: Written buffers by id (the checkpointer's worklist).
        written_buffers: dict[int, Buffer] = {}
        #: Head-side snapshots: buffer id → (version, pristine copy).
        checkpoints: dict[int, tuple[int, Any]] = {}
        #: Post-failover re-dispatch overrides: task id → surviving
        #: original target, and the ids the workers must dedup.
        forced_target: dict[int, int] = {}
        dedup_tasks: set[int] = set()
        attempts: dict[int, int] = {}
        exec_attempt = itertools.count(1)
        # Serialize recoveries of the same buffer.
        recovering: dict[int, object] = {}
        #: Head-side processes of the current head incarnation.  All are
        #: interrupted when that head dies: their frames must unwind
        #: before the elected successor rebuilds state, so no stale
        #: completion can race the rebuilt directory.
        epoch = ProcessGroup(sim, core.fail)
        failovers: list[FailoverEvent] = []
        head_declared: dict[int, Any] = {}
        ckpt_stop = False

        def declared_event(node: int):
            ev = head_declared.get(node)
            if ev is None:
                ev = sim.event(f"head-declared:{node}")
                head_declared[node] = ev
            return ev

        def on_head_death(node: int, by: int) -> None:
            """Detector verdict on the head: STONITH, then wake failover.

            A falsely declared head is killed for real before any
            successor takes over — two live heads racing the same
            workers would be worse than one wrongly lost node.
            """
            if not events.node_failed(node):
                events.fail_node(node)
            ev = declared_event(node)
            if not ev.triggered:
                ev.succeed((by, sim.now))

        def target_node(task: Task) -> int:
            forced = forced_target.get(task.task_id)
            if forced is not None and forced not in dead:
                return forced
            node = schedule.node_of(task)
            if node == HOST:
                return home  # data stays with the (current) head
            if node in dead:
                # Deterministic re-map: spread by task id over survivors.
                survivors = live_workers()
                if not survivors:
                    raise ClusterExhausted("all worker nodes have failed")
                node = survivors[task.task_id % len(survivors)]
            return node

        def spawn_task(task: Task) -> None:
            epoch.spawn(core.run_task(task, slots, complete, origin=home,
                                      body=execute_once),
                        name=f"ft-task:{task.name}")

        def dispatch_ready() -> None:
            frontier = core.frontier
            for task in frontier.ready():
                spawn_task(task)
            frontier.settle()

        def complete(task: Task) -> None:
            if task.kind.is_data_movement:
                # ENTER/EXIT completions carry no writes, so they are
                # logged here rather than through record_writes.
                append("task_done", task_id=task.task_id, node=home)
            frontier = core.frontier
            frontier.done(task)
            frontier.release(task, spawn_task)
            frontier.settle()

        # -- buffer movement and recovery -------------------------------
        def ensure_available(buffer: Buffer, chain: frozenset = frozenset()):
            """Generator: guarantee a live copy of ``buffer`` exists.

            ``chain`` carries the buffer ids already being recovered on
            this call stack: needing one of them again means the lost
            value can only be rebuilt from itself (an in-place/INOUT
            producer), which is unrecoverable *without checkpoints* —
            with checkpointing on, the snapshot breaks the cycle.
            """
            bid = buffer.buffer_id
            while True:
                token = recovering.get(bid)
                if token is not None and bid not in chain:
                    # Someone else is recovering it: a location the
                    # re-execution lists may not hold the value yet.
                    yield token
                    continue
                if dm.locations(buffer) - dead:
                    return
                entry = checkpoints.get(bid)
                if bid in chain:
                    if entry is None:
                        raise RecoveryError(
                            f"buffer {buffer.name} can only be rebuilt "
                            "from its own lost value (in-place producer); "
                            "checkpoint-free lineage recovery cannot help"
                        )
                    # A recursive loss mid-replay of this very buffer:
                    # the in-flight restore sequence is void, tell the
                    # owning frame to start over from the snapshot.
                    raise _RecoveryRestart(bid)
                producer = writer_of.get(bid)
                if entry is None and producer is None:
                    raise RecoveryError(
                        f"buffer {buffer.name} lost with no recorded "
                        "producer; its initial value existed only on the "
                        "failed node"
                    )
                done = sim.event(f"recover:{buffer.name}")
                recovering[bid] = done
                try:
                    if entry is not None:
                        yield from restore_and_replay(buffer, chain)
                    else:
                        yield from execute_once(producer, chain | {bid})
                        result.reexecuted_tasks += 1
                finally:
                    del recovering[bid]
                    done.succeed()

        def restore_and_replay(buffer: Buffer, chain: frozenset):
            """Generator: rebuild ``buffer`` from its newest checkpoint.

            Restores the snapshot to the head, then replays — in commit
            order — every write newer than the snapshot, so multi-step
            in-place chains come back complete, not just their last
            link.  If a replayed copy is lost again mid-sequence the
            whole sequence restarts from a fresh restore (partial
            replays would otherwise double-apply in-place writes).
            """
            bid = buffer.buffer_id
            while True:
                version, snap = checkpoints[bid]
                _restore_into(buffer, snap)
                dm.commit_restore(buffer)
                result.checkpoint_restores += 1
                cluster.obs.count("ft.checkpoint_restores")
                # Replays append to the log too; keep each task's first
                # occurrence only, in original commit order.
                seen: set[int] = set()
                pending = []
                for ver, task in write_log.get(bid, []):
                    if ver > version and task.task_id not in seen:
                        seen.add(task.task_id)
                        pending.append(task)
                try:
                    for task in pending:
                        yield from execute_once(task, chain | {bid})
                        result.reexecuted_tasks += 1
                except _RecoveryRestart as restart:
                    if restart.buffer_id != bid:
                        raise
                    continue
                return

        # -- task execution with failure racing ---------------------------
        def execute_once(task: Task, chain: frozenset = frozenset()):
            """Generator: run ``task`` to completion through the core's
            frames, retrying a frame a node death failed on a fresh plan.

            Before each frame the buffers it reads get a live copy
            (lineage or checkpoint recovery, carrying ``chain``).
            """
            recovery = bool(chain)  # lineage/replay re-execution
            while True:
                node = target_node(task)
                attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
                if repl is not None and not recovery:
                    if task.kind in (TaskKind.CLASSICAL, TaskKind.TARGET):
                        append(
                            "dispatch", task_id=task.task_id,
                            node=home if task.kind == TaskKind.CLASSICAL
                            else node,
                        )
                        if any(
                            d.type.writes and d.type.reads for d in task.deps
                        ):
                            # INOUT fence: an ambiguous in-place mutation
                            # must be *detectable* from every replica
                            # before it can happen.
                            yield from repl.flush()
                        else:
                            yield from repl.throttle()
                    else:
                        yield from repl.throttle()
                try:
                    if task.kind == TaskKind.CLASSICAL:
                        yield from core._run_classical(
                            task, cluster.node(home)
                        )
                        record_writes(task, home, recovery)
                        return
                    entering = task.kind == TaskKind.TARGET_ENTER_DATA
                    for buf in task.buffers if entering else task.reads:
                        yield from ensure_available(buf, chain)
                    if entering:
                        yield from core._run_enter_data(task, node, home)
                    elif task.kind == TaskKind.TARGET_EXIT_DATA:
                        yield from core._run_exit_data(task, home)
                    elif speculatable(task):
                        yield from run_target_speculative(task, node, chain)
                    else:
                        yield from target_frame(task, node, chain)
                    return
                except _NodeCrashed as crash:
                    if crash.node == home:
                        # The head itself died under this frame; the
                        # failover path owns recovery — park until the
                        # epoch teardown interrupts us.
                        yield sim.event("park-for-failover")
                    handle_node_death(crash.node)  # retry on a survivor

        # -- straggler mitigation -----------------------------------------
        def speculatable(task: Task) -> bool:
            """Target tasks eligible for speculative re-dispatch.

            Only pure-``out`` writers qualify: a losing attempt's kernel
            launch is revoked, but one that already ran merely rewrote
            outputs it fully overwrites — the same idempotence contract
            lineage recovery relies on.  INOUT writers are excluded.
            """
            return (
                cfg.straggler_factor > 0
                # Speculation doubles a task's transient footprint (both
                # attempts stage full working sets); under a bounded
                # device budget the duplicate attempt could itself force
                # the eviction storm it is trying to outrun, so tiered
                # runs fall back to plain (admission-controlled) dispatch.
                and tiering is None
                and task.kind == TaskKind.TARGET
                and task.cost > 0
                and all(not (d.type.writes and d.type.reads) for d in task.deps)
                and len(live_workers()) > 1
            )

        def target_frame(task: Task, node: int, chain: frozenset,
                         attempt: int = 0):
            dedup = not chain and task.task_id in dedup_tasks
            return core._run_target(task, node, home, dedup, attempt,
                                    recovery=bool(chain))

        def run_target_speculative(task: Task, node: int, chain: frozenset):
            """Generator: race a backup attempt against a straggler.

            The primary attempt gets ``straggler_factor`` times its cost
            estimate; past that, a second attempt starts on another live
            worker and whichever finishes first wins.  The loser's
            kernel launch is revoked through the event system so a
            late-finishing attempt cannot clobber downstream writes.
            """
            estimate = cluster.node(node).compute_time(task.cost)
            attempt_a = next(exec_attempt)
            primary = sim.process(
                target_frame(task, node, chain, attempt_a),
                name=f"ft-spec:{task.name}.a",
            )
            p_done = sim.event(f"settle:{task.name}.a")
            primary.add_callback(lambda _ev: p_done.succeed())
            yield AnyOf(sim, [
                p_done, sim.timeout(cfg.straggler_factor * estimate)
            ])
            if not primary.triggered:
                spare = [n for n in live_workers() if n != node]
                if spare:
                    backup_node = spare[task.task_id % len(spare)]
                    attempt_b = next(exec_attempt)
                    attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
                    result.speculative_attempts += 1
                    cluster.obs.count("ft.speculative_attempts")
                    backup = sim.process(
                        target_frame(task, backup_node, chain, attempt_b),
                        name=f"ft-spec:{task.name}.b",
                    )
                    b_done = sim.event(f"settle:{task.name}.b")
                    backup.add_callback(lambda _ev: b_done.succeed())
                    yield AnyOf(sim, [p_done, b_done])
                    first, first_att, second, second_att, second_done = (
                        (primary, attempt_a, backup, attempt_b, b_done)
                        if primary.triggered
                        else (backup, attempt_b, primary, attempt_a, p_done)
                    )
                    if first.ok:
                        if first is backup:
                            result.speculation_wins += 1
                        events.cancel_execution(task.task_id, second_att)
                        if second.is_alive:
                            second.interrupt("lost speculation race")
                        return
                    # The first finisher crashed; absorb its node's death
                    # and let the surviving attempt decide the task.
                    if not isinstance(first.value, _NodeCrashed):
                        raise first.value
                    handle_node_death(first.value.node)
                    if not second.triggered:
                        yield second_done
                    if second.ok:
                        if second is backup:
                            result.speculation_wins += 1
                        return
                    raise second.value  # both attempts crashed: retry
            if not primary.triggered:
                yield p_done  # no spare worker: just wait the straggler out
            if not primary.ok:
                raise primary.value
            return

        def record_writes(task: Task, node: int | None,
                          recovery: bool = False) -> None:
            """Record ``task``'s writes and log its completion on
            ``node``; ``node=None`` replays a logged completion."""
            for buf in task.writes:
                writer_of[buf.buffer_id] = task
                written_buffers[buf.buffer_id] = buf
                if recovery:
                    # Replays re-derive an already-recorded write: the
                    # version counter must stay aligned with what a
                    # standby reconstructs from the log, or checkpoint
                    # freshness comparisons diverge after a failover.
                    continue
                version = write_version.get(buf.buffer_id, 0) + 1
                write_version[buf.buffer_id] = version
                write_log.setdefault(buf.buffer_id, []).append((version, task))
            if not recovery and node is not None:
                append("task_done", task_id=task.task_id, node=node)

        def handle_node_death(node: int) -> None:
            if node in dead or node == home:
                return  # the head's own death is the failover path's job
            dead.add(node)
            dm.on_node_failure(node)
            # Forgetting the node frees its tiered memory.
            core._mem_wake()
            result.failures.append(node)
            append("node_dead", node=node)

        # -- checkpointing ------------------------------------------------
        def checkpointer():
            """Generator: periodically snapshot written buffers head-side.

            Every snapshot is retrieved through the event system, so
            checkpoint traffic is charged like any other data movement.
            Only buffers whose newest write postdates their last
            snapshot are refreshed.
            """
            while not ckpt_stop:
                yield sim.timeout(cfg.checkpoint_interval)
                if ckpt_stop:
                    return
                for bid in sorted(written_buffers):
                    buf = written_buffers[bid]
                    version = write_version.get(bid, 0)
                    entry = checkpoints.get(bid)
                    if entry is not None and entry[0] >= version:
                        continue  # snapshot already current
                    locations = dm.locations(buf) - dead
                    if not locations:
                        continue  # already lost; recovery owns it now
                    src = dm.latest(buf)
                    if src in dead or src not in locations:
                        src = home if home in locations else min(locations)
                    if src == home:
                        checkpoints[bid] = (version, _snapshot(buf.data))
                    else:
                        try:
                            payload = yield from core.guard(
                                [src],
                                events.retrieve(src, bid, buf.nbytes,
                                                origin=home),
                            )
                        except _NodeCrashed as crash:
                            handle_node_death(crash.node)
                            continue
                        if write_version.get(bid, 0) != version:
                            continue  # changed mid-flight; next round
                        checkpoints[bid] = (version, _snapshot(payload))
                    result.checkpoints_taken += 1
                    cluster.obs.count("ft.checkpoints")
                    # Snapshots ride the log by reference: the stored
                    # copy is pristine (restores copy out of it), so
                    # sharing it with the replicas is safe.
                    append(
                        "checkpoint",
                        nbytes=LOG_RECORD_BYTES + buf.nbytes,
                        buffer_id=bid, version=version,
                        snap=checkpoints[bid][1],
                    )

        # -- head failover ------------------------------------------------
        def start_epoch() -> None:
            """Spawn the head-side services of the current incarnation."""
            if repl is not None:
                for s in repl.live_standbys():
                    epoch.spawn(repl.pump(s),
                                name=f"repl-pump{s}.e{core.fo_epoch}")
            if cfg.checkpoint_interval > 0:
                epoch.spawn(checkpointer(),
                            name=f"ft-checkpoint.e{core.fo_epoch}")

        def rebuild_from_log(old_head: int) -> int:
            """Replay the adopted replica into fresh head state and a
            fresh frontier (the replayed completed set is authoritative).

            Only *logged* transitions are replayed — completions, data
            enter/exit, node deaths, checkpoints — which yields a
            conservative directory: every logged write pinned its buffer
            to the writing node, so dropping knowledge of intermediate
            moves can only forget extra replicas, never invent one.

            Returns the number of in-doubt dispatches re-issued.
            """
            nonlocal dm, tiering
            dm2 = DataManager(analysis=dm.analysis)
            # The replay is synchronous: the head state is rebuilt in
            # place, nothing reads it half-done.
            for state in (checkpoints, writer_of, write_version,
                          write_log, written_buffers, recovering):
                state.clear()
            completed: set[int] = set()
            dispatched: dict[int, int] = {}
            dropped: set[int] = set()
            for rec in log.records:
                d = rec.data
                if rec.kind == "bootstrap":
                    for bid, snap in d["snapshots"]:
                        checkpoints[bid] = (0, snap)
                elif rec.kind == "dispatch":
                    dispatched[d["task_id"]] = d["node"]
                elif rec.kind == "task_done":
                    tid = d["task_id"]
                    completed.add(tid)
                    dispatched.pop(tid, None)
                    task = graph.task(tid)
                    record_writes(task, None)
                    if task.kind == TaskKind.TARGET:
                        dm2.commit_task_done(task, d["node"])
                elif rec.kind == "enter_data":
                    dm2.commit_enter_data(
                        all_buffers[d["buffer_id"]], d["node"]
                    )
                elif rec.kind == "exit_data":
                    # Apply with the home that was current when logged.
                    dm2.rehome(d["home"])
                    dm2.commit_exit_data(all_buffers[d["buffer_id"]])
                elif rec.kind == "node_dead":
                    n = d["node"]
                    dropped.add(n)
                    if n != dm2.home:
                        dm2.on_node_failure(n)
                elif rec.kind == "checkpoint":
                    checkpoints[d["buffer_id"]] = (d["version"], d["snap"])
            dm2.rehome(home)  # ``home`` is already the elected winner
            for n in sorted((dead | {old_head}) - dropped):
                if n != home:
                    dm2.on_node_failure(n)
                    append("node_dead", node=n)
            # In-doubt dispatches: a dispatch record with no matching
            # completion.  Completed-but-unreplicated work re-runs; the
            # worker-side dedup (task id) and epoch fencing keep that
            # idempotent when the original target survives.
            redispatched = 0
            forced_target.clear()
            dedup_tasks.clear()
            for tid in sorted(dispatched):
                if tid in completed:
                    continue
                redispatched += 1
                node = dispatched[tid]
                task = graph.task(tid)
                alive = (
                    node != old_head
                    and node not in dead
                    and not events.node_failed(node)
                )
                if alive:
                    forced_target[tid] = node
                    dedup_tasks.add(tid)
                    continue
                if node != old_head and not events.node_failed(node):
                    # In-doubt target (declared dead but physically still
                    # running): fence it for real so no zombie in-place
                    # mutation can land after the restore below.
                    events.fail_node(node)
                for dep in task.deps:
                    if dep.type.writes and dep.type.reads:
                        # The lost dispatch may or may not have applied
                        # its in-place mutation; only a snapshot restore
                        # plus write-log replay is well-defined.
                        dm2.invalidate(dep.buffer)
            # Swap the rebuilt state in.
            dm = core.dm = dm2
            if tiering is not None:
                # Re-arm the tiered store on the rebuilt directory.  The
                # new head reconstructs a conservative residency mirror
                # from the replayed directory: every replica the log
                # still knows about is charged; replicas the log forgot
                # are tombstones the eviction pass collects naturally.
                configure_tiering(dm, cfg, cluster)
                tiering = core.tiering = dm.tiering
                for bid in sorted(all_buffers):
                    buf = all_buffers[bid]
                    for n in sorted(dm.locations(buf)):
                        if n not in dead and dm.tiered(n):
                            tiering.charge(n, buf)
            core.frontier = Frontier(sim, graph, completed)
            return redispatched

        def failover():
            """Generator: elect, adopt, rebuild, resume (one head death)."""
            nonlocal home
            old_head = home
            failed_at = sim.now
            # Tear down the dead head's epoch first: every head-side
            # frame unwinds before the successor rebuilds state.
            epoch.end("head failover")
            if repl is None:
                raise RecoveryError(
                    "head node failed with no standbys configured "
                    "(OMPCConfig.head_standbys = 0); head state is "
                    "unrecoverable"
                )
            if old_head not in dead:
                dead.add(old_head)
                result.failures.append(old_head)
            if not any(
                n != old_head and not events.node_failed(n)
                for n in range(cluster.num_nodes)
            ):
                raise RecoveryError("head node failed and no live node "
                                    "remains to elect a successor")
            by, declared_at = yield declared_event(old_head)
            taken = yield from repl.take_over(
                by, exclude=frozenset(dead | detector.dead | {old_head})
            )
            if taken is None:
                raise RecoveryError(
                    "head node failed and no live standby replica "
                    "survives to take over (raise "
                    "OMPCConfig.head_standbys)"
                )
            home, elected_at = taken
            core.fo_epoch = log.epoch
            detector.rebase(home)
            # The successor replays its replica into fresh control
            # state; the replay is CPU work charged per record.
            replay_cost = len(log.records) * LOG_REPLAY_UNIT_COST
            if replay_cost:
                yield sim.timeout(replay_cost)
            redispatched = rebuild_from_log(old_head)
            start_epoch()
            failovers.append(FailoverEvent(
                epoch=log.epoch,
                old_head=old_head,
                new_head=home,
                failed_at=failed_at,
                declared_at=declared_at,
                elected_at=elected_at,
                resumed_at=sim.now,
                replayed_records=len(log.records),
                redispatched_tasks=redispatched,
            ))
            cluster.obs.count("ft.head_failovers")
            # Relaunch whatever the rebuilt frontier finds runnable.
            dispatch_ready()

        # -- failure plumbing ---------------------------------------------
        def on_detect(dead_node: int, by: int) -> None:
            # The head learns through the detector; recovery state updates
            # immediately (in-flight guards race the failure event).
            handle_node_death(dead_node)

        detector.on_detect = on_detect
        detector.on_head_detect = on_head_death
        def on_commit(task: Task, node: int, buf, recovery: bool) -> None:
            if buf is None:
                record_writes(task, node, recovery)
            elif task.kind == TaskKind.TARGET_ENTER_DATA:
                append("enter_data", buffer_id=buf.buffer_id, node=node)
            else:
                append("exit_data", buffer_id=buf.buffer_id, home=node)

        core.guard = core.guarded
        core.on_commit = on_commit
        # With replication on, a deferred DELETE racing a post-failover
        # re-materialization of the same buffer could destroy the only
        # live copy; the directory alone drops stale copies.
        core.tombstones = repl is not None
        injector = FailureInjector(events)

        def stop_services() -> None:
            nonlocal ckpt_stop
            ckpt_stop = True
            detector.stop()

        def main_body():
            yield from core.boot(home)
            detector.start()
            injector.arm(failures)
            if repl is not None:
                repl.start()
                # Bootstrap fence: every buffer's pristine initial value
                # reaches every standby before any task may run, so even
                # a first-write INOUT loss is restorable after failover.
                snaps = tuple(
                    (bid, _snapshot(all_buffers[bid].data))
                    for bid in sorted(all_buffers)
                )
                append(
                    "bootstrap",
                    nbytes=LOG_RECORD_BYTES + sum(
                        all_buffers[bid].nbytes for bid in sorted(all_buffers)
                    ),
                    snapshots=snaps,
                )
            start_epoch()
            if repl is not None:
                yield from repl.flush()
            yield from core.plan_phase(
                core.frontier.pending, graph.num_edges,
                cluster.num_nodes - 1, origin=home,
            )
            dispatch_ready()
            while True:
                done = core.frontier.all_done
                yield events.race_failure([done], [home])
                if done.triggered:
                    break
                yield from failover()
            stop_services()
            yield from core.teardown(home)

        main_proc = sim.process(
            core.drive(main_body(), on_abort=stop_services),
            name="ompc-ft-main",
        )

        def finish() -> FTRunResult:
            result.detections = list(detector.detections)
            result.task_attempts = dict(attempts)
            result.suspicions_cleared = detector.suspicions_cleared
            result.false_positive_detections = detector.false_positives
            declared = {d for d, _by, _t in detector.detections}
            result.false_negative_detections = len(
                {f.node for f in injector.injected} - declared
            )
            result.transport = dict(mpi.stats)
            result.missed_heartbeat_windows = detector.missed_windows
            result.final_head = home
            result.head_failovers = len(failovers)
            result.failovers = list(failovers)
            if repl is not None:
                result.log_records_appended = log.appended
                result.replication_bytes = repl.stats["bytes_sent"]
                result.log_flushes = repl.stats["flushes"]
                result.replication = dict(repl.stats)
            core.finish(failed=dead)
            if active is not None:
                result.counters["faults.dropped_messages"] = (
                    active.dropped_messages
                )
            return result

        return main_proc, finish


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
