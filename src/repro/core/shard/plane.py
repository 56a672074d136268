"""The sharded control plane: K shard managers drive one task graph.

The classic runtime (:class:`~repro.core.runtime.OMPCRuntime`) is the
paper's design: one head node owns the whole task graph, and every
in-flight task blocks one of ``head_threads`` OpenMP slots — the §7
knee.  :class:`ShardedRuntime` breaks the knee by partitioning control:

* nodes ``0..K-1`` are reserved *shard-manager* nodes (like the job
  manager's reserved node in :mod:`repro.cluster.partition`); node 0
  doubles as the host (shard 0 owns classical and ``exit data`` work);
* the remaining nodes are compute workers, sliced contiguously so each
  shard schedules — with its **own scheduler instance** over its own
  subgraph — and dispatches — with its **own** ``head_threads`` slot
  pool — against a private node set;
* task/buffer ownership comes from the
  :class:`~repro.core.shard.directory.ShardDirectory` (consistent hash
  of the affinity key);
* cross-shard dependences resolve by **lease/subscription**: at start-up
  each shard sends one LEASE per remote producer it depends on; the
  owner replies with a NOTIFY when (or at once if) the producer
  completed.  No polling, and consumers dedup notifications by task id,
  so a failover's replayed messages are no-ops;
* each shard logs dispatches, completions and processed notifications
  to its own :mod:`repro.core.headlog`, replicated to ``head_standbys``
  standbys of its worker slice.  On a gossip-confirmed manager death its frames
  and pumps end, :meth:`~repro.core.headlog.Replicator.take_over`
  promotes a standby, the slot pool and services restart there, leases
  are re-sent for unsatisfied subscriptions (closing the lost-NOTIFY
  window) and the shard's ready tasks are re-dispatched, with
  ``dedup=True`` for those its log shows dispatched;
* membership is the gossip :class:`~repro.core.gossip.FailureDetector`
  (SWIM), required whenever failures are injected (through
  :class:`~repro.core.faults.FailureInjector`).

Each task runs through the same :class:`~repro.core.runtime.HeadCore`
frame as the single-head runtime (data plane, tiered store, broadcast
events, spans), with the shard's manager as the origin of every event.
Input staging is therefore *sharded ingest*: each manager stages its
shard's host-resident buffers itself, so enter-data traffic does not
all funnel through node 0.  Host-side retrieval (``exit data``) still
lands on node 0, which owns that work by construction.

Deliberately out of scope (validated): failures of node 0 itself —
root-head failover is :class:`~repro.core.faults.FaultTolerantRuntime`'s
job.
"""

from __future__ import annotations

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.events import NOTIFICATION_BYTES
from repro.core.faults import FailureInjector, NodeFailure
from repro.core.gossip import FailureDetector
from repro.core.headlog import HeadLog, Replicator
from repro.core.runtime import HeadCore, ProcessGroup, reject_unread
from repro.core.scheduler import HeftScheduler, Schedule, Scheduler
from repro.core.shard.directory import ShardDirectory
from repro.core.shard.messages import LEASE_TAG, NOTIFY_TAG
from repro.core.shard.report import ShardRunResult, ShardStats
from repro.omp.api import OmpProgram
from repro.omp.task import Task
from repro.sim.errors import SimulationError
from repro.sim.resources import Resource


class ShardPlaneError(SimulationError):
    """Unrecoverable sharded-control-plane failure."""


class _Shard:
    """Mutable runtime state of one shard manager."""

    __slots__ = (
        "sid", "manager", "nodes", "slots", "frames", "issued",
        "subs", "notified", "repl", "pumps", "failing",
        "stats", "sub_edges",
    )

    def __init__(self, sid: int, manager: int, nodes: tuple[int, ...],
                 core: HeadCore):
        self.sid = sid
        self.manager = manager
        self.nodes = nodes
        self.slots: Resource | None = None
        #: The manager's control frames and its replication pumps; a
        #: failover ends the frames first, then the pumps.
        self.frames = ProcessGroup(core.sim, core.fail)
        self.pumps = ProcessGroup(core.sim, core.fail)
        #: Task ids ever handed to a control frame this epoch.
        self.issued: set[int] = set()
        #: producer task id → subscriber shard ids (never popped: kept
        #: for failover re-notification).
        self.subs: dict[int, set[int]] = {}
        #: Remote producer ids whose NOTIFY this shard has processed.
        self.notified: set[int] = set()
        self.repl: Replicator | None = None
        self.failing = False
        self.stats: ShardStats | None = None
        self.sub_edges = 0


class _ShardClusterFacade:
    """What a shard's private scheduler sees: the full fabric and node
    table, but only the shard's compute slice as ``workers``."""

    def __init__(self, cluster, nodes: tuple[int, ...], manager: int):
        self._cluster = cluster
        self._nodes = nodes
        self._manager = manager
        self.network = cluster.network

    @property
    def num_nodes(self) -> int:
        return self._cluster.num_nodes

    @property
    def head(self):
        return self._cluster.node(self._manager)

    @property
    def workers(self):
        return [self._cluster.node(n) for n in self._nodes]

    def node(self, node_id: int):
        return self._cluster.node(node_id)


class ShardedRuntime:
    """Run OmpPrograms through K shard managers instead of one head.

    ``inject_failures`` is the chaos hook: ``((time, node), ...)``
    crashes of shard-manager nodes (never node 0 — see the module
    docstring), requiring ``gossip=True`` and ``head_standbys >= 1``.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: OMPCConfig | None = None,
        scheduler: Scheduler | None = None,
        inject_failures: tuple = (),
    ):
        cfg = config or OMPCConfig()
        k = cfg.head_shards
        if k < 2:
            raise ValueError(
                "ShardedRuntime needs head_shards >= 2 (use OMPCRuntime "
                "for the single-head plane)"
            )
        reject_unread(cfg, "ShardedRuntime", "checkpoint_interval",
                      "straggler_factor")
        if cluster_spec.num_nodes < 2 * k:
            raise ValueError(
                f"{k} shards need >= {2 * k} nodes (one manager plus at "
                f"least one worker each), got {cluster_spec.num_nodes}"
            )
        injections = tuple(
            NodeFailure(time=float(t), node=int(node))
            for t, node in inject_failures
        )
        if injections:
            if not cfg.gossip:
                raise ValueError(
                    "failure injection in sharded runs requires "
                    "gossip=True (the heartbeat ring assumes one head)"
                )
            if cfg.head_standbys < 1:
                raise ValueError(
                    "failure injection requires head_standbys >= 1 for "
                    "the per-shard replication log"
                )
            for node in (f.node for f in injections):
                if node == 0:
                    raise ValueError(
                        "node 0 (the host shard manager) cannot be killed "
                        "here; root-head failover is FaultTolerantRuntime's")
                if k <= node < cluster_spec.num_nodes:
                    raise ValueError(
                        f"only shard-manager nodes (1..{k - 1}) may be "
                        f"killed in the sharded plane, got {node}")
        self.cluster_spec = cluster_spec
        self.config = cfg
        self.num_shards = k
        self.scheduler = scheduler
        self.inject_failures = injections
        self.last_cluster: Cluster | None = None
        self.last_directory: ShardDirectory | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def compute_slices(num_nodes: int, k: int) -> list[tuple[int, ...]]:
        """Contiguous worker slices: shard s owns its share of K..N-1."""
        workers = list(range(k, num_nodes))
        w = len(workers)
        return [
            tuple(workers[s * w // k:(s + 1) * w // k]) for s in range(k)
        ]

    def run(self, program: OmpProgram) -> ShardRunResult:
        main_proc, finish = self.launch(program)
        main_proc.sim.run(until=main_proc)
        return finish()

    # ------------------------------------------------------------------
    def launch(self, program: OmpProgram, cluster=None):
        """Set up one sharded execution; returns ``(main_proc, finish)``
        with :class:`~repro.core.runtime.OMPCRuntime.launch` semantics."""
        cfg = self.config
        k = self.num_shards
        core = HeadCore(self.cluster_spec, cfg, program, cluster,
                        result_type=ShardRunResult)
        cluster = self.last_cluster = core.cluster
        sim, obs, events, mpi = core.sim, core.obs, core.events, core.mpi
        result = core.result
        graph = program.graph

        directory = ShardDirectory(graph, k)
        self.last_directory = directory
        obs.count("shard.cross_edges", len(directory.cross_edges))
        lease_needs = directory.lease_needs()

        slices = self.compute_slices(cluster.num_nodes, k)
        shards = [_Shard(s, s, slices[s], core) for s in range(k)]
        owner_of = directory.owner_of

        # -- per-shard scheduling (own scheduler instance each) -----------
        def shard_scheduler() -> Scheduler:
            if self.scheduler is not None:
                return self.scheduler
            return HeftScheduler()

        assignment: dict[int, int] = {}
        planned: dict[int, tuple[float, float]] = {}
        for shard in shards:
            sub = directory.subgraph(shard.sid)
            shard.sub_edges = sub.num_edges
            facade = _ShardClusterFacade(cluster, shard.nodes,
                                         shard.manager)
            sched = shard_scheduler().schedule(sub, facade)
            assignment.update(sched.assignment)
            planned.update(sched.planned)
            shard.stats = ShardStats(
                shard=shard.sid, manager=shard.manager,
                nodes=shard.nodes, tasks=len(sub),
            )
        core.set_schedule(graph, Schedule(assignment, planned))
        core.committed = set()

        frontier = core.frontier
        plane_up = sim.event("shard-plane-up")
        shard_comm = mpi.new_communicator(service=True)
        for shard in shards:
            shard.slots = Resource(
                sim, capacity=cfg.head_threads,
                name=f"shard{shard.sid}-threads",
            )

        membership = (
            FailureDetector.from_config(cluster, mpi, events, cfg)
            if cfg.gossip else None
        )

        if cfg.head_standbys > 0:
            for shard in shards:
                standbys = list(
                    shard.nodes[:min(cfg.head_standbys, len(shard.nodes))]
                )
                shard.repl = Replicator(sim, mpi, events, HeadLog(),
                                        standbys, head=shard.manager)

        # -- dependence resolution ----------------------------------------
        def spawn_task(task: Task, dedup: bool = False) -> None:
            shard = shards[owner_of(task.task_id)]
            if shard.failing or task.task_id in shard.issued:
                # Mid-failover (the restart rescan picks it up) or
                # already in flight this epoch.
                return
            shard.issued.add(task.task_id)
            # The frame holds the epoch's slot pool: a failover replaces
            # ``shard.slots``, and a frame interrupted mid-task must
            # release into the pool it acquired from, not the fresh one.
            shard.frames.spawn(core.run_task(
                task, shard.slots, complete, origin=shard.manager,
                dispatch=log_dispatch, dedup=dedup,
            ), name=f"task:{task.name}")

        def log_dispatch(task: Task):
            shard = shards[owner_of(task.task_id)]
            if shard.repl is not None:
                shard.repl.append("dispatch", task=task.task_id)
                yield from shard.repl.throttle()
            obs.count("shard.dispatches")

        def complete(task: Task) -> None:
            tid = task.task_id
            shard = shards[owner_of(tid)]
            start, end = result.task_intervals[tid]
            shard.stats.busy_time += end - start
            if not frontier.done(task):
                return
            shard.stats.dispatched += 1
            if shard.repl is not None:
                shard.repl.append("task_done", task_id=tid,
                                  node=core.schedule.node_of(task))
            release_local(shard, task)
            subscribers = shard.subs.get(tid)
            if subscribers:
                for sc in sorted(subscribers):
                    send_notify(shard, tid, sc)
            frontier.settle()

        def release_local(shard: _Shard, producer: Task) -> None:
            """``producer`` completed: release the shard's own consumers."""
            frontier.release(producer, spawn_task,
                             local=lambda t: owner_of(t.task_id) == shard.sid)

        def send_notify(shard: _Shard, producer_id: int, sc: int) -> None:
            obs.count("shard.forwards")
            shard.stats.forwards_sent += 1
            shard_comm.rank(shard.manager).isend(
                shards[sc].manager,
                ("notify", producer_id, shard.sid),
                NOTIFICATION_BYTES, tag=NOTIFY_TAG,
            )

        def send_lease(shard: _Shard, producer_id: int) -> None:
            obs.count("shard.leases")
            shard.stats.leases_sent += 1
            sp = owner_of(producer_id)
            shard_comm.rank(shard.manager).isend(
                shards[sp].manager,
                ("lease", producer_id, shard.sid),
                NOTIFICATION_BYTES, tag=LEASE_TAG,
            )

        def lease_service(shard: _Shard, node: int):
            """Producer-side subscriptions, running on ``node`` while it
            is this shard's manager."""
            rank = shard_comm.rank(node)
            while True:
                msg = yield from rank.recv(tag=LEASE_TAG)
                if events.node_failed(node) or shard.manager != node:
                    return
                _kind, producer_id, sc = msg.payload
                shard.subs.setdefault(producer_id, set()).add(sc)
                if producer_id in frontier.completed:
                    # The race-free no-barrier path: the producer beat
                    # the lease; answer immediately.
                    send_notify(shard, producer_id, sc)

        def notify_service(shard: _Shard, node: int):
            """Consumer-side completion notifications."""
            rank = shard_comm.rank(node)
            while True:
                msg = yield from rank.recv(tag=NOTIFY_TAG)
                if events.node_failed(node) or shard.manager != node:
                    return
                _kind, producer_id, _sp = msg.payload
                if producer_id in shard.notified:
                    obs.count("shard.dedup_hits")
                    shard.stats.dedup_hits += 1
                    continue
                shard.notified.add(producer_id)
                if shard.repl is not None:
                    shard.repl.append("notify", task=producer_id)
                release_local(shard, graph.task(producer_id))

        def start_services(shard: _Shard) -> None:
            node = shard.manager
            sim.process(lease_service(shard, node),
                        name=f"shard{shard.sid}-lease@{node}")
            sim.process(notify_service(shard, node),
                        name=f"shard{shard.sid}-notify@{node}")

        def start_pumps(shard: _Shard) -> None:
            for standby in shard.repl.live_standbys():
                shard.pumps.spawn(shard.repl.pump(standby),
                                  name=f"shard{shard.sid}-pump{standby}")

        # -- membership & failover -----------------------------------------
        def on_death(dead: int, by: int) -> None:
            target = None
            for shard in shards:
                if shard.manager == dead:
                    target = shard
                    break
            if target is None:
                # A compute node died: the sharded plane has no worker
                # recovery (that is FaultTolerantRuntime's machinery).
                core.fail(ShardPlaneError(
                    f"worker node {dead} died under the sharded plane; "
                    f"worker fault tolerance needs FaultTolerantRuntime"
                ))
                return
            if target.repl is None:
                core.fail(ShardPlaneError(
                    f"shard {target.sid} manager (node {dead}) died "
                    f"with no standbys (head_standbys=0)"
                ))
                return
            sim.process(failover(target, by),
                        name=f"shard{target.sid}-failover")

        def failover(shard: _Shard, by: int):
            old = shard.manager
            shard.failing = True
            obs.count("shard.failovers")
            shard.stats.failovers += 1
            events.fail_node(old)  # STONITH: silence the old manager
            shard.frames.end()
            shard.pumps.end()
            taken = yield from shard.repl.take_over(
                by, exclude=frozenset({old})
            )
            if taken is None:
                core.fail(ShardPlaneError(
                    f"shard {shard.sid}: no live standby left to elect"
                ))
                return
            shard.manager = shard.stats.manager = taken[0]
            # Replay the adopted log into a fresh manager state.
            yield from shard.repl.replay()
            shard.slots = Resource(
                sim, capacity=cfg.head_threads,
                name=f"shard{shard.sid}-threads-e{shard.repl.log.epoch}",
            )
            start_services(shard)
            start_pumps(shard)
            dispatched = {
                rec.data["task"] for rec in shard.repl.log.records
                if rec.kind == "dispatch"
            }
            # Re-send leases whose NOTIFY may have died with the old
            # manager (idempotent: the consumer-side dedup and the
            # producer-side subscription set both absorb replays).
            # Completed producers are NOT excluded: a producer that
            # finished before the crash is exactly the one whose NOTIFY
            # may have been in flight to the dying manager, and the
            # producer-side lease service answers those immediately.
            for producer_id in sorted(lease_needs[shard.sid]):
                if producer_id not in shard.notified:
                    send_lease(shard, producer_id)
            # The symmetric loss: a LEASE in flight *to* the old
            # manager died with it, so consumers of this shard's
            # producers re-subscribe against the new manager.
            for other in shards:
                if other.sid == shard.sid or other.failing:
                    continue
                for producer_id in sorted(lease_needs[other.sid]):
                    if owner_of(producer_id) == shard.sid \
                            and producer_id not in other.notified:
                        send_lease(other, producer_id)
            # Re-notify subscribers of already-completed local producers
            # (a NOTIFY in flight when the manager died is lost).
            for producer_id, subscribers in sorted(shard.subs.items()):
                if producer_id in frontier.completed:
                    for sc in sorted(subscribers):
                        send_notify(shard, producer_id, sc)
            # Re-issue the epoch's work: everything ready and not done.
            shard.issued &= frontier.completed
            shard.failing = False
            for task in frontier.ready():
                if owner_of(task.task_id) == shard.sid:
                    spawn_task(task, dedup=task.task_id in dispatched)

        # -- manager and main processes ------------------------------------
        def manager_body(shard: _Shard):
            yield plane_up
            own = directory.tasks_of(shard.sid)
            yield from core.plan_phase(
                len(own), shard.sub_edges, len(shard.nodes),
                origin=shard.manager,
            )
            if shard.repl is not None:
                shard.repl.append("bootstrap", tasks=len(own), sid=shard.sid)
                yield from shard.repl.flush()
            for producer_id in sorted(lease_needs[shard.sid]):
                send_lease(shard, producer_id)
            for task in frontier.ready():
                if owner_of(task.task_id) == shard.sid:
                    spawn_task(task)

        def main_body():
            yield from core.boot()
            if membership is not None:
                membership.on_detect = on_death
                membership.on_head_detect = on_death
                membership.start()
            for shard in shards:
                if shard.repl is not None:
                    shard.repl.start()
                    start_pumps(shard)
                start_services(shard)
            FailureInjector(events).arm(self.inject_failures)
            plane_up.succeed()
            frontier.settle()
            yield frontier.all_done
            if membership is not None:
                membership.stop()
            yield from core.teardown()

        for shard in shards:
            sim.process(manager_body(shard),
                        name=f"shard{shard.sid}-manager")
        main_proc = sim.process(core.drive(main_body()), name="shard-main")

        def finish() -> ShardRunResult:
            result.shard_stats = {s.sid: s.stats for s in shards}
            if membership is not None:
                result.membership_timeline = list(membership.timeline)
                result.detections = list(membership.detections)
                result.gossip_rounds = membership.rounds
            return core.finish()

        return main_proc, finish
