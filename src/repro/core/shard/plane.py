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
* each shard manager is a :class:`~repro.core.runtime.Head`, logging
  dispatches, completions and processed notifications to its own
  :mod:`repro.core.headlog`, replicated to ``head_standbys`` standbys of
  its worker slice.  On a gossip-confirmed manager death,
  :meth:`Head.take_over <repro.core.runtime.Head.take_over>` (FT's head
  failover's too) ends its epoch, promotes a standby and replays the
  log; services restart there, leases are re-sent for unsatisfied
  subscriptions (closing the lost-NOTIFY window) and the shard's ready
  tasks are re-dispatched, ``dedup=True`` for those left in doubt;
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

Deliberately out of scope: failures of node 0 itself (validated) —
root-head failover is :class:`~repro.core.faults.FaultTolerantRuntime`'s
job — and of workers, which fail the run with :class:`ShardPlaneError`.
"""

from __future__ import annotations

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.events import NOTIFICATION_BYTES
from repro.core.faults import FailureInjector, NodeFailure
from repro.core.gossip import FailureDetector
from repro.core.headlog import HeadLog, Replicator
from repro.core.runtime import Head, HeadCore, reject_unread
from repro.core.scheduler import HeftScheduler, Schedule, Scheduler
from repro.core.shard.directory import ShardDirectory
from repro.core.shard.messages import LEASE_TAG, NOTIFY_TAG
from repro.core.shard.report import ShardRunResult, ShardStats
from repro.omp.api import OmpProgram
from repro.omp.task import Task
from repro.sim.errors import SimulationError


class ShardPlaneError(SimulationError):
    """Unrecoverable sharded-control-plane failure."""


class _ShardHead(Head):
    """One shard manager: a :class:`~repro.core.runtime.Head` over the
    tasks of shard ``sid`` (its subgraph ``sub``), dispatched onto its
    worker slice ``nodes``, plus the shard's leases for the remote
    producers it ``needs`` and its notifies, to its ``peers`` over
    ``comm``."""

    def __init__(self, core: HeadCore, sid: int, nodes: tuple[int, ...],
                 repl: Replicator | None, directory: ShardDirectory, sub,
                 needs: set[int], comm, peers: list):
        super().__init__(core, sid, repl, name=f"shard{sid}")
        self.sid = sid
        self.nodes = nodes
        self.sub_edges = sub.num_edges
        self.needs = needs
        self.comm = comm
        self.peers = peers
        owner_of = self.owner_of = directory.owner_of
        self.local = lambda task: owner_of(task.task_id) == sid
        #: producer task id → subscriber shard ids (never popped: kept
        #: for failover re-notification).
        self.subs: dict[int, set[int]] = {}
        #: Remote producer ids whose NOTIFY this shard has processed.
        self.notified: set[int] = set()
        self.stats = ShardStats(shard=sid, manager=sid, nodes=nodes,
                                tasks=len(sub))

    def close(self) -> None:
        """The run ended: the shards' shared ``peers`` list holds this
        head, so drop it."""
        self.peers = []

    def execute(self, task: Task):
        self.core.obs.count("shard.dispatches")
        yield from super().execute(task)

    def release(self, task: Task) -> None:
        """Release the shard's own consumers of ``task``; NOTIFY its
        subscribers."""
        tid, stats = task.task_id, self.stats
        start, end = self.core.result.task_intervals[tid]
        stats.busy_time += end - start
        stats.dispatched += 1
        super().release(task)
        for sc in sorted(self.subs.get(tid, ())):
            self.send_notify(tid, sc)

    def send_notify(self, producer_id: int, sc: int) -> None:
        self.core.obs.count("shard.forwards")
        self.stats.forwards_sent += 1
        self.comm.rank(self.home).isend(
            self.peers[sc].home, ("notify", producer_id, self.sid),
            NOTIFICATION_BYTES, tag=NOTIFY_TAG,
        )

    def send_lease(self, producer_id: int) -> None:
        self.core.obs.count("shard.leases")
        self.stats.leases_sent += 1
        self.comm.rank(self.home).isend(
            self.peers[self.owner_of(producer_id)].home,
            ("lease", producer_id, self.sid),
            NOTIFICATION_BYTES, tag=LEASE_TAG,
        )

    def start_services(self) -> None:
        """Spawn the lease and notify services on the current manager,
        in the run's services (closed when the run ends)."""
        node, spawn = self.home, self.core.services.spawn
        spawn(self._lease_service(node), f"shard{self.sid}-lease@{node}")
        spawn(self._notify_service(node), f"shard{self.sid}-notify@{node}")

    def _lease_service(self, node: int):
        """Producer-side subscriptions, running on ``node`` while it is
        this shard's manager."""
        rank, events = self.comm.rank(node), self.core.events
        while True:
            msg = yield from rank.recv(tag=LEASE_TAG)
            if events.node_failed(node) or self.home != node:
                return
            _kind, producer_id, sc = msg.payload
            self.subs.setdefault(producer_id, set()).add(sc)
            if producer_id in self.core.frontier.completed:
                # The race-free no-barrier path: the producer beat the
                # lease; answer immediately.
                self.send_notify(producer_id, sc)

    def _notify_service(self, node: int):
        """Consumer-side completion notifications."""
        rank, events = self.comm.rank(node), self.core.events
        while True:
            msg = yield from rank.recv(tag=NOTIFY_TAG)
            if events.node_failed(node) or self.home != node:
                return
            _kind, producer_id, _sp = msg.payload
            if producer_id in self.notified:
                self.core.obs.count("shard.dedup_hits")
                self.stats.dedup_hits += 1
                continue
            self.notified.add(producer_id)
            self.append("notify", task=producer_id)
            super().release(self.core.frontier.graph.task(producer_id))

    def fail_over(self, by: int):
        """Generator: a standby takes this shard over after its manager
        died, re-subscribes what a lost LEASE or NOTIFY may have left
        waiting, and re-dispatches the shard's ready tasks."""
        core = self.core
        old = self.home
        core.obs.count("shard.failovers")
        self.stats.failovers += 1
        core.events.fail_node(old)  # STONITH: silence the old manager
        taken = yield from self.take_over(by, frozenset({old}))
        if taken is None:
            core.fail(ShardPlaneError(
                f"shard {self.sid}: no live standby left to elect"))
            return
        self.stats.manager = self.home
        self.start_services()
        self.start_epoch()
        # Re-send leases whose NOTIFY may have died with the old manager
        # (idempotent: the consumer-side dedup and the producer-side
        # subscription set both absorb replays).  Completed producers
        # are NOT excluded: a producer that finished before the crash is
        # exactly the one whose NOTIFY may have been in flight to the
        # dying manager, and the lease service answers those at once.
        for producer_id in sorted(self.needs - self.notified):
            self.send_lease(producer_id)
        # The symmetric loss: a LEASE in flight *to* the old manager
        # died with it, so consumers of this shard's producers
        # re-subscribe against the new manager.
        for other in self.peers:
            if other is self or core.events.node_failed(other.home):
                continue
            for producer_id in sorted(other.needs - other.notified):
                if self.owner_of(producer_id) == self.sid:
                    other.send_lease(producer_id)
        # Re-notify subscribers of already-completed local producers (a
        # NOTIFY in flight when the manager died is lost).
        completed = core.frontier.completed
        for producer_id, subscribers in sorted(self.subs.items()):
            if producer_id in completed:
                for sc in sorted(subscribers):
                    self.send_notify(producer_id, sc)
        self.dispatch_ready()


class _ShardClusterFacade:
    """What a shard's private scheduler sees: the full fabric and node
    table, but only the shard's compute slice as ``workers``."""

    def __init__(self, cluster, nodes: tuple[int, ...]):
        self._cluster = cluster
        self._nodes = nodes
        self.network = cluster.network

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
        sim, events, mpi = core.sim, core.events, core.mpi
        frontier = core.frontier

        directory = ShardDirectory(program.graph, k)
        self.last_directory = directory
        core.obs.count("shard.cross_edges", len(directory.cross_edges))
        lease_needs = directory.lease_needs()
        # Communicators are numbered in creation order: the shards',
        # membership's, then each shard log's.
        shard_comm = mpi.new_communicator(service=True)
        membership = (
            FailureDetector.from_config(cluster, mpi, events, cfg)
            if cfg.gossip else None
        )
        heads: list[_ShardHead] = []
        assignment: dict[int, int] = {}
        planned: dict[int, tuple[float, float]] = {}
        for sid, nodes in enumerate(
                self.compute_slices(cluster.num_nodes, k)):
            # Each shard logs to standbys of its own worker slice, and
            # schedules its subgraph with its own scheduler instance.
            repl = Replicator(
                sim, mpi, events, HeadLog(),
                list(nodes[:min(cfg.head_standbys, len(nodes))]), head=sid,
            ) if cfg.head_standbys > 0 else None
            sub = directory.subgraph(sid)
            heads.append(_ShardHead(core, sid, nodes, repl, directory, sub,
                                    lease_needs[sid], shard_comm, heads))
            sched = (self.scheduler or HeftScheduler()).schedule(
                sub, _ShardClusterFacade(cluster, nodes))
            assignment.update(sched.assignment)
            planned.update(sched.planned)
        core.set_schedule(program.graph, Schedule(assignment, planned))
        core.committed = set()

        plane_up = sim.event("shard-plane-up")

        def on_death(dead: int, by: int) -> None:
            head = next((h for h in heads if h.home == dead), None)
            if head is None:
                # A compute node died: the sharded plane has no worker
                # recovery (that is FaultTolerantRuntime's machinery).
                core.fail(ShardPlaneError(
                    f"worker node {dead} died under the sharded plane; "
                    f"worker fault tolerance needs FaultTolerantRuntime"
                ))
            elif head.repl is None:
                core.fail(ShardPlaneError(
                    f"shard {head.sid} manager (node {dead}) died "
                    f"with no standbys (head_standbys=0)"
                ))
            else:
                core.services.spawn(head.fail_over(by),
                                    f"shard{head.sid}-failover")

        # -- manager and main processes ------------------------------------
        def manager_body(head: _ShardHead):
            yield plane_up
            own = directory.tasks_of(head.sid)
            yield from core.plan_phase(len(own), head.sub_edges,
                                       len(head.nodes), origin=head.home)
            if head.repl is not None:
                head.append("bootstrap", tasks=len(own), sid=head.sid)
                yield from head.repl.flush()
            for producer_id in sorted(head.needs):
                head.send_lease(producer_id)
            head.dispatch_ready()

        def main_body():
            yield from core.boot()
            if membership is not None:
                membership.on_detect = on_death
                membership.on_head_detect = on_death
                membership.start()
            for head in heads:
                if head.repl is not None:
                    head.repl.start(core.services.spawn)
                    head.start_epoch()
                head.start_services()
            FailureInjector(events).arm(self.inject_failures)
            plane_up.succeed()
            frontier.settle()
            yield frontier.all_done
            if membership is not None:
                membership.stop()
            yield from core.teardown()

        for head in heads:
            core.services.spawn(manager_body(head), f"shard{head.sid}-manager")
        main_proc = sim.process(
            core.drive(main_body(), on_abort=(
                membership.stop if membership is not None else None)),
            name="shard-main")

        def finish() -> ShardRunResult:
            result = core.result
            result.shard_stats = {h.sid: h.stats for h in heads}
            if membership is not None:
                result.membership_timeline = list(membership.timeline)
                result.detections = list(membership.detections)
                result.gossip_rounds = membership.rounds
            return core.finish()

        return main_proc, finish
