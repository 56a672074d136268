"""The OMPC runtime: end-to-end execution of an OmpProgram on a cluster.

Execution follows §3.1/§4.4:

1. the process starts on the head node (startup: MPI init, event-system
   spin-up, gate-thread creation);
2. the control thread creates every task *without executing it* —
   worker threads are kept idle;
3. at the implicit barrier the whole task graph is scheduled with HEFT
   (cost ``O(e × p)``);
4. tasks whose dependences are satisfied are dispatched: the data
   manager plans buffer moves (submit from head, or worker-to-worker
   exchange), the event system performs them, and an EXECUTE event runs
   the target region;
5. completions release dependents until the graph drains; exit-data
   tasks retrieve results to the head node;
6. the event system shuts down (gate-thread destruction, process end).

The §7 limitation is modeled exactly: each in-flight task occupies one
of ``config.head_threads`` slots ("an OpenMP thread at the head node is
always blocked, waiting for a target region to complete, even when it
is marked as nowait"), which is what bends the weak-scaling curves at
32–64 nodes.

The head's control loop is written once, here.  :class:`HeadCore`
holds the run's set-up, its phases (steps 1–3 and 6), the per-task
frame, the one data plane of steps 4–5 (the enter-data, exit-data and
target frames with their moves, deletes and memory admission), the
dependency :class:`Frontier` of steps 4–5, the one failure sink
(:meth:`HeadCore.fail`) and the result.  A :class:`Head` drives it:
a slot pool, an epoch's :class:`ProcessGroup`, dispatch, completion,
an optional replicated log and the one standby takeover.
:class:`OMPCRuntime` runs one head with no log; the sharded plane
(:mod:`repro.core.shard.plane`) one per shard manager, adding
ownership, leases and notifies; the fault-tolerant runtime
(:mod:`repro.core.faults`) an ``FTHead`` adding recovery, speculation
and log replay, plugged into the same frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisReport
from repro.analysis.hooks import Analysis
from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.datamanager import DataManager, Move
from repro.core.events import EventSystem
from repro.core.headlog import in_doubt
from repro.core.memory import DeviceMemoryError
from repro.core.tiering import MemoryWait, make_policy
from repro.core.scheduler import HeftScheduler, Schedule, Scheduler
from repro.mpi.comm import MpiWorld, TransportConfig
from repro.obs.observer import Observer
from repro.omp.api import OmpProgram
from repro.omp.task import Task, TaskKind
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.primitives import AllOf, AnyOf
from repro.sim.resources import Resource
from repro.util.units import MILLISECOND


@dataclass
class OMPCRunResult:
    """Everything measured during one OMPC execution."""

    makespan: float
    schedule: Schedule
    startup_time: float = 0.0
    scheduling_time: float = 0.0
    shutdown_time: float = 0.0
    #: task_id -> (dispatch, finish) simulated interval
    task_intervals: dict[int, tuple[float, float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    #: Bytes moved over the fabric during the run.
    network_bytes: float = 0.0
    network_messages: int = 0
    #: The run's :class:`~repro.obs.observer.Observer` when the config
    #: enabled tracing (``OMPCConfig.trace``); ``None`` otherwise.
    obs: Observer | None = None
    #: Correctness findings when the config enabled analysis
    #: (``OMPCConfig.analysis``); ``None`` otherwise.
    analysis: AnalysisReport | None = None

    @property
    def constant_overhead(self) -> float:
        """Startup + shutdown + scheduling — the Fig. 7a numerator."""
        return self.startup_time + self.shutdown_time + self.scheduling_time


def configure_tiering(dm: DataManager, cfg: OMPCConfig, cluster) -> None:
    """Arm ``dm``'s tiered device→host→remote store if ``cfg`` asks.

    Enabled only with a finite capacity *and* a policy, so the default
    config keeps the event stream bit-identical to the un-tiered kernel
    (overflow stays a fatal DeviceMemoryError).  Every worker gets the
    configured budget; a MemoryPressure fault window shrinks it.
    """
    if cfg.device_memory_bytes <= 0 or cfg.eviction_policy == "none":
        return
    sim = cluster.sim
    run_faults = getattr(cluster, "faults", None)

    def capacity_fn(node: int, base: float) -> float:
        factor_of = getattr(run_faults, "capacity_factor", None)
        if factor_of is None:
            return base
        return base * factor_of(node, sim.now)

    dm.configure_tiering(
        {n: cfg.device_memory_bytes for n in range(1, cluster.num_nodes)},
        make_policy(cfg.eviction_policy),
        capacity_fn=capacity_fn,
    )


#: Base delay of the exponential back-off between :func:`fetch_gate`'s
#: retries, doubled on every attempt.
MEM_FETCH_BACKOFF = 0.2 * MILLISECOND


_DEFAULT_CONFIG = OMPCConfig()


#: The runtimes that read each field a runtime may leave unread.
_READERS = {
    "checkpoint_interval": "FaultTolerantRuntime",
    "straggler_factor": "FaultTolerantRuntime",
    "head_standbys": "FaultTolerantRuntime and ShardedRuntime",
    "gossip": "FaultTolerantRuntime and ShardedRuntime",
}


def reject_unread(cfg: OMPCConfig, runtime: str, *names: str) -> None:
    """Raise ``ValueError`` if ``cfg`` moves any of ``names`` off its
    default.  ``runtime`` never reads them, so the run would silently go
    without the feature; the message names the runtimes that do."""
    unread = [f"{name}={getattr(cfg, name)!r} (read by {_READERS[name]})"
              for name in names
              if getattr(cfg, name) != getattr(_DEFAULT_CONFIG, name)]
    if unread:
        raise ValueError(f"{runtime} never reads {', '.join(unread)}")


def fetch_gate(cluster, cfg: OMPCConfig, buffer, dst: int):
    """Generator: fault-injected fetch failures toward ``dst``, retried.

    Tiered runs only.  Under a MemoryPressure fault arm with
    ``fetch_fail_prob``, a read-through fetch may fail before any bytes
    move; it is retried with exponential backoff up to
    ``mem_fetch_retries`` times, then the run gives up with a
    buffer-attributed error.  No fault plan (or no pressure window)
    costs zero extra yields.
    """
    fails = getattr(cluster.faults, "fetch_fails", None)
    if fails is None:
        return
    sim = cluster.sim
    attempt = 0
    while fails(dst, sim.now):
        attempt += 1
        cluster.obs.count("mem.fetch_retries")
        if attempt > cfg.mem_fetch_retries:
            raise DeviceMemoryError(
                f"fetch of buffer {buffer.name} toward node {dst} still "
                f"failing after {cfg.mem_fetch_retries} retries"
            )
        yield sim.timeout(MEM_FETCH_BACKOFF * 2 ** (attempt - 1))


class _NodeCrashed(Exception):
    """Internal control flow: a node an operation touches died."""

    def __init__(self, node: int):
        super().__init__(f"node {node} crashed")
        self.node = node


def _ended(_exc) -> None:
    """An ended run's failure sink: its barrier has already fired, so
    a late error fails nothing."""


def _unguarded(_nodes, operation):
    """No node of a plain run may die: ``operation`` runs as it is."""
    return operation


def _settled(operation):
    """Generator: run ``operation``; return the :class:`_NodeCrashed` it
    raises instead of raising it."""
    try:
        yield from operation
    except _NodeCrashed as crash:
        return crash


class Frontier:
    """The dependency frontier of one task graph (§4.4, steps 4–5).

    ``remaining`` counts, per unfinished task, the producers it still
    waits on; ``completed`` holds the finished task ids, ``pending``
    how many tasks are left, and ``all_done`` is the barrier the
    driver's main process waits on.  ``completed`` seeds a frontier
    with tasks already done: the fault-tolerant runtime builds a fresh
    one from the replayed log after a head failover.
    """

    def __init__(self, sim, graph, completed=()):
        self.graph = graph
        self.completed = done = set(completed)
        self.remaining = {
            tid: len(preds.keys() - done)
            for tid, preds in graph._pred.items() if tid not in done
        }
        self.pending = len(self.remaining)
        self.all_done = sim.event("all-tasks-done")

    def ready(self) -> list[Task]:
        """The unfinished tasks with no unfinished producer, in program
        order."""
        remaining, done = self.remaining, self.completed
        return [t for t in self.graph.tasks()
                if remaining.get(t.task_id) == 0 and t.task_id not in done]

    def done(self, task: Task) -> bool:
        """Record ``task`` as completed; ``False`` if it already was."""
        if task.task_id in self.completed:
            return False
        self.completed.add(task.task_id)
        self.pending -= 1
        return True

    def release(self, producer: Task, spawn, local=None) -> None:
        """Count the completed ``producer`` off its successors (only
        those ``local(successor)`` accepts, when given) and ``spawn``
        each one left with no unfinished producer."""
        remaining = self.remaining
        for succ in self.graph._succ[producer.task_id].values():
            if local is None or local(succ):
                remaining[succ.task_id] -= 1
                if remaining[succ.task_id] == 0:
                    spawn(succ)

    def settle(self) -> None:
        """Fire ``all_done`` once no task is pending (a run that failed
        its barrier already keeps the failure)."""
        if self.pending == 0 and not self.all_done.triggered:
            self.all_done.succeed()


class ProcessGroup:
    """Head-side processes of one run, ended together.

    A spawned member is one no one waits on.  It absorbs the teardown
    :class:`Interrupt` (a failing process with no waiter would crash the
    simulation) and hands a :class:`SimulationError` to ``fail``, the
    run's failure sink, so the error fails this run only, not a
    simulator shared with other tenants; it is forgotten once it ends.
    An adopted member is one its spawner waits on, so its outcome stays
    the waiter's; an ended one is forgotten by a later adoption.  When
    the run ends, :meth:`close` ends every member still alive, with no
    event: the group pins nothing of the run after it.
    """

    def __init__(self, sim, fail):
        self.sim = sim
        self.fail = fail
        #: Members in spawn order (:meth:`end` interrupts them in that
        #: order; a set would order them by memory address).
        self.members: dict = {}
        self._prune_at = 64

    def spawn(self, gen, name: str) -> None:
        def member():
            try:
                yield from gen
            except Interrupt:
                return
            except SimulationError as exc:
                self.fail(exc)
            finally:
                self.members.pop(proc, None)

        proc = self.sim.process(member(), name=name)
        self.members[proc] = None

    def adopt(self, gen, name: str):
        """Start ``gen`` as a member its caller waits on; return the
        process.  Ended adopted members are pruned once they outnumber
        the live ones."""
        members = self.members
        if len(members) >= self._prune_at:
            self.members = members = {p: None for p in members if p.is_alive}
            self._prune_at = max(64, 2 * len(members))
        proc = self.sim.process(gen, name=name)
        members[proc] = None
        return proc

    def end(self, cause=None) -> None:
        """Interrupt every live member, in spawn order."""
        members, self.members = self.members, {}
        for proc in members:
            if proc.is_alive:
                proc.interrupt(cause)

    def close(self) -> None:
        """Close every live member (:meth:`Process.close
        <repro.sim.core.Process.close>`), latest first, so a queued
        waiter withdraws before the holder it waits on lets go."""
        members, self.members = self.members, {}
        for proc in reversed(members):
            proc.close()


class HeadCore:
    """The head's per-launch machinery, shared by all three drivers.

    One instance serves one execution: set-up, the run's phases
    (:meth:`boot`, :meth:`plan_phase`, :meth:`teardown`), the
    :attr:`frontier`, the one failure sink (:meth:`fail`), the one data
    plane (enter-data, exit-data and target frames, moves, deletes,
    broadcast, and :meth:`make_room`'s memory path), the task frame on a
    head-thread slot, and the result.  Each :class:`Head` of a plane
    runs its frames here; the fault-tolerant runtime's may move (frames
    test ``dm.home``, never node 0) and plugs in
    :attr:`dead` and :attr:`guard`, :attr:`on_commit`,
    :attr:`run_target`, :attr:`tombstones` and :attr:`fo_epoch`.  Every
    event-system call takes the frame's ``origin``: the head's node, or
    the shard's manager node.
    """

    #: The "node may die" hook (see ``dead``): a runtime that loses
    #: workers plugs in :meth:`guarded`.
    guard = staticmethod(_unguarded)

    def __init__(self, cluster_spec: ClusterSpec, cfg: OMPCConfig,
                 program: OmpProgram, cluster=None,
                 result_type: type = OMPCRunResult):
        program.validate()
        if cluster is None:
            cluster = Cluster(cluster_spec)
        elif cluster.num_nodes != cluster_spec.num_nodes:
            raise ValueError(
                f"cluster has {cluster.num_nodes} nodes, spec expects "
                f"{cluster_spec.num_nodes}"
            )
        self.cfg = cfg
        self.cluster = cluster
        self.sim = sim = cluster.sim
        self.t0 = sim.now
        if cfg.trace and not cluster.obs.enabled:
            # Must precede MpiWorld/EventSystem construction — both
            # capture ``cluster.obs`` when built.  On a ClusterView this
            # attaches to the view only, keeping job traces isolated.
            cluster.install_observer(Observer(sim))
        self.obs = cluster.obs
        if cfg.analysis and not cluster.analysis.enabled:
            # Like the observer: must precede MpiWorld/EventSystem
            # construction, which capture ``cluster.analysis``.
            cluster.install_analysis(Analysis())
        self.analysis = analysis = cluster.analysis
        # A lossy fabric switches the reliable transport on, on every
        # plane: loss then costs simulated time, not correctness.
        lossy = cluster.faults is not None and cluster.faults.plan.lossy
        self.mpi = MpiWorld(cluster,
                            transport=TransportConfig() if lossy else None)
        self.events = EventSystem(cluster, self.mpi, cfg)
        self.events.on_error = self.fail
        self.frontier = Frontier(sim, program.graph)
        self.dm = DataManager(analysis=analysis if analysis.enabled else None)
        analysis.program_begin(program)
        configure_tiering(self.dm, cfg, cluster)
        #: In-flight eviction markers, by buffer id (planners must not
        #: read a buffer whose spill/drop is mid-flight) and by node
        #: (MemoryWait waits for the node's in-flight evictions).
        self._evicting_bufs: dict[int, set] = {}
        self._evict_markers: dict[int, set] = {}
        #: Memory-release turnstile: planners blocked on other frames'
        #: pins wait on the current event; any unpin/release fires and
        #: replaces it.  Fired only while someone waits, so an enabled
        #: but never-pressured run adds zero events.
        self._mem_turn = sim.event("mem-freed")
        self._mem_waiters = 0
        #: The "node may die" hook.  ``dead`` holds the workers the
        #: driver declared dead (the fault-tolerant runtime shares its
        #: own set); ``yield from guard(nodes, operation)`` runs an
        #: event-system operation that touches ``nodes`` and raises
        #: :class:`_NodeCrashed` if one dies (:meth:`guarded`).  The
        #: plain and sharded runtimes lose no worker: an empty set and
        #: the class's :attr:`guard`, which hands back the operation.
        self.dead: set[int] = set()
        #: No physical stale-copy DELETE: the directory drops the copy,
        #: the bytes stay (set while head standbys replicate).
        self.tombstones = False
        #: The dispatching head's failover epoch, stamped on EXECUTEs.
        self.fo_epoch = 0
        #: Tasks whose completion the data manager already committed,
        #: kept by the sharded plane: a shard re-dispatching a task after
        #: a manager failover must not commit it twice.  ``None`` commits
        #: every frame (a recovery replay must commit again).
        self.committed: set[int] | None = None
        self.schedule = Schedule({})
        #: Read-only enter-data buffer id -> consumer nodes (§7).
        self._broadcast_targets: dict[int, tuple[int, ...]] = {}
        self.result = result_type(makespan=0.0, schedule=self.schedule)
        self._net_bytes0 = cluster.network.total_bytes
        self._net_msgs0 = cluster.network.total_messages
        #: Every process group of the run (:meth:`group`), ended by
        #: :meth:`close` when the run ends.
        self.groups: list[ProcessGroup] = []
        #: Every :class:`Head` of the run, each closed by :meth:`close`.
        self.heads: list[Head] = []
        #: The run's processes outside any head's epoch: the log's
        #: standby loops, a shard's manager, failover, lease and notify
        #: processes, and the operations frames wait on.
        self.services = self.group()

    def group(self) -> ProcessGroup:
        """A new process group of this run, closed with it."""
        group = ProcessGroup(self.sim, self.fail)
        self.groups.append(group)
        return group

    def close(self) -> None:
        """End every process of the run still alive, with no event
        (Fig. 7a: process end), so nothing the simulator still holds
        pins the run's state.  Runs at the end of :meth:`finish` and on
        :meth:`drive`'s abort path.  The event system then reports to
        no sink: an armed kill that fires later still fails its node,
        but holds nothing of the head through it.

        The run's back-references go too, so reference counting frees
        its state: each group's and the event system's failure sink,
        each head's links to the objects that point back at it
        (:meth:`Head.close`), the MPI world's communicator, and the
        hooks a runtime plugged in (bound methods of this core or of its
        head)."""
        for group in self.groups:
            group.close()
            group.fail = _ended
        heads, self.heads = self.heads, []
        for head in heads:
            head.close()
        self.events.on_error = _ended
        self.mpi.close()
        for hook in ("guard", "run_target", "on_commit"):
            vars(self).pop(hook, None)

    def set_schedule(self, graph, schedule: Schedule) -> None:
        """Install the task→node assignment the frames dispatch by.

        With ``broadcast_events``, also collect (§7) each buffer entered
        via enter-data and never written afterwards (read-only on the
        device side) with the distinct nodes of its consumers.
        """
        self.schedule = self.result.schedule = schedule
        if not self.cfg.broadcast_events:
            return
        readers: dict[int, set[int]] = {}
        written: set[int] = set()
        entered: set[int] = set()
        for task in graph.tasks():
            if task.kind == TaskKind.TARGET_ENTER_DATA:
                entered.update(b.buffer_id for b in task.buffers)
            elif task.kind == TaskKind.TARGET:
                node = schedule.node_of(task)
                for buf in task.reads:
                    readers.setdefault(buf.buffer_id, set()).add(node)
                written.update(b.buffer_id for b in task.writes)
        for bid in entered - written:
            nodes = sorted(readers.get(bid, ()))
            if len(nodes) > 1:
                self._broadcast_targets[bid] = tuple(nodes)

    # -- the run's phases ---------------------------------------------------
    def boot(self, origin: int = 0):
        """Generator: startup, from process start to gate-thread creation
        (Fig. 7a)."""
        obs = self.obs
        span = obs.begin("sched", "startup", origin)
        yield self.sim.timeout(self.cfg.startup_time)
        self.events.start()
        obs.end(span)
        self.result.startup_time = self.cfg.startup_time

    def plan_phase(self, tasks: int, edges: int, workers: int,
                   origin: int = 0):
        """Generator: the control thread creates ``tasks`` tasks (workers
        stay idle), then HEFT schedules ``edges`` edges over ``workers``
        workers at the implicit barrier (cost ``O(e × p)``).  The result's
        scheduling time is the longest such phase (one per shard)."""
        obs, sim, cfg = self.obs, self.sim, self.cfg
        creation = tasks * cfg.task_creation_overhead
        if creation:
            span = obs.begin("sched", "task-creation", origin, tasks=tasks)
            yield sim.timeout(creation)
            obs.end(span)
        span = obs.begin("sched", "heft", origin, edges=edges)
        cost = edges * max(workers, 1) * cfg.schedule_unit_cost
        if cost:
            yield sim.timeout(cost)
        obs.end(span)
        result = self.result
        result.scheduling_time = max(result.scheduling_time, cost + 0.0)

    def drive(self, body, on_abort=None):
        """Generator: the driver's main ``body``.  On an unrecoverable
        error (or a workload manager's preemption interrupt) stop the
        driver's own services (``on_abort()``), tear the event system
        down and :meth:`close` every process of the run, so a shared
        simulation is left with no process of it after the error
        propagates out."""
        try:
            yield from body
        except BaseException:
            if on_abort is not None:
                on_abort()
            self.events.abort()
            self.close()
            raise

    def teardown(self, origin: int = 0):
        """Generator: shutdown, from gate-thread destruction to process
        end.  A head that died has no gates left to stop."""
        obs = self.obs
        span = obs.begin("sched", "shutdown", origin)
        if not self.events.node_failed(origin):
            yield from self.events.shutdown(origin=origin)
        yield self.sim.timeout(self.cfg.shutdown_time)
        obs.end(span)
        self.result.shutdown_time = self.cfg.shutdown_time

    def fail(self, exc: BaseException) -> None:
        """The run's one failure sink: fail the frontier's barrier, which
        the driver's main process waits on, so ``exc`` ends this run
        (torn down by :meth:`drive`) and no other run sharing the
        simulator.  Every :class:`ProcessGroup` of the run and the event
        system's handlers (``EventSystem.on_error``) report here."""
        done = self.frontier.all_done
        if not done.triggered:
            done.fail(exc)

    def finish(self, failed=frozenset()):
        """Fill in and return the run's result (call once, at the end).

        ``failed`` adds nodes the driver declared dead to the crashed
        ones the analysis leaves out.
        """
        result, obs, network = self.result, self.obs, self.cluster.network
        result.makespan = self.sim.now - self.t0
        result.counters = obs.snapshot()
        result.network_bytes = network.total_bytes - self._net_bytes0
        result.network_messages = network.total_messages - self._net_msgs0
        if obs.enabled:
            # Fold the transport tallies into the observer so one
            # object carries the whole run's metrics.
            for stat, value in self.mpi.stats.items():
                obs.count(f"mpi.transport.{stat}", value)
            result.obs = obs
        if self.analysis.enabled:
            result.analysis = self.analysis.finalize(
                [self.mpi], failed=self.events.failed_nodes | failed, obs=obs
            )
        self.close()
        return result

    # -- buffer movement ---------------------------------------------------
    def guarded(self, nodes, operation):
        """Generator: race ``operation`` against any of ``nodes`` dying
        (the fault-tolerant runtime's :attr:`guard`).

        A crash mid-operation may strand the remote half of the event
        (e.g. an EXCHANGE destination waiting on a dead source); the
        origin-side process is interrupted and :class:`_NodeCrashed`
        reports the node to the caller.
        """
        events = self.events
        for node in nodes:
            if node in self.dead or events.node_failed(node):
                raise _NodeCrashed(node)
        proc = self.services.adopt(operation, "ft-op")
        yield events.race_failure([proc], nodes)
        if proc.triggered:
            if not proc.ok:
                raise proc.value
            return proc.value
        if proc.is_alive:
            proc.interrupt("node failure")
        raise _NodeCrashed(next(n for n in nodes if events.node_failed(n)))

    def _perform_move(self, move: Move, origin: int):
        buf = move.buffer
        obs, events, dm = self.obs, self.events, self.dm
        home = dm.home
        if dm.tiering is not None:
            yield from fetch_gate(self.cluster, self.cfg, buf, move.dst)
        move_span = obs.begin(
            "data", f"move:{buf.name}", origin,
            src=move.src, dst=move.dst, nbytes=buf.nbytes,
        ) if obs.enabled else None
        if move.src == home:
            # A shard's manager stages its own host-resident inputs
            # (sharded ingest).
            op = events.submit(move.dst, buf.buffer_id, buf.data,
                               buf.nbytes, origin=origin, label=buf.name)
        elif move.dst == home:
            op = events.retrieve(move.src, buf.buffer_id, buf.nbytes,
                                 origin=origin)
        elif self.cfg.forwarding_enabled:
            op = events.exchange(move.src, move.dst, buf.buffer_id,
                                 buf.nbytes, origin=origin, label=buf.name)
        else:
            op = self._staged(move, origin)
        payload = yield from self.guard(
            [n for n in (move.src, move.dst) if n != home], op)
        for node in (move.src, move.dst):
            if node in self.dead:
                raise _NodeCrashed(node)  # declared dead mid-move
        if move.dst == home:
            buf.data = payload
        dm.commit_move(move)
        if move_span is not None:
            obs.end(move_span)

    def _staged(self, move: Move, origin: int):
        # Ablation B: stage worker-to-worker moves via the head.
        buf, events = move.buffer, self.events
        payload = yield from events.retrieve(
            move.src, buf.buffer_id, buf.nbytes, origin=origin
        )
        yield from events.submit(move.dst, buf.buffer_id, payload,
                                 buf.nbytes, origin=origin, label=buf.name)

    def _perform_moves(self, moves: list[Move], origin: int):
        """Overlap independent buffer moves of one task.  A move whose
        node dies fails the frame once every sibling move has settled,
        so no transfer outlives the frame's pins."""
        if not moves:
            return
        if len(moves) == 1:
            yield from self._perform_move(moves[0], origin)
            return
        sim = self.sim
        adopt = self.services.adopt
        procs = [
            adopt(_settled(self._perform_move(m, origin)),
                  f"move:{m.buffer.name}")
            for m in moves
        ]
        yield AllOf(sim, procs)
        for proc in procs:
            if proc.value is not None:
                raise proc.value

    def _perform_deletes(self, stale: list, origin: int):
        """Synchronously remove invalidated worker copies.  A dead
        holder's copy died with it, a DELETE whose holder dies is
        dropped, and under :attr:`tombstones` none is sent."""
        if self.tombstones:
            return
        obs, home, dead = self.obs, self.dm.home, self.dead
        for buf, holder in stale:
            if holder == home or holder in dead:
                continue
            del_span = obs.begin(
                "data", f"delete:{buf.name}", origin, holder=holder
            ) if obs.enabled else None
            delete = self.events.delete(holder, buf.buffer_id, origin=origin)
            crash = yield from _settled(self.guard([holder], delete))
            if crash is None:
                # Lazy head-side release: only after the physical
                # DELETE landed may the bytes be re-planned.
                self.dm.mem_release(buf, holder)
                self._mem_wake()
            if del_span is not None:
                obs.end(del_span)

    # -- tiered-store eviction machinery -----------------------------------
    def _mem_wake(self) -> None:
        if self._mem_waiters == 0:
            return
        ev = self._mem_turn
        self._mem_turn = self.sim.event("mem-freed")
        if not ev.triggered:
            ev.succeed()

    def _await_evictions(self, buffer_ids):
        """Wait until none of ``buffer_ids`` has an in-flight eviction.
        Returns inside a synchronous block — callers pin immediately
        after, with no yield in between."""
        evicting = self._evicting_bufs
        while True:
            waits = [m for bid in buffer_ids for m in evicting.get(bid, ())]
            if not waits:
                return
            yield AllOf(self.sim, waits)

    def _wait_for_room(self, node: int):
        """Wait for any space-freeing signal on ``node``: an in-flight
        eviction landing, or any unpin/release."""
        markers = list(self._evict_markers.get(node, ()))
        self._mem_waiters += 1
        try:
            yield AnyOf(self.sim, markers + [self._mem_turn])
        finally:
            self._mem_waiters -= 1

    def _perform_one_eviction(self, ev, marker, origin: int):
        buf, node = ev.buffer, ev.node
        dm, events, obs, dead = self.dm, self.events, self.obs, self.dead
        # Both ends are guarded: a dead victim node strands the remote
        # half, a dead origin (a failed-over head) the reply.
        watch = [node, origin]
        try:
            # A victim on a node declared dead needs no work: the crash
            # wiped the device and the directory forgot its copies.
            if node in dead:
                return
            # Write-behind: this node holds the only valid copy; persist
            # it to the host image first.  A clean victim whose other
            # copies were evicted or died since planning is one too.  A
            # copy the directory does not list (a stale tombstone, or a
            # fetch whose source died before it landed) is only deleted.
            held = dm.locations(buf)
            if node in held and (ev.spill or held == {node}):
                payload = yield from self.guard(watch, events.retrieve(
                    node, buf.buffer_id, buf.nbytes, origin=origin
                ))
                # A copy the directory dropped meanwhile (the node died,
                # or a failover invalidated the buffer) is not spilled.
                if node in dead or node not in dm.locations(buf):
                    return
                buf.data = payload
                dm.commit_move(Move(buf, node, dm.home))
                obs.count("mem.spill_bytes", buf.nbytes)
            # Drop the entry before the DELETE: a concurrent eviction of
            # another replica then sees this one gone, and a holder
            # dying meanwhile reports the buffer lost.
            dm.commit_evict(buf, node)
            yield from self.guard(watch, events.delete(
                node, buf.buffer_id, origin=origin
            ))
            if node in dead:
                return
            dm.mem_release(buf, node)
            self._mem_wake()
            obs.count("mem.evict")
        finally:
            # Landed, or abandoned with the copy still charged.
            self.dm.tiering.settle(node, buf.buffer_id)
            bucket = self._evicting_bufs.get(buf.buffer_id)
            if bucket is not None:
                bucket.discard(marker)
                if not bucket:
                    self._evicting_bufs.pop(buf.buffer_id, None)
            self._evict_markers.get(node, set()).discard(marker)
            if not marker.triggered:
                marker.succeed()

    def _perform_evictions(self, node: int, evictions: list, origin: int):
        if not evictions:
            return
        sim = self.sim
        # Register every marker before the first yield: any planner that
        # runs while these are in flight must see the full set (else it
        # could pick a mid-eviction buffer as a source).
        procs = []
        for ev in evictions:
            marker = sim.event(f"evicted:{ev.buffer.name}")
            self._evicting_bufs.setdefault(
                ev.buffer.buffer_id, set()
            ).add(marker)
            self._evict_markers.setdefault(node, set()).add(marker)
            procs.append(self.services.adopt(
                self._perform_one_eviction(ev, marker, origin),
                f"evict:{ev.buffer.name}",
            ))
        yield AllOf(sim, procs)

    def make_room(self, task: Task, node: int, incoming, pinned_ids,
                  origin: int, flush):
        """Generator: make room on ``node`` for the buffers ``incoming()``
        lists (re-planned on every retry), then perform the evictions.

        The caller holds pins on ``pinned_ids`` and keeps them after.
        Never plans against a pinned buffer whose eviction is mid-flight:
        the pins are released while it lands and re-taken in the same
        synchronous block as the plan.  Blocked by other frames' pins or
        in-flight evictions (:class:`MemoryWait`), it backs off the same
        way and sleeps on the release turnstile.  The back-off unpin
        does NOT fire the turnstile: waking peers on transient unpins
        lets two blocked frames ping-pong wakes at one instant forever.
        Real releases (evictions landing, deletes, frame completion, a
        declared node death) do the waking.

        ``flush()`` (``None`` but for an enter data admitting buffers one
        at a time) materializes the admitted prefix before any back-off
        unpin and before the evictions, lest a victim be charged but not
        yet materialized.  The prefix's own pins are often the blockage,
        so such a back-off first re-plans against the unpinned state.
        """
        dm, evicting = self.dm, self._evicting_bufs

        def plan():
            try:
                return dm.plan_evictions(task, node, incoming())
            except MemoryWait:
                return None

        evictions, blocked = None, False
        while evictions is None:
            if blocked and flush is not None:
                yield from flush()
            if blocked or any(bid in evicting for bid in pinned_ids):
                dm.unpin(pinned_ids)
                try:
                    if blocked and flush is not None:
                        evictions = plan()
                    if evictions is None:
                        if blocked:
                            yield from self._wait_for_room(node)
                        yield from self._await_evictions(pinned_ids)
                finally:
                    dm.pin(pinned_ids)
            if evictions is None:
                evictions = plan()
            blocked = True
        if evictions and flush is not None:
            yield from flush()
        yield from self._perform_evictions(node, evictions, origin)

    # -- the task frame ----------------------------------------------------
    def run_task(self, task: Task, slots: Resource, complete,
                 origin: int = 0, *, body):
        """Generator: run ``task`` on one head-thread slot of ``slots``.

        §7: one head-node OpenMP thread blocks per in-flight task.
        ``body(task)`` is the generator that runs the task (a
        :class:`Head`'s :meth:`~Head.execute`); ``complete(task)`` runs
        last.  A frame interrupted while queued withdraws its request,
        and one interrupted in its body releases its slot, so a
        failover's teardown cannot leak a slot.
        """
        obs, sim, analysis = self.obs, self.sim, self.analysis
        enabled = obs.enabled
        wait_span = obs.begin(
            "task", f"{task.name}:wait-slot", origin, task_id=task.task_id
        ) if enabled else None
        yield from slots.acquire()
        if enabled:
            obs.end(wait_span)
            obs.gauge_add("head.inflight", 1)
        analysis.task_begin(task)
        start = sim.now
        try:
            yield from body(task)
        finally:
            slots.release()
            if enabled:
                obs.gauge_add("head.inflight", -1)
        self.result.task_intervals[task.task_id] = (start, sim.now)
        analysis.task_end(task)
        complete(task)

    def _run_by_kind(self, task: Task, origin: int, dedup: bool,
                     node: int | None = None):
        """Generator: the frame of ``task``'s kind on ``node`` (default:
        its scheduled node)."""
        if node is None:
            node = self.schedule.node_of(task)
        if task.kind == TaskKind.CLASSICAL:
            yield from self._run_classical(task)
        elif task.kind == TaskKind.TARGET_ENTER_DATA:
            yield from self._run_enter_data(task, node, origin)
        elif task.kind == TaskKind.TARGET_EXIT_DATA:
            yield from self._run_exit_data(task, origin)
        else:
            yield from self.run_target(task, node, origin, dedup)

    def _run_classical(self, task: Task):
        """Generator: run a classical task on the home node's CPU
        against host memory, then commit its writes there."""
        home = self.dm.home
        head = self.cluster.node(home)
        self.analysis.on_host_task(task, self.dm)
        yield from head.cpu.acquire()
        try:
            if task.cost:
                yield self.sim.timeout(head.compute_time(task.cost))
            if task.fn is not None:
                task.fn(*(d.buffer.data for d in task.deps))
        finally:
            head.cpu.release()
        self.on_commit(task, home, None)

    def _enter_broadcast(self, task: Task, node: int, origin: int):
        # §7 extension: one-to-many proactive distribution.  When the
        # task graph shows the buffer is read-only and consumed on
        # several nodes, a single binomial broadcast event replaces the
        # later per-consumer exchanges (each of which would need head
        # orchestration).
        dm = self.dm
        for buf in task.buffers:
            extra = self._broadcast_targets.get(buf.buffer_id, ())
            dsts = [d for d in extra if d != node and d != dm.home]
            if not dsts:
                continue
            for dst in dsts:
                # Caller's pins stay held here (the source copy must
                # survive the broadcast), so a wait can only be resolved
                # by other frames' releases — acceptable for the opt-in
                # broadcast ablation.
                yield from self.make_room(task, dst, lambda: [buf], (),
                                          origin, None)
            yield from self.events.broadcast(node, dsts, buf.buffer_id,
                                             buf.nbytes, origin=origin)
            for dst in dsts:
                dm.commit_move(Move(buf, node, dst))

    def _run_enter_data(self, task: Task, node: int, origin: int):
        dm = self.dm
        if node == dm.home:
            return  # no consumer was scheduled; data stays on host
        # Admit the buffers one at a time: an enter-data working set
        # larger than the device is legal — buffers entered earlier
        # become clean replicas (the host image survives) that the tier
        # may evict to admit the rest; consumers re-fetch them
        # read-through.  Unpressured (or untiered), every per-buffer
        # plan is synchronous and the moves are batched into one
        # overlapped transfer.
        buf_ids = sorted({b.buffer_id for b in task.buffers})
        yield from self._await_evictions(buf_ids)
        dm.pin(buf_ids)
        #: Planned-but-unperformed (buffer, moves) pairs.
        staged: list = []

        def flush():
            # Materialize (and commit) everything planned so far.
            mvs = [m for _b, ms in staged for m in ms]
            yield from self._perform_moves(mvs, origin)
            for b, _ms in staged:
                dm.commit_enter_data(b, node)
                self.on_commit(task, node, b)
            staged.clear()

        try:
            for buf in task.buffers:
                moves = None

                def incoming():
                    nonlocal moves
                    moves = dm.plan_enter_data(buf, node)
                    return [m.buffer for m in moves if m.dst == node]

                yield from self.make_room(task, node, incoming, buf_ids,
                                          origin, flush)
                staged.append((buf, moves))
            yield from flush()
            if self.cfg.broadcast_events:
                yield from self._enter_broadcast(task, node, origin)
        finally:
            dm.unpin(buf_ids)
            self._mem_wake()

    def _run_exit_data(self, task: Task, origin: int):
        dm = self.dm
        # Exit retrieves from each buffer's latest location: an eviction
        # mid-flight would invalidate that source, so drain first and
        # pin for the duration.
        buf_ids = sorted({b.buffer_id for b in task.buffers})
        yield from self._await_evictions(buf_ids)
        dm.pin(buf_ids)
        try:
            moves = []
            for buf in task.buffers:
                moves.extend(dm.plan_exit_data(buf))
            yield from self._perform_moves(moves, origin)
            for buf in task.buffers:
                removals = dm.commit_exit_data(buf)
                self.on_commit(task, dm.home, buf)
                yield from self._perform_deletes(removals, origin)
        finally:
            dm.unpin(buf_ids)
            self._mem_wake()

    def _run_target(self, task: Task, node: int, origin: int, dedup: bool,
                    attempt: int = 0):
        """Generator: the target frame.  ``attempt`` identifies the
        dispatch for speculation's revocation."""
        dm = self.dm
        dep_ids = sorted({d.buffer.buffer_id for d in task.deps})
        # Pin the whole frame, so no later planner can pick any of these
        # buffers as a victim anywhere.
        dm.pin(dep_ids)
        try:
            plan = None

            def incoming():
                nonlocal plan
                plan = dm.plan_for_task(task, node)
                moves, allocs = plan
                return list(allocs) + [m.buffer for m in moves
                                       if m.dst == node]

            yield from self.make_room(task, node, incoming, dep_ids,
                                      origin, None)
            moves, allocs = plan
            self.count_reads(task, node, {m.buffer.buffer_id for m in moves})
            yield from self._run_target_body(task, node, moves, allocs,
                                             origin, dedup, attempt)
        finally:
            dm.unpin(dep_ids)
            self._mem_wake()

    #: The target frame, :meth:`_run_target` unless a runtime wraps it.
    run_target = _run_target

    def on_commit(self, task: Task, node: int, buf) -> None:
        """Commit bookkeeping, called right after each directory commit
        of a frame (a driver may replace it): ``buf`` is ``None`` for a
        task's writes on ``node``, else one buffer entered on ``node`` or
        exited to the home ``node``.  The plain runtime keeps none."""

    def count_reads(self, task: Task, node: int, fetched) -> None:
        """Read-through accounting on a tiered ``node``: each buffer
        ``task`` reads is a hit when served locally, a miss when in
        ``fetched`` (ids that need a transfer: cold or previously
        evicted)."""
        if not self.dm.tiered(node):
            return
        counted: set[int] = set()
        for dep in task.deps:
            bid = dep.buffer.buffer_id
            if bid in counted or not task.dep_type_for(dep.buffer).reads:
                continue
            counted.add(bid)
            self.obs.count("mem.miss" if bid in fetched else "mem.hit")

    def _run_target_body(self, task: Task, node: int, moves, allocs,
                         origin: int, dedup: bool, attempt: int = 0):
        obs, events, dm, guard = self.obs, self.events, self.dm, self.guard
        for mv in moves:
            # A fetch logically reads the buffer on the task's behalf.
            self.analysis.on_move(task, mv.buffer)
        enabled = obs.enabled
        fetch_span = obs.begin(
            "task", f"{task.name}:fetch", origin,
            target=node, moves=len(moves), allocs=len(allocs),
        ) if enabled else None
        for buf in allocs:
            yield from guard([node], events.alloc(
                node, buf.buffer_id, payload=buf.data, origin=origin,
                nbytes=buf.nbytes, label=buf.name, owner=task.name,
            ))
            dm.commit_alloc(buf, node)
        yield from self._perform_moves(moves, origin)
        if node == dm.home:
            # Self-dispatch (an elected head doubles as a worker): the
            # directory counts the host image as home-resident, but the
            # node's device table only holds explicit allocations.  Map
            # the missing deps by reference: no bytes move.
            mem = events.memories[node]
            for dep in task.deps:
                buf = dep.buffer
                if dm.is_resident(buf, node) and buf.buffer_id not in mem:
                    yield from guard([node], events.alloc(
                        node, buf.buffer_id, payload=buf.data,
                        origin=origin, nbytes=buf.nbytes,
                    ))
        if enabled:
            obs.end(fetch_span)
        exec_span = obs.begin(
            "task", f"{task.name}:execute", origin, target=node
        ) if enabled else None
        detected = yield from guard([node], events.execute(
            node, task, origin=origin, attempt=attempt, dedup=dedup,
            fo_epoch=self.fo_epoch, outputs=dm.outputs(task),
        ))
        if enabled:
            obs.end(exec_span)
        commit_span = obs.begin(
            "task", f"{task.name}:commit", origin, target=node
        ) if enabled else None
        committed = self.committed
        if committed is None or task.task_id not in committed:
            if committed is not None:
                committed.add(task.task_id)
            stale = dm.commit_task_done(
                task, node,
                written_ids=set(detected) if detected is not None else None,
            )
            self.on_commit(task, node, None)
            yield from self._perform_deletes(stale, origin)
        if enabled:
            obs.end(commit_span)


def _unlogged(*_args, **_kwargs) -> None:
    """A head with no log appends nothing."""


class Head:
    """The head node's control loop (§3.1): it dispatches each ready
    task into a :class:`HeadCore` frame on one of its ``head_threads``
    slots, and releases the successors of each completed one.

    Every plane drives this one class: :class:`OMPCRuntime` one head
    with no log, the sharded plane one head per shard manager, the
    fault-tolerant runtime one :class:`~repro.core.faults.FTHead`.  A
    head acts from node :attr:`home`; its frames and services run in
    :attr:`epoch`, ended together when that node dies.  With a
    :class:`~repro.core.headlog.Replicator` it logs each dispatch and
    completion, and on its node's death :meth:`take_over` moves it to
    the elected standby, which re-dispatches the work its log leaves
    :attr:`in_doubt`.  Process and resource names derive from ``name``
    and ``frame``.
    """

    #: Whether :meth:`~repro.core.faults.FTHead.on_commit` logs each
    #: directory commit (a log a successor rebuilds the directory from:
    #: data movement is logged there, a target's completion with its
    #: writes).  Otherwise the log holds each dispatch and completion.
    logs_commits = False

    def __init__(self, core: HeadCore, home: int = 0, repl=None,
                 name: str = "head", frame: str = "task:"):
        self.core = core
        self.home = home
        self.repl = repl
        self.append = repl.append if repl is not None else _unlogged
        self.name = name
        self.frame = frame
        self.slots = Resource(core.sim, capacity=core.cfg.head_threads,
                              name=f"{name}-threads")
        core.heads.append(self)
        #: Head-side processes of the current incarnation, all
        #: interrupted when it dies: its frames unwind before the
        #: successor takes over, so no stale completion races it.
        self.epoch = core.group()
        #: The tasks this head dispatches (``None``: every task).
        self.local = None
        #: Task id -> node of each dispatch the adopted log leaves
        #: without a completion; re-issued with ``dedup``.
        self.in_doubt: dict[int, int] = {}

    def close(self) -> None:
        """The run ended (:meth:`HeadCore.close`): drop what links back
        to this head.  A plain head holds no such link."""

    def spawn(self, task: Task) -> None:
        self.epoch.spawn(
            self.core.run_task(task, self.slots, self.complete, self.home,
                               body=self.execute),
            name=f"{self.frame}{task.name}",
        )

    def complete(self, task: Task) -> None:
        frontier = self.core.frontier
        if not frontier.done(task):
            return
        if task.kind.is_data_movement:
            self.append("task_done", task_id=task.task_id, node=self.home)
        elif not self.logs_commits:
            self.append("task_done", task_id=task.task_id,
                        node=self.core.schedule.node_of(task))
        self.release(task)
        frontier.settle()

    def release(self, task: Task) -> None:
        """Count the completed ``task`` off this head's successors and
        dispatch each one it readied."""
        self.core.frontier.release(task, self.spawn, self.local)

    def dispatch_ready(self) -> None:
        frontier, local = self.core.frontier, self.local
        for task in frontier.ready():
            if local is None or local(task):
                self.spawn(task)
        frontier.settle()

    def start_epoch(self) -> None:
        """Spawn the current incarnation's services: one replication
        pump per live standby."""
        if self.repl is not None:
            for s in self.repl.live_standbys():
                self.epoch.spawn(self.repl.pump(s), name=self.pump_name(s))

    def pump_name(self, standby: int) -> str:
        return f"{self.name}-pump{standby}"

    def execute(self, task: Task):
        """Generator: the frame's body: log the dispatch, then run the
        frame of ``task``'s kind on its scheduled node."""
        node = self.core.schedule.node_of(task)
        yield from self.log_dispatch(task, node)
        yield from self.core._run_by_kind(
            task, self.home, task.task_id in self.in_doubt, node)

    def log_dispatch(self, task: Task, node: int):
        """Generator: log ``task``'s dispatch to ``node`` (a classical
        task runs at home), then wait out the log's replication bound."""
        repl = self.repl
        if repl is None:
            return
        kind = task.kind
        if not (kind.is_data_movement and self.logs_commits):
            self.append(
                "dispatch", task_id=task.task_id,
                node=self.home if kind == TaskKind.CLASSICAL else node,
            )
        # INOUT fence: an ambiguous in-place mutation must be
        # *detectable* from every replica before it can happen.
        fence = not kind.is_data_movement and any(
            d.type.writes and d.type.reads for d in task.deps)
        yield from repl.flush() if fence else repl.throttle()

    def take_over(self, by: int, exclude: frozenset):
        """Generator: this head's node died.  End its epoch (again, if
        its driver already did), let ``by`` elect and announce a standby
        not in ``exclude`` (:meth:`Replicator.take_over
        <repro.core.headlog.Replicator.take_over>`), move :attr:`home`
        there, replay the adopted log and read what it leaves
        :attr:`in_doubt`.  Returns ``(winner, elected_at)``, or ``None``
        with no standby left."""
        self.epoch.end("head failover")
        repl = self.repl
        taken = yield from repl.take_over(by, exclude=exclude)
        if taken is None:
            return None
        self.home = taken[0]
        yield from repl.replay()
        self.in_doubt = in_doubt(repl.log.records)
        return taken


class OMPCRuntime:
    """Run OmpPrograms on a simulated cluster through the full OMPC stack."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: OMPCConfig | None = None,
        scheduler: Scheduler | None = None,
    ):
        if cluster_spec.num_nodes < 2:
            raise ValueError(
                "OMPC needs a head node plus at least one worker node"
            )
        self.cluster_spec = cluster_spec
        self.config = cfg = config or OMPCConfig()
        self.scheduler = scheduler or HeftScheduler()
        #: The cluster of the most recent run (for inspection in tests).
        self.last_cluster: Cluster | None = None
        #: The sharded delegate when ``config.head_shards > 1``.
        self._sharded = None
        if cfg.head_shards > 1:
            # Sharded control plane (repro.core.shard): K managers, each
            # with its own scheduler instance and head_threads pool.
            # head_shards == 1 never reaches this import, keeping the
            # classic single-head path — and its event stream — byte-
            # for-byte untouched.
            from repro.core.shard.plane import ShardedRuntime

            self._sharded = ShardedRuntime(cluster_spec, cfg,
                                           scheduler=scheduler)
        else:
            reject_unread(cfg, "OMPCRuntime (head_shards=1)",
                          "checkpoint_interval", "straggler_factor",
                          "head_standbys", "gossip")

    # ------------------------------------------------------------------
    def run(self, program: OmpProgram) -> OMPCRunResult:
        """Execute ``program`` on a fresh cluster and drive the clock."""
        main_proc, finish = self.launch(program)
        main_proc.sim.run(until=main_proc)
        return finish()

    def launch(self, program: OmpProgram, cluster=None):
        """Set up one execution and return ``(main_process, finish)``.

        With ``cluster=None`` a private :class:`Cluster` is built from
        ``self.cluster_spec`` (the classic single-application path).
        Passing a cluster — in practice a
        :class:`~repro.cluster.partition.ClusterView` partition — runs
        the program *inside an already-ticking simulation*: the caller
        owns the clock, this runtime only contributes a process.  All
        result times are relative to launch (``makespan`` is the job's
        duration, not the absolute clock), and ``finish()`` must be
        called only after the returned process has completed.
        """
        if self._sharded is not None:
            main_proc, finish = self._sharded.launch(program, cluster)
            self.last_cluster = self._sharded.last_cluster
            return main_proc, finish
        core = HeadCore(self.cluster_spec, self.config, program, cluster)
        cluster = self.last_cluster = core.cluster
        frontier, graph = core.frontier, program.graph
        head = Head(core)

        # -- main process on the head node ------------------------------------
        def main_body():
            # 1. startup: process start -> gate-thread creation (Fig. 7a).
            yield from core.boot()
            # 2./3. create every task, then schedule the graph with HEFT.
            yield from core.plan_phase(
                frontier.pending, graph.num_edges, cluster.num_nodes - 1
            )
            # 4./5. dispatch and drain the graph.
            head.dispatch_ready()
            yield frontier.all_done
            # 6. shutdown: gate-thread destruction -> process end.
            yield from core.teardown()

        # Scheduling happens inside main_body() in simulated time, but the
        # assignment itself is computed eagerly here (it is deterministic
        # and independent of the clock).
        core.set_schedule(graph, self.scheduler.schedule(graph, cluster))
        return (core.sim.process(core.drive(main_body()), name="ompc-main"),
                core.finish)
