"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. [34]).

Standard two-phase HEFT with an insertion-based processor selection,
run over the *compute* tasks (targets); classical and data-movement
tasks are placed by the §4.4 adaptation rules afterwards.

Cost model
----------
* ``w(t, n) = t.cost / speed(n)`` — execution time of task ``t`` on
  node ``n``; the ranking phase uses the mean over worker nodes.
* ``c(u, v) = latency + bytes(u→v) / bandwidth`` when ``u`` and ``v``
  run on different nodes, else 0.  ``bytes(u→v)`` is the total size of
  buffers written by ``u`` and read by ``v``.
* Tasks whose input buffers originate on the host (entered via
  ``target enter data``) additionally see a host-staging term: the
  transfer host → candidate-node, available from time 0.

The paper bounds HEFT at ``O(e × p)`` (§4.4): each edge examined once
per candidate node.  Processor selection here costs ``O(e)`` plus one
timeline walk per task — a node's ready time differs from the common
"every input is remote" value only if it hosts one of the task's
predecessors, so one pass over the predecessors prices every node —
and ``O(p)`` more only for tasks that fall back to the full node scan
(no affinity home, or a home outside the tie window).
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from repro.cluster.machine import Cluster
from repro.core.datamanager import HOST
from repro.core.events import EVENT_HANDLERS
from repro.core.scheduler.base import Schedule, Scheduler
from repro.omp.task import Task, TaskKind
from repro.omp.taskgraph import TaskGraph

_INF = float("inf")


def shared_bytes(producer: Task, consumer: Task) -> float:
    """Bytes flowing along the dependence edge ``producer → consumer``."""
    read_ids = {b.buffer_id for b in consumer.reads}
    produced = {b.buffer_id: b.nbytes for b in producer.writes}
    return sum(nbytes for bid, nbytes in produced.items() if bid in read_ids)


class _SlotTimeline:
    """Busy intervals of one execution slot, insertion-based EST."""

    def __init__(self):
        self._busy: list[tuple[float, float]] = []

    def earliest_start(self, ready: float, duration: float) -> float:
        """Earliest start ≥ ready such that [start, start+duration) is free."""
        start = ready
        for begin, end in self._busy:
            if start + duration <= begin:
                break
            if end > start:
                start = end
        return start

    def insert(self, start: float, end: float) -> None:
        bisect.insort(self._busy, (start, end))


class _NodeTimeline:
    """A node's execution capacity: one slot per core.

    Classic HEFT treats each processor as serial; an OMPC "device" is a
    whole node whose cores run many target tasks concurrently, so the
    schedule models ``cores`` parallel slots.  Slots are created lazily:
    a new slot is used whenever the existing ones cannot start the task
    at its ready time and capacity remains.
    """

    def __init__(self, cores: int):
        self._cores = max(1, cores)
        self._slots: list[_SlotTimeline] = [_SlotTimeline()]

    def earliest_start(self, ready: float, duration: float) -> float:
        best = None
        for s in self._slots:
            est = s.earliest_start(ready, duration)
            if est <= ready:
                return est  # no slot can beat the ready time
            if best is None or est < best:
                best = est
        if len(self._slots) < self._cores:
            return ready  # a fresh core can take it immediately
        return best

    def insert(self, start: float, end: float) -> None:
        for slot in self._slots:
            if slot.earliest_start(start, end - start) == start:
                slot.insert(start, end)
                return
        if len(self._slots) < self._cores:
            fresh = _SlotTimeline()
            fresh.insert(start, end)
            self._slots.append(fresh)
            return
        raise AssertionError("insert() must follow earliest_start()")


class HeftScheduler(Scheduler):
    """The OMPC production scheduler.

    ``exec_slots_per_node`` is the number of target regions one worker
    executes concurrently — bounded by the event-handler pool of the
    runtime (§4.2, :data:`~repro.core.events.EVENT_HANDLERS` by
    default), not by raw core count.  The scheduler must model
    the capacity of the machine it schedules for, or it collapses
    communication-free chains (e.g. Task Bench's tree) onto one node
    whose handlers then serialize them.
    """

    def __init__(
        self,
        exec_slots_per_node: int = EVENT_HANDLERS,
        affinity_stickiness: float = 1.0,
    ):
        if exec_slots_per_node < 1:
            raise ValueError("exec_slots_per_node must be >= 1")
        if affinity_stickiness < 0:
            raise ValueError("affinity_stickiness must be >= 0")
        self.exec_slots_per_node = exec_slots_per_node
        #: How much EFT slack (in units of the task's input-communication
        #: cost) the scheduler accepts to keep a task on its affinity's
        #: home node.  EFT prices each edge in isolation, so it sees
        #: migration as free whenever inputs are remote either way — but
        #: at runtime migration multiplies coherency traffic (the write
        #: invalidations and re-fetches of §4.3) and NIC contention.
        #: Stickiness 1.0 holds a chain in place unless moving wins more
        #: than one full input-transfer time.
        self.affinity_stickiness = affinity_stickiness

    def schedule(self, graph: TaskGraph, cluster: Cluster) -> Schedule:
        workers = self.worker_nodes(cluster)
        if not workers:
            # Degenerate single-node cluster: everything on the head.
            assignment = {t.task_id: HOST for t in graph.tasks()}
            return Schedule(assignment)

        net = cluster.network.spec
        speeds = {n: cluster.node(n).spec.speed for n in workers}
        mean_speed = sum(speeds.values()) / len(speeds)

        targets = [t for t in graph.tasks() if t.kind == TaskKind.TARGET]
        target_ids = {t.task_id for t in targets}

        def mean_comm(nbytes: float) -> float:
            return net.latency + nbytes / net.bandwidth

        # -- derive compute-graph neighbor sets with edge costs ------------
        # ``c(u, v)`` of every compute edge, computed once per edge.
        succ_comm: dict[int, list[tuple[Task, float]]] = defaultdict(list)
        pred_comm: dict[int, list[tuple[Task, float]]] = defaultdict(list)
        host_staging: dict[int, float] = defaultdict(float)
        for task in targets:
            for pred in graph._pred[task.task_id].values():
                if pred.task_id in target_ids:
                    comm = mean_comm(shared_bytes(pred, task))
                    pred_comm[task.task_id].append((pred, comm))
                    succ_comm[pred.task_id].append((task, comm))
                elif pred.kind in (TaskKind.TARGET_ENTER_DATA,
                                   TaskKind.CLASSICAL):
                    # Input staged from the host at program start, or
                    # produced on the head node (treated alike).
                    host_staging[task.task_id] += shared_bytes(pred, task)

        # -- upward ranks ---------------------------------------------------
        rank_u: dict[int, float] = {}
        for task in reversed(graph.topological_order()):
            if task.task_id not in target_ids:
                continue
            w_bar = task.cost / mean_speed
            best_succ = max(
                (
                    comm + rank_u[succ.task_id]
                    for succ, comm in succ_comm[task.task_id]
                ),
                default=0.0,
            )
            rank_u[task.task_id] = w_bar + best_succ

        # Descending rank_u is a valid topological order of the compute
        # graph; ties broken by task id for determinism.
        order = sorted(targets, key=lambda t: (-rank_u[t.task_id], t.task_id))

        # -- processor selection (insertion-based EFT) -----------------------
        timelines = {
            n: _NodeTimeline(
                min(cluster.node(n).spec.cores, self.exec_slots_per_node)
            )
            for n in workers
        }
        assignment: dict[int, int] = {}
        planned: dict[int, tuple[float, float]] = {}
        # Locality tie-break state: where each task affinity last ran.
        # Symmetric graphs (e.g. a stencil interior point choosing between
        # its two neighbours' nodes) produce exact EFT ties; classic HEFT
        # then drifts tasks across nodes every step, multiplying traffic.
        # Programs may tag tasks with an ``affinity`` meta key (the Task
        # Bench port uses the grid point); tied candidates prefer the
        # affinity's previous node, keeping logical chains in place.
        # Integer affinities are pre-seeded block-contiguously — the
        # index-based initial distribution every data-aware task runtime
        # (StarPU data homes, Legion mappers) starts from — so adjacent
        # chains land on the same node and only block boundaries talk.
        affinity_home: dict[object, int] = {}
        load: dict[int, int] = {n: 0 for n in workers}
        int_affinities = sorted(
            {
                task.meta["affinity"]
                for task in targets
                if isinstance(task.meta.get("affinity"), int)
            }
        )
        for i, aff in enumerate(int_affinities):
            affinity_home[aff] = workers[i * len(workers) // len(int_affinities)]

        # Workers fastest first.  Every node that hosts none of a task's
        # predecessors shares one ready time, so the first such node in
        # this order has that class's least lower bound.
        fastest_first = sorted(workers, key=lambda n: -speeds[n])

        for task in order:
            # .get() keeps the defaultdicts clean: indexing would
            # materialize an empty entry per probe.
            staged = host_staging.get(task.task_id, 0.0)
            preds = pred_comm.get(task.task_id, [])
            cost = task.cost
            affinity = task.meta.get("affinity")
            home = affinity_home.get(affinity) if affinity is not None else None
            ready0 = mean_comm(staged) if staged else 0.0
            # A task with no predecessors and no host staging moves no
            # input at all: its stickiness slack must be 0, not the
            # phantom ``mean_comm(0) == latency`` of an empty transfer.
            input_comm = max((comm for _p, comm in preds), default=ready0)
            stick = (
                self.affinity_stickiness * input_comm
                if home is not None else 0.0
            )

            # Ready times in one pass over the predecessors.  A node
            # that hosts none of them sees every input arrive remotely:
            # ``generic``, the latest ``finish + c`` (or the staging
            # term).  A node hosting some sees those finish locally and
            # the rest arrive remotely — the latest remote arrival from
            # *another* node is ``first`` unless this node supplied it,
            # then ``second`` (the latest from any other node).  Only
            # ``max`` selects among the very floats the per-node scan
            # would compute, so every ready time is bit-identical.
            local: dict[int, float] = {}
            first = second = ready0
            first_node = None
            for pred, comm in preds:
                finish = planned[pred.task_id][1]
                node = assignment[pred.task_id]
                if finish > local.get(node, -_INF):
                    local[node] = finish
                arrive = finish + comm
                if arrive > first:
                    if node != first_node:
                        second, first_node = first, node
                    first = arrive
                elif arrive > second and node != first_node:
                    second = arrive
            generic = first
            ready_at = {
                node: max(finish, second if node == first_node else first)
                for node, finish in local.items()
            }

            # EST lower bound per node: the timeline can only delay a
            # task past its ready time, so ``ready + duration`` bounds
            # the node's EFT from below.  Its minimum is over the
            # predecessor hosts and the fastest other node.
            lb_min = _INF
            for node, ready in ready_at.items():
                lb = ready + cost / speeds[node]
                if lb < lb_min:
                    lb_min = lb
            for node in fastest_first:
                if node not in ready_at:
                    lb = generic + cost / speeds[node]
                    if lb < lb_min:
                        lb_min = lb
                    break

            # Home fast path: ``best_eft >= lb_min`` and the tolerance
            # grows with ``best_eft``, so a home EFT inside the window
            # anchored at ``lb_min`` is inside the real window too — and
            # the tie key prefers home over every other member, making
            # the rest of the scan irrelevant.  (On affinity-seeded
            # graphs this resolves almost every task with one timeline
            # walk.)
            if home is not None:
                ready = ready_at.get(home, generic)
                duration = cost / speeds[home]
                est = timelines[home].earliest_start(ready, duration)
                home_eft = est + duration
                if home_eft <= lb_min + lb_min * 1e-9 + 1e-15 + stick:
                    load[home] += 1
                    affinity_home[affinity] = home
                    assignment[task.task_id] = home
                    planned[task.task_id] = (est, home_eft)
                    timelines[home].insert(est, home_eft)
                    continue

            # Fallback: every node's bound, scanned in lower-bound order
            # so the selection stops as soon as no remaining node can
            # still make the tie set — the timeline walk then runs for a
            # handful of contenders instead of every node.  The
            # surviving candidate set, and therefore the choice, is
            # exactly that of the full scan.
            bounds: list[tuple[float, float, float, int]] = []
            for node in workers:
                ready = ready_at.get(node, generic)
                duration = cost / speeds[node]
                bounds.append((ready + duration, ready, duration, node))
            bounds.sort(key=lambda b: b[0])

            # Phase 1 — find the global best EFT, evaluating timelines
            # only while a node's lower bound can still beat the running
            # best (``best_eft`` only decreases and the tolerance grows
            # with it, so a bound that misses the running window also
            # misses the final one).  The home node is always evaluated:
            # the tie key prefers it over every other member, so when it
            # lands in the tie window no other member matters.
            evaluated: dict[int, tuple[float, float, int]] = {}
            best_eft = _INF
            home_cand: tuple[float, float, int] | None = None
            for lb, ready, duration, node in bounds:
                if lb > best_eft + best_eft * 1e-9 + 1e-15:
                    break
                est = timelines[node].earliest_start(ready, duration)
                eft = est + duration
                evaluated[node] = (eft, est, node)
                if eft < best_eft:
                    best_eft = eft
            tol = best_eft * 1e-9 + 1e-15 + stick
            if home is not None:
                home_cand = evaluated.get(home)
                if home_cand is None:
                    for lb, ready, duration, node in bounds:
                        if node == home:
                            est = timelines[home].earliest_start(
                                ready, duration
                            )
                            home_cand = (est + duration, est, home)
                            evaluated[home] = home_cand
                            break

            if home_cand is not None and home_cand[0] <= best_eft + tol:
                eft, est, node = home_cand
            else:
                # Phase 2 — the home is absent or out of the window, so
                # the full tie set decides.  Evaluate the nodes whose
                # lower bound still fits (with the stickiness slack,
                # which widens the window even among non-home nodes).
                for lb, ready, duration, node in bounds:
                    if lb > best_eft + tol:
                        break
                    if node not in evaluated:
                        est = timelines[node].earliest_start(ready, duration)
                        evaluated[node] = (est + duration, est, node)
                tied = [
                    c for c in evaluated.values() if c[0] <= best_eft + tol
                ]
                # Tie order: affinity home first, then least-loaded node
                # (so independent tasks fan out instead of packing into
                # the lowest node's free slots), then EFT/EST/node id.
                eft, est, node = min(
                    tied,
                    key=lambda c: (c[2] != home, load[c[2]], c[0], c[1], c[2]),
                )
            load[node] += 1
            if affinity is not None:
                affinity_home[affinity] = node
            assignment[task.task_id] = node
            planned[task.task_id] = (est, eft)
            timelines[node].insert(est, eft)

        self.pin_special_tasks(graph, assignment)
        return Schedule(assignment, planned)
