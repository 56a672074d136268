"""The reference HEFT processor selection: the oracle of the HEFT tests.

:class:`repro.core.scheduler.heft.HeftScheduler` prices each task's
nodes in one pass over its predecessors and scans every worker only
when the affinity home cannot take the task.  It promises exactly the
schedule of the plain full scan kept here: every worker's ready time is
computed by its own loop over the task's predecessors, and its lower
bound feeds the same home test and the same pruned phase 1 / phase 2
fallback.  The tests compare ``assignment`` and ``planned`` with
``==`` — not approximately — so any float that differs in its last bit
fails them.
"""

from __future__ import annotations

from collections import defaultdict

from repro.cluster.machine import Cluster
from repro.core.datamanager import HOST
from repro.core.scheduler.base import Schedule
from repro.core.scheduler.heft import HeftScheduler, _NodeTimeline
from repro.omp.task import Task, TaskKind
from repro.omp.taskgraph import TaskGraph

_INF = float("inf")


def shared_bytes(producer: Task, consumer: Task) -> float:
    """Bytes flowing along ``producer → consumer``, by linear search."""
    produced = {b.buffer_id: b.nbytes for b in producer.writes}
    return sum(nbytes for bid, nbytes in produced.items()
               if any(b.buffer_id == bid for b in consumer.reads))


class ReferenceHeftScheduler(HeftScheduler):
    """HEFT with the per-worker, per-predecessor ready-time scan."""

    def schedule(self, graph: TaskGraph, cluster: Cluster) -> Schedule:
        workers = self.worker_nodes(cluster)
        if not workers:
            assignment = {t.task_id: HOST for t in graph.tasks()}
            return Schedule(assignment)

        net = cluster.network.spec
        speeds = {n: cluster.node(n).spec.speed for n in workers}
        mean_speed = sum(speeds.values()) / len(speeds)

        targets = [t for t in graph.tasks() if t.kind == TaskKind.TARGET]
        target_ids = {t.task_id for t in targets}

        succ_bytes: dict[int, list[tuple[Task, float]]] = defaultdict(list)
        pred_bytes: dict[int, list[tuple[Task, float]]] = defaultdict(list)
        host_staging: dict[int, float] = defaultdict(float)
        for task in targets:
            for pred in graph.predecessors(task):
                if pred.task_id in target_ids:
                    nbytes = shared_bytes(pred, task)
                    pred_bytes[task.task_id].append((pred, nbytes))
                    succ_bytes[pred.task_id].append((task, nbytes))
                elif pred.kind == TaskKind.TARGET_ENTER_DATA:
                    host_staging[task.task_id] += shared_bytes(pred, task)
                elif pred.kind == TaskKind.CLASSICAL:
                    host_staging[task.task_id] += shared_bytes(pred, task)

        def mean_comm(nbytes: float) -> float:
            return net.latency + nbytes / net.bandwidth

        rank_u: dict[int, float] = {}
        for task in reversed(graph.topological_order()):
            if task.task_id not in target_ids:
                continue
            w_bar = task.cost / mean_speed
            best_succ = max(
                (
                    mean_comm(nbytes) + rank_u[succ.task_id]
                    for succ, nbytes in succ_bytes[task.task_id]
                ),
                default=0.0,
            )
            rank_u[task.task_id] = w_bar + best_succ

        order = sorted(targets, key=lambda t: (-rank_u[t.task_id], t.task_id))

        timelines = {
            n: _NodeTimeline(
                min(cluster.node(n).spec.cores, self.exec_slots_per_node)
            )
            for n in workers
        }
        assignment: dict[int, int] = {}
        planned: dict[int, tuple[float, float]] = {}
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

        for task in order:
            staged = host_staging.get(task.task_id, 0.0)
            preds = pred_bytes.get(task.task_id, [])
            affinity = task.meta.get("affinity")
            home = affinity_home.get(affinity) if affinity is not None else None
            input_comm = max(
                (mean_comm(nbytes) for _p, nbytes in preds),
                default=mean_comm(staged) if staged else 0.0,
            )
            stick = (
                self.affinity_stickiness * input_comm
                if home is not None else 0.0
            )
            ready0 = mean_comm(staged) if staged else 0.0

            bounds: list[tuple[float, float, float, int]] = []
            lb_min = _INF
            home_bound: tuple[float, float, float, int] | None = None
            for node in workers:
                ready = ready0
                for pred, nbytes in preds:
                    pred_finish = planned[pred.task_id][1]
                    if assignment[pred.task_id] != node:
                        pred_finish += net.latency + nbytes / net.bandwidth
                    if pred_finish > ready:
                        ready = pred_finish
                duration = task.cost / speeds[node]
                lb = ready + duration
                bounds.append((lb, ready, duration, node))
                if lb < lb_min:
                    lb_min = lb
                if node == home:
                    home_bound = bounds[-1]

            if home_bound is not None:
                _lb, ready, duration, _node = home_bound
                est = timelines[home].earliest_start(ready, duration)
                home_eft = est + duration
                if home_eft <= lb_min + lb_min * 1e-9 + 1e-15 + stick:
                    load[home] += 1
                    affinity_home[affinity] = home
                    assignment[task.task_id] = home
                    planned[task.task_id] = (est, home_eft)
                    timelines[home].insert(est, home_eft)
                    continue

            bounds.sort(key=lambda b: b[0])

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
                for lb, ready, duration, node in bounds:
                    if lb > best_eft + tol:
                        break
                    if node not in evaluated:
                        est = timelines[node].earliest_start(ready, duration)
                        evaluated[node] = (est + duration, est, node)
                tied = [
                    c for c in evaluated.values() if c[0] <= best_eft + tol
                ]
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
