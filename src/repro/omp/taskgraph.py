"""The task dependency graph consumed by schedulers and runtimes."""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.omp.task import Task


class TaskGraph:
    """A DAG of :class:`Task` nodes with dependence edges.

    ``_succ`` and ``_pred`` map each task id to an insertion-ordered
    dict ``{neighbour id: neighbour Task}``; a repeated edge is ignored.
    :class:`~repro.omp.api.OmpProgram` adds tasks and edges in program
    order, where insertion order is task-id order, so the schedulers
    and runtimes iterate the adjacency directly.
    """

    def __init__(self):
        self._tasks: dict[int, Task] = {}
        self._succ: dict[int, dict[int, Task]] = {}
        self._pred: dict[int, dict[int, Task]] = {}

    # -- construction ----------------------------------------------------
    def add_task(self, task: Task) -> None:
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = {}
        self._pred[task.task_id] = {}

    def add_edge(self, pred: Task, succ: Task) -> None:
        u, v = pred.task_id, succ.task_id
        if u not in self._tasks or v not in self._tasks:
            raise ValueError("both endpoints must be added before the edge")
        if u == v:
            raise ValueError("self-dependence is not allowed")
        self._succ[u][v] = self._tasks[v]
        self._pred[v][u] = self._tasks[u]

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task: Task) -> bool:
        return task.task_id in self._tasks

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def task(self, task_id: int) -> Task:
        return self._tasks[task_id]

    def tasks(self) -> Iterator[Task]:
        """Tasks in insertion (program) order."""
        return iter(self._tasks.values())

    def predecessors(self, task: Task) -> list[Task]:
        preds = self._pred[task.task_id]
        return [preds[t] for t in sorted(preds)]

    def successors(self, task: Task) -> list[Task]:
        succs = self._succ[task.task_id]
        return [succs[t] for t in sorted(succs)]

    def in_degree(self, task: Task) -> int:
        return len(self._pred[task.task_id])

    def roots(self) -> list[Task]:
        return [t for tid, t in self._tasks.items() if not self._pred[tid]]

    def validate(self) -> None:
        """Raise if the graph has a cycle (dependences must form a DAG),
        naming the tasks on one cycle: ``a → b → a``."""
        self.topological_order()

    def topological_order(self) -> list[Task]:
        """Deterministic topological order (ties broken by task id):
        Kahn's algorithm with a min-heap.  Raises on a cycle."""
        indegree = {tid: len(p) for tid, p in self._pred.items()}
        heap = [tid for tid, d in indegree.items() if d == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            tid = heapq.heappop(heap)
            order.append(self._tasks[tid])
            for s in self._succ[tid]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(heap, s)
        if len(order) == len(self._tasks):
            return order
        # Every task left unordered has an unordered predecessor, so
        # walking those backwards from any of them closes a cycle.
        tid = min(t for t, d in indegree.items() if d)
        path: dict[int, int] = {}
        while tid not in path:
            path[tid] = len(path)
            tid = min(p for p in self._pred[tid] if indegree[p])
        cycle = [*list(path)[path[tid]:], tid][::-1]
        names = " → ".join(self._tasks[t].name for t in cycle)
        raise ValueError(f"task graph has a cycle: {names}")

    def critical_path_cost(self) -> float:
        """Length of the longest compute-cost path (zero-cost comms)."""
        best: dict[int, float] = {}
        for task in self.topological_order():
            best[task.task_id] = max(
                (best[p] for p in self._pred[task.task_id]), default=0.0
            ) + task.cost
        return max(best.values()) if best else 0.0

    def total_cost(self) -> float:
        return sum(t.cost for t in self.tasks())

    def edges(self) -> Iterable[tuple[Task, Task]]:
        """Edges by producer in insertion order, then by consumer in
        edge-insertion order (networkx's ``DiGraph.edges()`` order)."""
        for u, succs in self._succ.items():
            pred = self._tasks[u]
            for succ in succs.values():
                yield pred, succ

    def nx_graph(self):
        """A :class:`networkx.DiGraph` copy of the graph, built on
        demand, for analysis and tests."""
        import networkx as nx

        return nx.DiGraph({u: list(s) for u, s in self._succ.items()})
