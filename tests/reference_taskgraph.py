"""The reference task graph: the oracle of the task-graph tests.

:class:`repro.omp.taskgraph.TaskGraph` keeps insertion-ordered dict
adjacency and sorts topologically with its own Kahn's algorithm, and
:class:`repro.omp.depend.DependenceAnalyzer` derives each task's edges
in one pass over two dicts.  They promise exactly the graph of the
plain networkx-backed container and the per-buffer history analyzer
kept here: the same ``edges()`` sequence, the same neighbour lists,
roots, topological order and critical path, and the same cycle
verdict.  :func:`reference_graph` rebuilds a program's graph with both
reference pieces, from the program's tasks in program order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import networkx as nx

from repro.omp.task import DepType, Task


@dataclass
class _BufferHistory:
    """Per-buffer tracking of the last writer and subsequent readers."""

    last_writer: Task | None = None
    readers_since_write: list[Task] = field(default_factory=list)


def _reads(dep_type: DepType) -> bool:
    return dep_type in (DepType.IN, DepType.INOUT)


def _writes(dep_type: DepType) -> bool:
    return dep_type in (DepType.OUT, DepType.INOUT)


class ReferenceDependenceAnalyzer:
    """Two passes per task over one history object per buffer."""

    def __init__(self):
        self._history: dict[int, _BufferHistory] = {}

    def edges_for(self, task: Task) -> list[tuple[Task, Task]]:
        preds: dict[int, Task] = {}
        for dep in task.deps:
            hist = self._history.setdefault(dep.buffer.buffer_id,
                                            _BufferHistory())
            if _reads(dep.type) and hist.last_writer is not None:
                preds.setdefault(hist.last_writer.task_id, hist.last_writer)
            if _writes(dep.type):
                if hist.last_writer is not None:
                    preds.setdefault(hist.last_writer.task_id,
                                     hist.last_writer)
                for reader in hist.readers_since_write:
                    preds.setdefault(reader.task_id, reader)
        # Update the history only after all conflicts are collected, so
        # a task with both in and out on one buffer is not its own
        # predecessor.
        for dep in task.deps:
            hist = self._history[dep.buffer.buffer_id]
            if _writes(dep.type):
                hist.last_writer = task
                hist.readers_since_write = []
            elif _reads(dep.type):
                hist.readers_since_write.append(task)
        preds.pop(task.task_id, None)
        return [(pred, task) for _tid, pred in sorted(preds.items())]


class ReferenceTaskGraph:
    """The task graph as a thin wrapper over :class:`networkx.DiGraph`."""

    def __init__(self):
        self._g = nx.DiGraph()
        self._tasks: dict[int, Task] = {}

    def add_task(self, task: Task) -> None:
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id}")
        self._tasks[task.task_id] = task
        self._g.add_node(task.task_id)

    def add_edge(self, pred: Task, succ: Task) -> None:
        if pred.task_id not in self._tasks or succ.task_id not in self._tasks:
            raise ValueError("both endpoints must be added before the edge")
        if pred.task_id == succ.task_id:
            raise ValueError("self-dependence is not allowed")
        self._g.add_edge(pred.task_id, succ.task_id)

    def tasks(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def predecessors(self, task: Task) -> list[Task]:
        return [self._tasks[t] for t in sorted(self._g.predecessors(task.task_id))]

    def successors(self, task: Task) -> list[Task]:
        return [self._tasks[t] for t in sorted(self._g.successors(task.task_id))]

    def in_degree(self, task: Task) -> int:
        return self._g.in_degree(task.task_id)

    def roots(self) -> list[Task]:
        return [t for t in self.tasks() if self.in_degree(t) == 0]

    def validate(self) -> None:
        if not nx.is_directed_acyclic_graph(self._g):
            cycle = nx.find_cycle(self._g)
            raise ValueError(f"task graph has a cycle: {cycle}")

    def topological_order(self) -> list[Task]:
        order = nx.lexicographical_topological_sort(self._g)
        return [self._tasks[tid] for tid in order]

    def critical_path_cost(self) -> float:
        best: dict[int, float] = {}
        for task in self.topological_order():
            incoming = [
                best[p.task_id] for p in self.predecessors(task)
            ] or [0.0]
            best[task.task_id] = max(incoming) + task.cost
        return max(best.values()) if best else 0.0

    def edges(self) -> Iterable[tuple[Task, Task]]:
        for u, v in self._g.edges():
            yield self._tasks[u], self._tasks[v]


def reference_graph(tasks: Iterable[Task]) -> ReferenceTaskGraph:
    """The reference graph of ``tasks``, given in program order."""
    graph = ReferenceTaskGraph()
    analyzer = ReferenceDependenceAnalyzer()
    for task in tasks:
        graph.add_task(task)
        for pred, succ in analyzer.edges_for(task):
            graph.add_edge(pred, succ)
    return graph
