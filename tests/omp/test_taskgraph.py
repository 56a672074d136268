"""Tests for the task graph container."""

import pytest

from repro.omp import Buffer, Task, TaskGraph, TaskKind
from repro.omp.task import depend_inout


def mk(task_id, cost=0.0):
    return Task(task_id=task_id, kind=TaskKind.TARGET, cost=cost)


class TestTaskGraph:
    def test_add_and_lookup(self):
        g = TaskGraph()
        t = mk(0)
        g.add_task(t)
        assert t in g
        assert g.task(0) is t
        assert len(g) == 1

    def test_duplicate_id_rejected(self):
        g = TaskGraph()
        g.add_task(mk(0))
        with pytest.raises(ValueError):
            g.add_task(mk(0))

    def test_edge_requires_both_nodes(self):
        g = TaskGraph()
        a, b = mk(0), mk(1)
        g.add_task(a)
        with pytest.raises(ValueError):
            g.add_edge(a, b)

    def test_self_edge_rejected(self):
        g = TaskGraph()
        a = mk(0)
        g.add_task(a)
        with pytest.raises(ValueError):
            g.add_edge(a, a)

    def test_neighbors(self):
        g = TaskGraph()
        a, b, c = mk(0), mk(1), mk(2)
        for t in (a, b, c):
            g.add_task(t)
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(a, b)  # a repeated edge is ignored
        assert g.num_edges == 2
        assert g.successors(a) == [b, c]
        assert g.predecessors(b) == [a]
        assert g.roots() == [a]
        assert g.in_degree(c) == 1

    def test_cycle_detection(self):
        g = TaskGraph()
        a, b = mk(0), mk(1)
        g.add_task(a)
        g.add_task(b)
        g.add_edge(a, b)
        g.add_edge(b, a)
        with pytest.raises(ValueError,
                           match="cycle: target0 → target1 → target0$"):
            g.validate()
        # Only the tasks on the cycle are named, not those feeding it.
        c, d = mk(2), mk(3)
        g.add_task(c)
        g.add_task(d)
        g.add_edge(c, a)
        g.add_edge(a, d)
        with pytest.raises(ValueError,
                           match="cycle: target0 → target1 → target0$"):
            g.topological_order()

    def test_topological_order_is_deterministic(self):
        g = TaskGraph()
        tasks = [mk(i) for i in range(6)]
        for t in tasks:
            g.add_task(t)
        g.add_edge(tasks[0], tasks[3])
        g.add_edge(tasks[1], tasks[3])
        g.add_edge(tasks[3], tasks[5])
        order = [t.task_id for t in g.topological_order()]
        # Lexicographic: smallest available id first; 3 unlocks after 0,1.
        assert order == [0, 1, 2, 3, 4, 5]

    def test_critical_path_and_total_cost(self):
        g = TaskGraph()
        a, b, c = mk(0, cost=1.0), mk(1, cost=2.0), mk(2, cost=4.0)
        for t in (a, b, c):
            g.add_task(t)
        g.add_edge(a, b)  # path a->b = 3; c alone = 4
        assert g.critical_path_cost() == 4.0
        assert g.total_cost() == 7.0

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.critical_path_cost() == 0.0
        assert g.total_cost() == 0.0
        assert g.roots() == []


class TestGraphFromDeps:
    def test_diamond_from_clauses(self):
        from repro.omp import OmpProgram
        from repro.omp.task import depend_in, depend_out

        prog = OmpProgram()
        a = prog.buffer(8, name="a")
        b = prog.buffer(8, name="b")
        c = prog.buffer(8, name="c")
        src = prog.target(depend=[depend_out(a)], name="src")
        left = prog.target(depend=[depend_in(a), depend_out(b)], name="left")
        right = prog.target(depend=[depend_in(a), depend_out(c)], name="right")
        sink = prog.target(depend=[depend_in(b), depend_in(c)], name="sink")
        g = prog.graph
        assert g.successors(src) == [left, right]
        assert g.predecessors(sink) == [left, right]
        assert g.num_edges == 4
