"""The dict-backed task graph against the networkx reference.

:class:`TaskGraph` and :class:`DependenceAnalyzer` build the graph in
linear time on plain dicts.  The promise is the *same graph* as the
networkx-backed reference in ``tests/reference_taskgraph.py``: the same
``edges()`` sequence (``core.shard.directory`` depends on it), the same
neighbour lists, in-degrees and roots, the same topological order and
critical path, and the same cycle verdict once a back-edge is injected.

Generated programs mix ``in``/``out``/``inout`` clauses (repeated and
conflicting items included) over a few buffers with enter/exit data and
classical tasks; every Task Bench pattern is built at several widths.
The cached Task Bench ``dependencies()`` is held to the direct
enumeration for every pattern.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.omp import OmpProgram
from repro.omp.task import Dep, DepType
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec, build_omp_program
from repro.taskbench.patterns import _direct_dependencies, dependencies

from tests.reference_taskgraph import reference_graph

WIDTHS = (1, 2, 4, 8, 16)
NUM_BUFFERS = 4

clauses = st.lists(
    st.tuples(st.integers(0, NUM_BUFFERS - 1), st.sampled_from(list(DepType))),
    max_size=4,
)
buffer_sets = st.lists(st.integers(0, NUM_BUFFERS - 1), min_size=1,
                       max_size=3, unique=True)
ops = st.one_of(
    st.tuples(st.sampled_from(["target", "task"]), clauses,
              st.floats(0.0, 4.0, allow_nan=False)),
    st.tuples(st.sampled_from(["enter", "exit"]), buffer_sets, st.just(0.0)),
)


def build_program(program_ops) -> OmpProgram:
    prog = OmpProgram("generated")
    bufs = [prog.buffer(8, name=f"b{i}") for i in range(NUM_BUFFERS)]
    for kind, arg, cost in program_ops:
        if kind == "enter":
            prog.target_enter_data(*(bufs[i] for i in arg))
        elif kind == "exit":
            prog.target_exit_data(*(bufs[i] for i in arg))
        else:
            depend = [Dep(bufs[i], t) for i, t in arg]
            getattr(prog, kind)(depend=depend, cost=cost)
    return prog


def ids(tasks) -> list[int]:
    return [t.task_id for t in tasks]


def assert_same_graph(graph, ref) -> None:
    assert ([(u.task_id, v.task_id) for u, v in graph.edges()]
            == [(u.task_id, v.task_id) for u, v in ref.edges()])
    assert graph.num_edges == len(list(ref.edges()))
    for task in graph.tasks():
        assert ids(graph.predecessors(task)) == ids(ref.predecessors(task))
        assert ids(graph.successors(task)) == ids(ref.successors(task))
        assert graph.in_degree(task) == ref.in_degree(task)
    assert ids(graph.roots()) == ids(ref.roots())
    assert ids(graph.topological_order()) == ids(ref.topological_order())
    assert graph.critical_path_cost() == ref.critical_path_cost()


def verdict(graph) -> bool:
    try:
        graph.validate()
    except ValueError:
        return False
    return True


def assert_same_after_back_edge(graph, ref, data) -> None:
    """Inject an edge from a later task to an earlier one into both
    graphs: it closes a cycle exactly when the earlier task reaches the
    later one, and both graphs must agree on the verdict."""
    tasks = list(graph.tasks())
    if len(tasks) < 2:
        return
    first = data.draw(st.integers(0, len(tasks) - 2), label="first")
    last = data.draw(st.integers(first + 1, len(tasks) - 1), label="last")
    for g in (graph, ref):
        g.add_edge(tasks[last], tasks[first])
    acyclic = verdict(ref)
    assert verdict(graph) == acyclic
    if acyclic:
        assert_same_graph(graph, ref)
        return
    with pytest.raises(ValueError) as info:
        graph.validate()
    # The message walks one real cycle: consecutive names are edges.
    names = str(info.value).split(": ", 1)[1].split(" → ")
    assert names[0] == names[-1] and len(names) >= 3
    edges = {(u.name, v.name) for u, v in ref.edges()}
    assert all(pair in edges for pair in zip(names, names[1:]))


@given(st.lists(ops, max_size=24), st.data())
@settings(deadline=None, max_examples=150)
def test_generated_programs_match_the_reference(program_ops, data):
    prog = build_program(program_ops)
    ref = reference_graph(prog.graph.tasks())
    assert_same_graph(prog.graph, ref)
    assert_same_after_back_edge(prog.graph, ref, data)


@given(st.sampled_from(list(Pattern)), st.sampled_from(WIDTHS),
       st.integers(1, 5), st.data())
@settings(deadline=None, max_examples=80)
def test_task_bench_programs_match_the_reference(pattern, width, steps,
                                                 data):
    spec = TaskBenchSpec(width, steps, pattern, KernelSpec(1000), 8.0)
    prog = build_omp_program(spec)
    ref = reference_graph(prog.graph.tasks())
    assert_same_graph(prog.graph, ref)
    assert_same_after_back_edge(prog.graph, ref, data)


@pytest.mark.parametrize("pattern", list(Pattern))
def test_cached_dependencies_equal_the_direct_computation(pattern):
    for width in WIDTHS + (3, 32):
        if pattern == Pattern.FFT and width & (width - 1):
            continue
        for step in range(12):
            for point in range(width):
                assert (dependencies(pattern, width, step, point)
                        == _direct_dependencies(pattern, width, step, point))
