"""Unit tests for the static program linter."""

from types import SimpleNamespace

from repro.analysis import lint_program
from repro.analysis.findings import Severity
from repro.omp import DependenceAnalyzer, OmpProgram, TaskGraph
from repro.omp.task import (
    Buffer,
    Dep,
    DepType,
    Task,
    TaskKind,
    depend_in,
    depend_inout,
    depend_out,
)


def rules(findings):
    return sorted(f.rule for f in findings)


class TestClauseRules:
    def test_clean_program(self):
        prog = OmpProgram(name="clean")
        a = prog.buffer(8, name="a")
        prog.target_enter_data(a)
        prog.target(depend=[depend_inout(a)], cost=1e-3)
        prog.target_exit_data(a)
        assert lint_program(prog) == []

    def test_duplicate_dep(self):
        prog = OmpProgram(name="dup")
        a = prog.buffer(8, name="a")
        prog.target(depend=[depend_in(a), depend_in(a)], cost=1e-3)
        (finding,) = lint_program(prog)
        assert finding.rule == "duplicate-dep"
        assert finding.severity == Severity.WARNING

    def test_conflicting_dep(self):
        # OmpProgram.validate() rejects in+out outright, so build the
        # graph by hand the way a malformed front end might.
        buf = Buffer(8, name="a")
        task = Task(
            task_id=0,
            kind=TaskKind.TARGET,
            deps=(Dep(buf, DepType.IN), Dep(buf, DepType.OUT)),
        )
        graph = TaskGraph()
        graph.add_task(task)
        program = SimpleNamespace(name="bad", graph=graph)
        (finding,) = lint_program(program)
        assert finding.rule == "conflicting-dep"
        assert finding.severity == Severity.ERROR


class TestEnterExitPairing:
    def test_exit_without_enter_or_writer_warns(self):
        prog = OmpProgram(name="unmatched")
        a = prog.buffer(8, name="a")
        b = prog.buffer(8, name="b")
        prog.target_enter_data(a)
        prog.target(depend=[depend_inout(a)], cost=1e-3)
        prog.target_exit_data(a, b)  # b: never entered, never written
        findings = [f for f in lint_program(prog)
                    if f.rule == "unmatched-exit"]
        assert len(findings) == 1
        assert findings[0].buffer == "b"

    def test_device_written_buffer_may_exit(self):
        # The pure-out producer idiom: no enter data, the first writer
        # materializes the device copy, exit data retrieves it.
        prog = OmpProgram(name="produce")
        out = prog.buffer(8, name="out")
        prog.target(depend=[depend_out(out)], cost=1e-3, name="producer")
        prog.target_exit_data(out)
        assert lint_program(prog) == []


class TestReachability:
    def test_task_reaching_no_sink_warns(self):
        prog = OmpProgram(name="orphan")
        a = prog.buffer(8, name="a")
        b = prog.buffer(8, name="b")
        prog.target_enter_data(a)
        prog.target(depend=[depend_inout(a)], cost=1e-3, name="useful")
        prog.target_exit_data(a)
        prog.target(depend=[depend_out(b)], cost=1e-3, name="orphaned")
        findings = [f for f in lint_program(prog)
                    if f.rule == "unreachable-task"]
        assert [f.tasks for f in findings] == [("orphaned",)]

    def test_many_exit_data_sinks(self):
        # A 64-wide stencil retrieves one buffer after every step and,
        # at the end, the outputs of the points not divisible by three:
        # 48 exit-data sinks over one graph.  The last step's tasks on
        # the other points reach no sink; the ancestors of each sink,
        # computed one sink at a time, say which.
        import networkx as nx

        width, steps = 64, 6
        prog = OmpProgram(name="retrieving")
        bufs = [[prog.buffer(8, name=f"p{q}g{g}") for g in range(2)]
                for q in range(width)]
        for step in range(steps):
            for point in range(width):
                deps = [depend_in(bufs[q][(step - 1) % 2])
                        for q in (point - 1, point, point + 1)
                        if step and 0 <= q < width]
                prog.target(depend=[*deps, depend_out(bufs[point][step % 2])],
                            cost=1e-3, name=f"t{step}p{point}")
            prog.target_exit_data(bufs[step % width][step % 2],
                                  name=f"early{step}")
        for point in range(width):
            if point % 3:
                prog.target_exit_data(bufs[point][(steps - 1) % 2],
                                      name=f"exit{point}")
        sinks = [t for t in prog.graph.tasks()
                 if t.kind == TaskKind.TARGET_EXIT_DATA]
        assert len(sinks) == 48
        g = prog.graph.nx_graph()
        observable = set()
        for sink in sinks:
            observable |= nx.ancestors(g, sink.task_id) | {sink.task_id}
        expected = [(t.name,) for t in prog.graph.tasks()
                    if t.task_id not in observable]
        findings = [f.tasks for f in lint_program(prog)
                    if f.rule == "unreachable-task"]
        assert findings == expected
        assert 0 < len(expected) < width

    def test_sinkless_program_skips_rule(self):
        # Pure timing benchmarks (Task Bench) have no exit data and no
        # classical tasks; nothing is "observable", so nothing warns.
        prog = OmpProgram(name="bench")
        a = prog.buffer(8, name="a")
        prog.target(depend=[depend_out(a)], cost=1e-3)
        assert lint_program(prog) == []


class TestOverSerialization:
    def test_disjoint_actual_footprints_flagged(self):
        prog = OmpProgram(name="slack")
        a = prog.buffer(8, name="a")
        b = prog.buffer(8, name="b")
        prog.target(
            depend=[depend_out(a)], cost=1e-3, name="first",
            accesses=(depend_out(a),),
        )
        prog.target(
            depend=[depend_in(a)], cost=1e-3, name="second",
            accesses=(depend_in(b),),  # never actually touches a
        )
        findings = [f for f in lint_program(prog)
                    if f.rule == "over-serialization"]
        assert len(findings) == 1
        assert findings[0].severity == Severity.INFO
        assert findings[0].tasks == ("first", "second")

    def test_true_dependence_not_flagged(self):
        prog = OmpProgram(name="tight")
        a = prog.buffer(8, name="a")
        prog.target(depend=[depend_out(a)], cost=1e-3,
                    accesses=(depend_out(a),))
        prog.target(depend=[depend_in(a)], cost=1e-3,
                    accesses=(depend_in(a),))
        assert lint_program(prog) == []

    def test_declared_only_footprints_give_no_signal(self):
        prog = OmpProgram(name="plain")
        a = prog.buffer(8, name="a")
        prog.target(depend=[depend_out(a)], cost=1e-3)
        prog.target(depend=[depend_in(a)], cost=1e-3)
        assert lint_program(prog) == []


class TestAnalyzerUsedDirectly:
    def test_lint_accepts_hand_built_graphs(self):
        buffers = [Buffer(8, name=f"b{i}") for i in range(2)]
        analyzer = DependenceAnalyzer()
        graph = TaskGraph()
        for task_id in range(3):
            task = Task(
                task_id=task_id,
                kind=TaskKind.TARGET,
                deps=(Dep(buffers[task_id % 2], DepType.INOUT),),
            )
            graph.add_task(task)
            for pred, succ in analyzer.edges_for(task):
                graph.add_edge(pred, succ)
        program = SimpleNamespace(name="hand", graph=graph)
        assert lint_program(program) == []
