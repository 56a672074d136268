"""The recovery planner, cluster-free and on the runtime.

:func:`~repro.core.faults.plan_recovery` reads the directory's write
records and holders and returns ordered steps: checkpoint restores and
producer replays bound to the versions they read.  The cluster-free
cases generate a program over a few buffers with real payloads, commit
a prefix of it on random nodes (with random checkpoints), kill random
workers, and hand the planner every version a pending task reads.  A
serial interpreter then runs the plan on the buffers, with each lost
buffer poisoned, and the rest of the program after it; the bytes must
equal a fault-free serial run.  An unplannable loss must be a
:class:`~repro.core.faults.RecoveryError` naming a task, buffer and
version, and a program whose every buffer is written once, whole,
always has a plan.

On the runtime, a random worker of the double-buffered stencil dies at
a random time (and the ``resilient`` benchmark set-up's scenario-4
kill): each run ends byte-exact or with such a ``RecoveryError``.
"""

from __future__ import annotations

import os
import re
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import OMPCConfig
from repro.core.datamanager import DataManager
from repro.core.faults import (
    FaultTolerantRuntime,
    NodeFailure,
    RecoveryError,
    Restore,
    plan_recovery,
)
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out

from tests.core.test_tiering import KB, stencil_program
from tests.property.test_chaos_failover import run_to_horizon

MAX_BUFFERS = 4
WORKERS = (1, 2, 3)
DEPEND = {"in": depend_in, "out": depend_out, "inout": depend_inout}
NAMED = re.compile(r"task \S+ needs buffer \S+ at version \d+, which ")

clauses = st.dictionaries(st.integers(0, MAX_BUFFERS - 1),
                          st.sampled_from(sorted(DEPEND)),
                          min_size=1, max_size=3)
state = st.fixed_dictionaries({
    "tasks": st.lists(clauses, min_size=2, max_size=10),
    "cut": st.integers(0, 2),
    "nodes": st.lists(st.sampled_from(WORKERS), min_size=10, max_size=10),
    "dead": st.sets(st.sampled_from(WORKERS), min_size=1, max_size=2),
    "checkpoints": st.lists(st.tuples(st.integers(0, MAX_BUFFERS - 1),
                                      st.integers(0, 10)), max_size=3),
})


def _kernel(seed: float):
    """Every written buffer gets ``seed + j + 0.5 * sum(read values)``
    (an INOUT buffer reads its old value)."""
    def fn(*arrays, types):
        acc = np.full(2, seed) + 0.5 * sum(
            (a for a, t in zip(arrays, types) if t != "out"), np.zeros(2))
        for j, (a, t) in enumerate(zip(arrays, types)):
            if t != "in":
                np.copyto(a, acc + j)
    return fn


def build(tasks):
    prog = OmpProgram("planner")
    bufs = [prog.buffer(16, data=np.full(2, float(i)), name=f"b{i}")
            for i in range(MAX_BUFFERS)]
    for i, deps in enumerate(tasks):
        order = sorted(deps)
        types = [deps[b] for b in order]
        fn = _kernel(float(i + 1))
        prog.target(lambda *a, fn=fn, types=types: fn(*a, types=types),
                    depend=[DEPEND[deps[b]](bufs[b]) for b in order],
                    name=f"t{i}")
    return prog, bufs


def values_after(prog, bufs, count):
    """Buffer values after the first ``count`` tasks, run serially, and
    every ``(buffer id, version)`` value on the way."""
    vals = {b.buffer_id: b.data.copy() for b in bufs}
    versions = {(b.buffer_id, 0): b.data.copy() for b in bufs}
    seen = {b.buffer_id: 0 for b in bufs}
    for task in prog.tasks[:count]:
        task.fn(*(vals[d.buffer.buffer_id] for d in task.deps))
        for buf in task.writes:
            seen[buf.buffer_id] += 1
            versions[(buf.buffer_id, seen[buf.buffer_id])] = (
                vals[buf.buffer_id].copy())
    return vals, versions


def commit_prefix(sc):
    """A directory with the first ``cut`` tasks committed on their
    nodes, the drawn checkpoints, and the drawn workers dead."""
    prog, bufs = build(sc["tasks"])
    # The last one to three tasks stay pending.
    cut = max(1, len(prog.tasks) - 1 - sc["cut"] % 3)
    _vals, versions = values_after(prog, bufs, cut)
    dm = DataManager()
    for task, node in zip(prog.tasks[:cut], sc["nodes"]):
        dm.commit_task_done(task, node)
        dm.record_writes(task)
    for index, version in sc["checkpoints"]:
        bid = bufs[index].buffer_id
        version = min(version, dm.version(bid))
        dm.writes(bid).checkpoint = (version, versions[(bid, version)])
    for node in sorted(sc["dead"]):
        dm.on_node_failure(node)
    return prog, bufs, cut, dm, versions


def needed_by(pending, dm):
    """Every version a pending task reads that no earlier pending task
    writes: the current one."""
    needed, written = [], set()
    for task in pending:
        for buf in {b.buffer_id: b for b in task.reads}.values():
            if buf.buffer_id not in written:
                needed.append((task, buf, dm.version(buf.buffer_id)))
        written.update(b.buffer_id for b in task.writes)
    return needed


def interpret(steps, bufs, lost, cut, prog, dm, versions):
    """Run ``steps`` then the pending tasks serially; every lost buffer
    starts poisoned.  Returns the values and versions at the end of the
    plan and of the program."""
    state = {b.buffer_id: (versions[(b.buffer_id, dm.version(b.buffer_id))]
                           .copy(), dm.version(b.buffer_id)) for b in bufs}
    for bid in lost:
        state[bid] = (np.full(2, np.nan), None)
    for step in steps:
        if isinstance(step, Restore):
            ((buf, version),) = step.outputs
            state[buf.buffer_id] = (step.snapshot.copy(), version)
            continue
        for buf, version in step.reads:
            assert state[buf.buffer_id][1] == version, (step, buf.name)
        arrays = {d.buffer.buffer_id: state[d.buffer.buffer_id][0]
                  for d in step.task.deps}
        step.task.fn(*(arrays[d.buffer.buffer_id] for d in step.task.deps))
        for buf, version in step.outputs:
            state[buf.buffer_id] = (arrays[buf.buffer_id], version)
    after_plan = {bid: (v.copy(), ver) for bid, (v, ver) in state.items()}
    for task in prog.tasks[cut:]:
        task.fn(*(state[d.buffer.buffer_id][0] for d in task.deps))
    return after_plan, {bid: v for bid, (v, _ver) in state.items()}


def check_plan(sc, must_plan=False):
    prog, bufs, cut, dm, versions = commit_prefix(sc)
    pending = prog.tasks[cut:]
    needed = needed_by(pending, dm)
    lost = {b.buffer_id for b in bufs if not dm.locations(b)}
    try:
        steps = plan_recovery(dm, needed, frozenset(sc["dead"]))
    except RecoveryError as exc:
        assert not must_plan, exc
        assert NAMED.match(str(exc)), exc
        return None
    after_plan, final = interpret(steps, bufs, lost, cut, prog, dm, versions)
    for _task, buf, version in needed:
        value, held = after_plan[buf.buffer_id]
        assert held == version
        assert value.tobytes() == versions[(buf.buffer_id, version)].tobytes()
    # A rebuilt buffer ends at the version its directory holders hold.
    for buf, _version in (o for s in steps for o in s.outputs):
        bid = buf.buffer_id
        assert after_plan[bid][1] == dm.version(bid)
    # The rest of the program then matches the fault-free run byte for
    # byte, on every buffer it touches or that survived.
    clean, _ = values_after(prog, bufs, len(prog.tasks))
    touched = {b.buffer_id for t in pending for b in t.touched}
    for bid in touched | ({b.buffer_id for b in bufs} - lost):
        assert final[bid].tobytes() == clean[bid].tobytes()


#: ``t2`` rebuilds ``b0`` from ``b1`` at version 1, the version ``t1``
#: read, but ``t3`` has since written ``b1`` again: the plan must bring
#: ``b1`` on to version 2, the one its directory holders hold.
CHAIN_BEHIND = {"tasks": [{1: "out"}, {1: "in", 0: "out"},
                          {2: "in", 1: "out"}, {0: "in"}],
                "cut": 0, "nodes": [1] * 10, "dead": {1}, "checkpoints": []}


@given(state)
@example(CHAIN_BEHIND)
@settings(deadline=None, max_examples=300)
def test_plans_replay_to_the_fault_free_bytes(sc):
    check_plan(sc)


def single_assignment():
    """Each task writes one buffer of its own, whole, and reads earlier
    ones: every version has a pure producer, so a plan always exists."""
    return st.integers(1, MAX_BUFFERS - 1).flatmap(lambda n: st.tuples(
        *[st.sets(st.integers(0, i), max_size=2) for i in range(n)]))


@given(single_assignment(), st.integers(0, 3), st.lists(
    st.sampled_from(WORKERS), min_size=3, max_size=3),
    st.sets(st.sampled_from(WORKERS), min_size=1, max_size=2))
@settings(deadline=None, max_examples=200)
def test_single_assignment_programs_always_have_a_plan(reads, cut, nodes,
                                                       dead):
    # Buffer 0 is the input, at the (never dying) home; task i writes
    # buffer i + 1 and reads some of buffers 0..i.
    tasks = [{**{r: "in" for r in rs}, i + 1: "out"}
             for i, rs in enumerate(reads)]
    tasks.append({b: "in" for b in range(len(tasks) + 1)})
    check_plan({"tasks": tasks, "cut": cut, "nodes": nodes * 4,
                "dead": dead, "checkpoints": []}, must_plan=True)


@given(state)
@settings(deadline=None, max_examples=300)
def test_every_needed_version_has_a_holder_or_a_plan(sc):
    prog, bufs, cut, dm, _versions = commit_prefix(sc)
    needed = needed_by(prog.tasks[cut:], dm)
    try:
        steps = plan_recovery(dm, needed, frozenset(sc["dead"]))
    except RecoveryError:
        return
    planned = {(b.buffer_id, v) for s in steps for b, v in s.outputs}
    for _task, buf, version in needed:
        assert (dm.locations(buf) and version == dm.version(buf.buffer_id)
                or (buf.buffer_id, version) in planned), (buf.name, version)


@given(worker=st.integers(1, 4), at_ms=st.integers(0, 40),
       device=st.sampled_from([None, 4, 5]))
@settings(deadline=None, max_examples=30)
def test_random_stencil_worker_kill_is_exact_or_named(worker, at_ms, device):
    cfg = (OMPCConfig() if device is None else OMPCConfig(
        device_memory_bytes=device * 4 * KB, eviction_policy="lru"))
    prog, final, want = stencil_program()
    rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg)
    try:
        run_to_horizon(rt, prog, failures=[
            NodeFailure(time=at_ms * 0.25e-3, node=worker)])
    except RecoveryError as exc:
        assert NAMED.match(str(exc)), exc
        return
    for buf, value in zip(final, want):
        assert np.array_equal(buf.data, value), buf.name


def test_resilient_scenario4_worker_kill_is_exact_or_named():
    """The benchmark's ``resilient`` set-up (seed 1) with worker 16
    killed at 0.0635 s: a replay of ``t9p31`` needs ``p30g0`` at the
    version it read, which ``t10p30`` has since overwritten.  It used
    to end with 6 of 32 final buffers wrong."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                    "benchmarks", "e2e"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    wl = workloads.make_workloads()["resilient"]
    wl.prepare(1)
    [op] = wl.construct([wl.scenario(1, 4, [NodeFailure(time=0.0635,
                                                         node=16)])])
    try:
        op.run()
    except RecoveryError as exc:
        assert NAMED.match(str(exc)), exc
        assert "task t9p31 needs buffer p30g0" in str(exc)
