"""HEFT processor selection against the full-scan oracle: exact schedules.

:class:`HeftScheduler` prices a task's nodes in one pass over its
predecessors (predecessor hosts individually, every other node through
one shared ready time) instead of looping over the predecessors once
per worker.  The promise is the *same schedule*, float for float, as
the reference full scan in ``tests/reference_heft.py``: ``assignment``
and ``planned`` are compared with ``==``, never approximately.

Generated cases cover every Task Bench pattern, stencils with and
without ``affinity`` meta (int, string, none), host staging through
enter-data and classical tasks, heterogeneous node speeds and core
counts, 1–4 execution slots, stickiness 0 and 1, and up to 129 nodes
so that most workers host none of a task's predecessors.  One
deterministic case runs at the end-to-end benchmark's ``head-1024``
scale.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.node import NodeSpec
from repro.core.scheduler import HeftScheduler
from repro.omp import OmpProgram
from repro.omp.task import Dep, DepType
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec

from tests.reference_heft import ReferenceHeftScheduler

BANDWIDTH = 100e9 / 8.0


def build_program(pattern: Pattern, width: int, steps: int, *,
                  affinity: str = "int", staging: str = "none",
                  nbytes: float | None = None, kernel_s: float = 5e-4,
                  cost_seed: int | None = None) -> OmpProgram:
    """A Task Bench program, optionally with host-staged inputs.

    ``affinity`` tags each task with its point as ``"int"``, as a
    ``"str"``, or not at all (``"none"``).  ``staging`` adds inputs
    every step-0 task reads: entered with ``target enter data``
    (``"enter"``), written by a classical host task (``"classical"``),
    or ``"both"``.  ``cost_seed`` jitters task costs by up to ±20 %.
    """
    spec = TaskBenchSpec.with_ccr(
        width, steps, pattern, KernelSpec.from_duration(kernel_s), 1.0,
        BANDWIDTH,
    )
    size = spec.output_bytes if nbytes is None else nbytes
    rng = random.Random(cost_seed)
    prog = OmpProgram(f"oracle-{pattern.value}")
    bufs = [[prog.buffer(size, name=f"p{q}g{g}") for g in range(2)]
            for q in range(width)]
    inputs = []
    if staging in ("enter", "both"):
        entered = [prog.buffer(size, name=f"in{q}") for q in range(width)]
        prog.target_enter_data(*entered)
        inputs.append(entered)
    if staging in ("classical", "both"):
        made = [prog.buffer(size / 2, name=f"host{q}") for q in range(width)]
        prog.task(depend=[Dep(b, DepType.OUT) for b in made], cost=1e-4)
        inputs.append(made)
    for step, point in spec.tasks():
        deps = [Dep(bufs[q][(step - 1) % 2], DepType.IN)
                for q in spec.deps(step, point)]
        if step == 0:
            deps += [Dep(src[q], DepType.IN) for src in inputs
                     for q in {point, (point + 1) % width}]
        deps.append(Dep(bufs[point][step % 2], DepType.OUT))
        meta = {}
        if affinity == "int":
            meta["affinity"] = point
        elif affinity == "str":
            meta["affinity"] = f"point{point}"
        cost = spec.kernel.duration
        if cost_seed is not None:
            cost *= 1 + 0.2 * (2 * rng.random() - 1)
        prog.target(depend=deps, cost=cost, name=f"t{step}p{point}",
                    **meta)
    return prog


def assert_same_schedule(prog: OmpProgram, cluster: Cluster,
                         **options) -> None:
    fast = HeftScheduler(**options).schedule(prog.graph, cluster)
    ref = ReferenceHeftScheduler(**options).schedule(prog.graph, cluster)
    assert fast.assignment == ref.assignment
    assert fast.planned == ref.planned


@st.composite
def cases(draw):
    pattern = draw(st.sampled_from(list(Pattern)))
    if pattern is Pattern.FFT:
        width = 2 ** draw(st.integers(min_value=0, max_value=5))
    else:
        width = draw(st.integers(min_value=1, max_value=32))
    prog = build_program(
        pattern, width, draw(st.integers(min_value=1, max_value=4)),
        affinity=draw(st.sampled_from(["int", "str", "none"])),
        staging=draw(st.sampled_from(["none", "enter", "classical", "both"])),
        nbytes=draw(st.sampled_from([None, 0.0, 1e3, 5e7])),
        kernel_s=draw(st.sampled_from([0.0, 5e-4, 50e-3])),
        cost_seed=draw(st.none() | st.integers(min_value=0, max_value=99)),
    )
    nodes = draw(st.sampled_from([2, 3, 5, 33, 129])
                 | st.integers(min_value=2, max_value=129))
    overrides = draw(st.dictionaries(
        st.integers(min_value=1, max_value=nodes - 1),
        st.builds(
            lambda speed, cores: NodeSpec(cores=cores, speed=speed),
            st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
            st.sampled_from([1, 2, 48]),
        ),
        max_size=8,
    ))
    cluster = Cluster(ClusterSpec(num_nodes=nodes,
                                  node_overrides=tuple(overrides.items())))
    options = {
        "exec_slots_per_node": draw(st.integers(min_value=1, max_value=4)),
        "affinity_stickiness": draw(st.sampled_from([0.0, 1.0])),
    }
    return prog, cluster, options


@given(cases())
@settings(deadline=None, max_examples=150)
def test_schedule_matches_full_scan(case):
    prog, cluster, options = case
    assert_same_schedule(prog, cluster, **options)


def test_benchmark_scale_stencil_matches_full_scan():
    """The ``head-1024`` shape: a 2048x2 stencil on 1024 nodes."""
    prog = build_program(Pattern.STENCIL_1D, 2048, 2, cost_seed=1)
    assert_same_schedule(prog, Cluster(ClusterSpec(num_nodes=1024)))
