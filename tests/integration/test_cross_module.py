"""Cross-module integration tests.

These validate the reproduction's central semantic claim: the *same*
OpenMP program produces the *same numerical results* regardless of
which runtime executes it or how many nodes it runs on — only the
timing changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import FaultTolerantRuntime, OMPCRuntime
from repro.core.scheduler import MinLoadScheduler, RandomScheduler, RoundRobinScheduler
from repro.omp import OmpProgram
from repro.omp.host import HostRuntime
from repro.omp.task import Dep, DepType

from tests.test_util import FAST

clause = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([DepType.IN, DepType.OUT, DepType.INOUT]),
)
program_strategy = st.lists(
    st.lists(clause, min_size=1, max_size=3, unique_by=lambda c: c[0]),
    min_size=1,
    max_size=12,
)


def build_numeric_program(spec):
    """Each task mixes its read buffers into its written buffers with a
    task-unique, order-sensitive update, so any reordering of
    *dependent* tasks changes the result."""
    prog = OmpProgram()
    arrays = [np.ones(4) * (i + 1) for i in range(4)]
    buffers = [
        prog.buffer(arr.nbytes, data=arr, name=f"b{i}")
        for i, arr in enumerate(arrays)
    ]
    for task_id, clauses in enumerate(spec):
        deps = [Dep(buffers[bi], dt) for bi, dt in clauses]

        def body(*args, _clauses=tuple(clauses), _tid=task_id):
            reads = [
                a for a, (_bi, dt) in zip(args, _clauses) if dt.reads
            ]
            acc = sum(float(r.sum()) for r in reads) + _tid + 1.0
            for a, (_bi, dt) in zip(args, _clauses):
                if dt.writes:
                    a *= 0.5
                    a += acc * 1e-3

        prog.target(fn=body, depend=deps, cost=0.001)
    return prog, arrays


def snapshot(arrays):
    return [a.copy() for a in arrays]


class TestHostClusterEquivalence:
    @given(program_strategy)
    @settings(deadline=None, max_examples=25)
    def test_host_and_ompc_agree(self, spec):
        prog1, arrays1 = build_numeric_program(spec)
        HostRuntime(num_threads=4).run(prog1)
        host_result = snapshot(arrays1)

        prog2, arrays2 = build_numeric_program(spec)
        OMPCRuntime(ClusterSpec(num_nodes=4), FAST).run(prog2)
        for h, c in zip(host_result, arrays2):
            np.testing.assert_allclose(c, h)

    @given(program_strategy, st.integers(min_value=2, max_value=6))
    @settings(deadline=None, max_examples=20)
    def test_node_count_does_not_change_results(self, spec, nodes):
        prog1, arrays1 = build_numeric_program(spec)
        OMPCRuntime(ClusterSpec(num_nodes=2), FAST).run(prog1)
        baseline = snapshot(arrays1)

        prog2, arrays2 = build_numeric_program(spec)
        OMPCRuntime(ClusterSpec(num_nodes=nodes), FAST).run(prog2)
        for b, c in zip(baseline, arrays2):
            np.testing.assert_allclose(c, b)

    @given(program_strategy)
    @settings(deadline=None, max_examples=15)
    def test_scheduler_choice_does_not_change_results(self, spec):
        prog1, arrays1 = build_numeric_program(spec)
        OMPCRuntime(ClusterSpec(num_nodes=4), FAST).run(prog1)
        baseline = snapshot(arrays1)
        for scheduler in (
            RoundRobinScheduler(), RandomScheduler(seed=3), MinLoadScheduler()
        ):
            prog2, arrays2 = build_numeric_program(spec)
            OMPCRuntime(
                ClusterSpec(num_nodes=4), FAST, scheduler=scheduler
            ).run(prog2)
            for b, c in zip(baseline, arrays2):
                np.testing.assert_allclose(c, b)

    @given(program_strategy)
    @settings(deadline=None, max_examples=10)
    def test_fault_tolerant_runtime_without_failures_agrees(self, spec):
        prog1, arrays1 = build_numeric_program(spec)
        HostRuntime(num_threads=4).run(prog1)
        baseline = snapshot(arrays1)

        prog2, arrays2 = build_numeric_program(spec)
        FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST).run(prog2)
        for b, c in zip(baseline, arrays2):
            np.testing.assert_allclose(c, b)


class TestAwaveDecompositionInvariance:
    def test_image_independent_of_worker_count(self):
        """The stacked RTM image must not depend on how many workers the
        shots were spread over (shot decomposition is pure)."""
        from repro.apps.awave import RtmConfig, run_awave, sigsbee_like

        config = RtmConfig(nt=120, snapshot_every=5)
        images = []
        for workers in (1, 2, 4):
            model = sigsbee_like(nx=50, nz=36)
            res = run_awave(
                model, num_workers=workers, shots_per_worker=4 // workers,
                config=config, ompc_config=FAST,
            )
            assert res.num_shots == 4
            images.append(res.image)
        np.testing.assert_allclose(images[0], images[1])
        np.testing.assert_allclose(images[0], images[2])


class TestTaskBenchAcrossRuntimesTiming:
    def test_all_runtimes_agree_on_total_work(self):
        """Every runtime executes exactly width x steps kernel
        invocations' worth of compute (trivial pattern, so makespan equals
        total work / chains exactly for the BSP baseline)."""
        from repro.runtimes import all_runtimes
        from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec

        spec = TaskBenchSpec(4, 5, Pattern.NO_COMM, KernelSpec.from_duration(0.01))
        for rt in all_runtimes():
            res = rt.run(spec, ClusterSpec(num_nodes=4))
            # Chain-limited lower bound: 5 steps x 10 ms.
            assert res.makespan >= 0.05 - 1e-9
