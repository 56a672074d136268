"""Chaos testing: random crash schedules (head included) plus lossy
links on small task graphs.

The contract under any drawn fault scenario is binary: the run either
completes with final buffers bit-identical to a fault-free reference
run, or it raises a clean :class:`RecoveryError` — never a hang, never
a silently wrong answer.  Every run goes through ``launch()`` under an
in-simulation horizon, so a livelock (the failure detector ticking over
a run that can no longer progress) fails as :class:`HorizonExceeded`
instead of hanging the suite.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core.faultmodel import FaultPlan, LinkLoss
from repro.core.faults import (
    FaultTolerantRuntime,
    NodeFailure,
    RecoveryError,
)
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out

from tests.test_util import FAST

NODES = 5
#: Simulated seconds a chaos run may take; the longest legitimate run
#: (a 4-step chain with two failovers) ends well under 1 s.
HORIZON = 5.0


class HorizonExceeded(AssertionError):
    """A run was still going at the horizon: a livelock, not a result."""


def run_to_horizon(runtime, program, **run_kwargs):
    """``runtime.run`` through ``launch()``, raising
    :class:`HorizonExceeded` if the run outlives :data:`HORIZON`."""
    main, finish = runtime.launch(program, **run_kwargs)
    sim = main.sim
    deadline = sim.now + HORIZON

    def watchdog():
        yield sim.timeout(HORIZON)
        raise HorizonExceeded(f"run not done by simulated t={deadline:g} s")

    sim.process(watchdog(), name="chaos-horizon")
    sim.run(until=main)
    return finish()


def build_program(shape, num_units, cost):
    """A fresh program instance plus its (aliased) output arrays."""
    prog = OmpProgram(shape)
    outputs = []
    if shape in ("shots", "mixed"):
        model = np.arange(16.0)
        model_buf = prog.buffer(model.nbytes, data=model, name="model")
        prog.target_enter_data(model_buf)
        out_bufs = []
        for i in range(num_units):
            out = np.zeros(16)
            outputs.append(out)
            buf = prog.buffer(out.nbytes, data=out, name=f"out{i}")
            out_bufs.append(buf)
            prog.target(
                fn=lambda m, o: np.copyto(o, m * 2.0),
                depend=[depend_in(model_buf), depend_out(buf)],
                cost=cost,
                name=f"shot{i}",
            )
        prog.target_exit_data(*out_bufs)
    if shape in ("chain", "mixed"):
        x = np.zeros(8)
        outputs.append(x)
        buf = prog.buffer(x.nbytes, data=x, name="x")
        prog.target_enter_data(buf)
        for i in range(num_units):
            prog.target(
                fn=lambda v: np.add(v, 1.0, out=v),
                depend=[depend_inout(buf)],
                cost=cost,
                name=f"step{i}",
            )
        prog.target_exit_data(buf)
    return prog, outputs


# One crash: (node, time).  Times sit on a grid so schedules stay well
# inside the runs' makespans and shrinking is stable.
crash = st.tuples(
    st.integers(min_value=0, max_value=NODES - 1),
    st.sampled_from([0.01, 0.03, 0.05, 0.08, 0.12]),
)

scenario = st.fixed_dictionaries({
    "shape": st.sampled_from(["shots", "chain", "mixed"]),
    "num_units": st.integers(min_value=2, max_value=4),
    "cost": st.sampled_from([0.03, 0.05]),
    "crashes": st.lists(crash, max_size=2, unique_by=lambda c: c[0]),
    "standbys": st.integers(min_value=1, max_value=2),
    "loss": st.sampled_from([0.0, 0.05]),
    "plan_seed": st.integers(min_value=0, max_value=2**16),
    "checkpoint": st.booleans(),
})


#: The head and its ring successor crash together: the head's only
#: watcher dies with it, so only the reporter's escalation catches it.
HEAD_AND_SUCCESSOR = {
    "shape": "chain", "num_units": 3, "cost": 0.05,
    "crashes": [(0, 0.08), (1, 0.08)], "standbys": 2, "loss": 0.0,
    "plan_seed": 0, "checkpoint": False,
}


#: ``--hypothesis-seed=5``'s draw.  The rebuilt head used to replay
#: every logged completion as a write, enter-data included, so a
#: checkpoint logged at version 1 ("after step0") read as "after
#: enter_data0" and the restore replayed step0 again: x = 3, not 2.
SEED5_DOUBLE_APPLY = {
    "shape": "chain", "num_units": 2, "cost": 0.03,
    "crashes": [(0, 0.05), (1, 0.05)], "standbys": 2, "loss": 0.0,
    "plan_seed": 0, "checkpoint": True,
}

#: Worker 1 dies at 0.01 s and the head at 0.03 s.  A fix for the
#: seed-19 draw below that forces the re-issue only when the rebuilt
#: directory still lists the live target among the holders of the
#: step's INOUT buffers ends this draw at x = 3.
WORKER_THEN_HEAD = {
    "shape": "chain", "num_units": 2, "cost": 0.03,
    "crashes": [(0, 0.03), (1, 0.01)], "standbys": 2, "loss": 0.0,
    "plan_seed": 0, "checkpoint": False,
}

#: ``--hypothesis-seed=19``'s draw (see
#: :meth:`TestSeededRegressions.test_seed19_in_doubt_step_on_a_live_node`).
SEED19_STALE_DEDUP = {
    "shape": "chain", "num_units": 2, "cost": 0.05,
    "crashes": [(0, 0.08), (1, 0.03)], "standbys": 2, "loss": 0.0,
    "plan_seed": 0, "checkpoint": False,
}


class TestChaosFailover:
    @given(scenario)
    @example(HEAD_AND_SUCCESSOR)
    @example(SEED5_DOUBLE_APPLY)
    @example(WORKER_THEN_HEAD)
    @settings(deadline=None, max_examples=30)
    def test_completes_identically_or_fails_cleanly(self, sc):
        cfg = dataclasses.replace(
            FAST,
            head_standbys=sc["standbys"],
            checkpoint_interval=0.02 if sc["checkpoint"] else 0.0,
        )
        ref_prog, ref_out = build_program(
            sc["shape"], sc["num_units"], sc["cost"]
        )
        run_to_horizon(
            FaultTolerantRuntime(ClusterSpec(num_nodes=NODES), cfg), ref_prog
        )

        prog, out = build_program(sc["shape"], sc["num_units"], sc["cost"])
        failures = [NodeFailure(time=t, node=n) for n, t in sc["crashes"]]
        plan = None
        if sc["loss"]:
            plan = FaultPlan(
                seed=sc["plan_seed"],
                losses=[LinkLoss(probability=sc["loss"])],
            )
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=NODES), cfg)
        try:
            res = run_to_horizon(rt, prog, failures=failures,
                                 fault_plan=plan)
        except RecoveryError:
            return  # clean refusal is an acceptable outcome
        # Completed: every output must match the fault-free run bit for
        # bit, and the telemetry must be self-consistent.
        for a, b in zip(ref_out, out):
            assert np.array_equal(a, b)
        head_crashed = any(n == 0 for n, _t in sc["crashes"])
        if res.head_failovers:
            assert head_crashed
            assert res.final_head != 0
            assert len(res.failovers) == res.head_failovers
            for fo in res.failovers:
                assert fo.resumed_at >= fo.elected_at >= fo.declared_at
        else:
            assert res.final_head == 0


class TestSeededRegressions:
    """Chaos draws replayed deterministically, outside hypothesis."""

    def _run(self, sc):
        cfg = dataclasses.replace(
            FAST,
            head_standbys=sc["standbys"],
            checkpoint_interval=0.02 if sc["checkpoint"] else 0.0,
        )
        prog, (x,) = build_program(sc["shape"], sc["num_units"], sc["cost"])
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=NODES), cfg)
        res = run_to_horizon(rt, prog, failures=[
            NodeFailure(time=t, node=n) for n, t in sc["crashes"]
        ])
        return res, x

    def test_seed5_replayed_inout_step_applies_once(self):
        res, x = self._run(SEED5_DOUBLE_APPLY)
        assert res.head_failovers == 1 and res.checkpoint_restores >= 1
        assert np.array_equal(x, np.full(8, 2.0))

    def test_worker_then_head_applies_each_step_once(self):
        res, x = self._run(WORKER_THEN_HEAD)
        assert res.head_failovers == 1
        assert np.array_equal(x, np.full(8, 2.0))

    def test_seed19_in_doubt_step_on_a_live_node(self):
        """Worker 1 dies at 0.03 s and the head at 0.08 s, while step0
        is in doubt on live node 3.  The rebuilt directory drops node
        3's copy, so ``x`` is restored from the bootstrap snapshot and
        moved onto node 3.  The re-issue carries ``dedup=True``, but the
        move voided the version node 3's run of step0 wrote, so node 3
        re-runs step0 instead of answering from its completion table
        (which left x = 1 where the fault-free run gives 2)."""
        _res, x = self._run(SEED19_STALE_DEDUP)
        assert np.array_equal(x, np.full(8, 2.0))


class TestHeadAndSuccessorCrash:
    """The ring configuration must catch a head that dies together with
    its ring successor, its only watcher."""

    def _run(self, standbys: int):
        cfg = dataclasses.replace(FAST, head_standbys=standbys)
        prog, out = build_program("chain", 3, 0.05)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=NODES), cfg)
        res = run_to_horizon(rt, prog, failures=[
            NodeFailure(time=0.08, node=0), NodeFailure(time=0.08, node=1),
        ])
        return res, out

    def test_fails_over_with_a_live_standby(self):
        res, (x,) = self._run(standbys=2)
        assert sorted(d for d, _by, _t in res.detections) == [0, 1]
        assert res.head_failovers == 1
        assert res.final_head == 2
        assert np.array_equal(x, np.full(8, 3.0))  # three +1 steps

    def test_no_live_standby_is_a_recovery_error(self):
        with pytest.raises(RecoveryError, match="no live standby"):
            self._run(standbys=1)
