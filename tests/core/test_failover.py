"""End-to-end head-node failover tests.

The head crashes mid-run; the ring confirms its death via a quorum of
both ring neighbors, the most-caught-up standby is elected, adopts its
log replica, rebuilds the directory and in-flight set, re-issues
unacknowledged dispatches idempotently, and the run completes with the
exact bytes a fault-free run produces.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core.faults import (
    FailoverEvent,
    FaultTolerantRuntime,
    NodeFailure,
    RecoveryError,
)
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out

from tests.test_util import FAST
HA = dataclasses.replace(FAST, head_standbys=2)


def shots_program(num_shots=4, cost=0.05):
    prog = OmpProgram("shots")
    model = np.arange(16.0)
    model_buf = prog.buffer(model.nbytes, data=model, name="model")
    prog.target_enter_data(model_buf)
    outputs = []
    out_bufs = []
    for i in range(num_shots):
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
    return prog, model, outputs


def chain_program(steps=4, cost=0.05):
    """A serial INOUT chain: x += 1, `steps` times — order-sensitive."""
    prog = OmpProgram("chain")
    x = np.zeros(8)
    buf = prog.buffer(x.nbytes, data=x, name="x")
    prog.target_enter_data(buf)
    for i in range(steps):
        prog.target(
            fn=lambda v: np.add(v, 1.0, out=v),
            depend=[depend_inout(buf)],
            cost=cost,
            name=f"step{i}",
        )
    prog.target_exit_data(buf)
    return prog, x


class TestHeadFailover:
    def test_bit_identical_to_fault_free(self):
        prog, model, clean_out = shots_program()
        clean = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(prog)

        prog2, _, out = shots_program()
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(
            prog2, failures=[NodeFailure(time=0.02, node=0)]
        )
        assert res.head_failovers == 1
        assert res.final_head != 0
        assert res.failures == [0]
        for a, b in zip(clean_out, out):
            assert np.array_equal(a, b)  # bit-identical numerics
            np.testing.assert_allclose(b, model * 2.0)
        assert clean.head_failovers == 0 and clean.final_head == 0

    def test_no_standbys_is_a_clean_error_not_a_hang(self):
        prog, _, _ = shots_program(cost=0.1)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST)
        with pytest.raises(RecoveryError, match="no standbys"):
            rt.run(prog, failures=[NodeFailure(time=0.02, node=0)])

    def test_failover_telemetry(self):
        prog, _, _ = shots_program(cost=0.1)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(
            prog, failures=[NodeFailure(time=0.03, node=0)]
        )
        assert len(res.failovers) == 1
        fo = res.failovers[0]
        assert isinstance(fo, FailoverEvent)
        assert (fo.old_head, fo.new_head) == (0, res.final_head)
        assert fo.epoch == 1
        assert fo.failed_at == 0.03
        # Detection needs missed heartbeat windows plus the two-neighbor
        # quorum round trip; election and replay add more.
        assert fo.detection_time > 0
        assert fo.election_time > 0
        assert fo.recovery_time >= fo.election_time
        assert fo.resumed_at >= fo.elected_at >= fo.declared_at
        assert fo.replayed_records > 0
        assert res.log_records_appended >= fo.replayed_records
        assert res.replication_bytes > 0
        assert res.log_flushes >= 1  # the bootstrap fence at minimum
        assert res.replication["records_sent"] > 0

    def test_standby_replication_costs_nothing_when_off(self):
        prog, _, _ = shots_program()
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST).run(prog)
        assert res.log_records_appended == 0
        assert res.replication_bytes == 0.0
        assert res.replication == {}

    def test_inout_chain_survives_head_crash(self):
        prog, x_clean = chain_program()
        FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(prog)

        prog2, x = chain_program()
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(
            prog2, failures=[NodeFailure(time=0.07, node=0)]
        )
        assert res.head_failovers == 1
        assert np.array_equal(x, x_clean)
        np.testing.assert_allclose(x, np.full(8, 4.0))

    def test_failover_with_checkpointing(self):
        cfg = dataclasses.replace(HA, checkpoint_interval=0.02)
        prog, x_clean = chain_program(steps=5)
        FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg).run(prog)

        prog2, x = chain_program(steps=5)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg).run(
            prog2, failures=[NodeFailure(time=0.11, node=0)]
        )
        assert res.head_failovers == 1
        assert np.array_equal(x, x_clean)

    def test_double_failover(self):
        # The first elected head dies too; a second election follows.
        cfg = dataclasses.replace(FAST, head_standbys=3)
        prog, model, out = shots_program(num_shots=6, cost=0.08)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=6), cfg).run(
            prog,
            failures=[
                NodeFailure(time=0.03, node=0),
                NodeFailure(time=0.06, node=1),
            ],
        )
        assert res.head_failovers == 2
        assert [fo.epoch for fo in res.failovers] == [1, 2]
        assert res.failovers[0].new_head == res.failovers[1].old_head
        assert res.final_head not in (0, 1)
        for o in out:
            np.testing.assert_allclose(o, model * 2.0)

    def test_head_and_worker_crash_together(self):
        prog, model, out = shots_program(num_shots=6, cost=0.1)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=6), HA).run(
            prog,
            failures=[
                NodeFailure(time=0.03, node=0),
                NodeFailure(time=0.05, node=4),
            ],
        )
        assert res.head_failovers == 1
        assert sorted(res.failures) == [0, 4]
        for o in out:
            np.testing.assert_allclose(o, model * 2.0)

    def test_all_standbys_dead_raises(self):
        prog, _, _ = shots_program(num_shots=4, cost=0.2)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA)
        with pytest.raises(RecoveryError):
            rt.run(prog, failures=[
                NodeFailure(time=0.02, node=1),
                NodeFailure(time=0.03, node=2),
                NodeFailure(time=0.08, node=0),
            ])

    def test_standbys_clamped_to_worker_count(self):
        cfg = dataclasses.replace(FAST, head_standbys=99)
        prog, model, out = shots_program()
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=4), cfg).run(
            prog, failures=[NodeFailure(time=0.02, node=0)]
        )
        assert res.head_failovers == 1
        for o in out:
            np.testing.assert_allclose(o, model * 2.0)

    def test_late_head_crash_after_all_work_done(self):
        # Head dies while shot completions / exit-data drains are in
        # flight; the elected head must still retrieve every output to
        # the (rehomed) host image.
        prog, model, out = shots_program(num_shots=4, cost=0.05)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(
            prog, failures=[NodeFailure(time=0.049, node=0)]
        )
        assert res.head_failovers == 1
        for o in out:
            np.testing.assert_allclose(o, model * 2.0)

    def test_heartbeat_health_counters_surface(self):
        prog, _, _ = shots_program(cost=0.1)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(
            prog, failures=[NodeFailure(time=0.03, node=0)]
        )
        # Death detection requires missed heartbeat windows first.
        assert res.missed_heartbeat_windows > 0

    def test_makespan_overhead_is_bounded(self):
        prog, _, _ = shots_program(num_shots=4, cost=0.1)
        clean = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(prog)
        prog2, _, _ = shots_program(num_shots=4, cost=0.1)
        failed = FaultTolerantRuntime(ClusterSpec(num_nodes=5), HA).run(
            prog2, failures=[NodeFailure(time=0.05, node=0)]
        )
        assert failed.head_failovers == 1
        # Worker-side dedup makes re-issued dispatches nearly free, so
        # the overhead is small — but it must stay bounded (no serial
        # re-execution of completed work).
        assert failed.makespan < clean.makespan + 0.5
        assert failed.failovers[0].recovery_time > 0
