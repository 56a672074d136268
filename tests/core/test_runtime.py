"""Integration tests for the full OMPC runtime."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, NetworkSpec, NodeSpec
from repro.core import FaultPlan, LinkLoss, OMPCConfig, OMPCRuntime
from repro.core.datamanager import HOST
from repro.core.runtime import HeadCore
from repro.core.scheduler import RoundRobinScheduler
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out
from repro.sim.errors import Interrupt
from repro.sim.resources import Resource

from tests.obs.test_counter_tier import _stencil
from tests.test_util import FAST as FAST_CFG, ZERO_OVERHEADS


def listing1_program(n=1000, cost=0.05):
    prog = OmpProgram("listing1")
    data = np.zeros(n)
    A = prog.buffer(nbytes=data.nbytes, data=data, name="A")
    prog.target_enter_data(A)
    prog.target(
        fn=lambda a: np.add(a, 1.0, out=a),
        depend=[depend_inout(A)], cost=cost, name="foo",
    )
    prog.target(
        fn=lambda a: np.multiply(a, 3.0, out=a),
        depend=[depend_inout(A)], cost=cost, name="bar",
    )
    prog.target_exit_data(A)
    return prog, data


class TestEndToEnd:
    def test_listing1_computes_correct_result(self):
        prog, data = listing1_program()
        OMPCRuntime(ClusterSpec(num_nodes=3), FAST_CFG).run(prog)
        np.testing.assert_allclose(data, np.full(1000, 3.0))

    def test_serial_chain_makespan_dominated_by_compute(self):
        prog, _ = listing1_program(cost=0.5)
        res = OMPCRuntime(ClusterSpec(num_nodes=3), FAST_CFG).run(prog)
        assert res.makespan == pytest.approx(1.0, rel=0.02)

    def test_overheads_reported(self):
        prog, _ = listing1_program()
        res = OMPCRuntime(ClusterSpec(num_nodes=3)).run(prog)
        cfg = OMPCConfig()
        assert res.startup_time == cfg.startup_time
        assert res.shutdown_time == cfg.shutdown_time
        assert res.scheduling_time > 0
        assert res.constant_overhead == pytest.approx(
            res.startup_time + res.shutdown_time + res.scheduling_time
        )

    def test_parallel_width_uses_workers(self):
        prog = OmpProgram()
        arrays = []
        for i in range(4):
            arr = np.zeros(10)
            arrays.append(arr)
            b = prog.buffer(arr.nbytes, data=arr, name=f"b{i}")
            prog.target_enter_data(b)
            prog.target(
                fn=lambda a, i=i: np.add(a, i + 1, out=a),
                depend=[depend_inout(b)], cost=1.0, name=f"t{i}",
            )
            prog.target_exit_data(b)
        res = OMPCRuntime(ClusterSpec(num_nodes=5), FAST_CFG).run(prog)
        # 4 independent 1s tasks on 4 workers: wall ~1s, not ~4s.
        assert res.makespan == pytest.approx(1.0, rel=0.05)
        for i, arr in enumerate(arrays):
            np.testing.assert_allclose(arr, np.full(10, i + 1.0))

    def test_empty_program(self):
        res = OMPCRuntime(ClusterSpec(num_nodes=2), FAST_CFG).run(OmpProgram())
        assert res.makespan >= 0.0
        assert res.task_intervals == {}

    def test_requires_worker_node(self):
        with pytest.raises(ValueError):
            OMPCRuntime(ClusterSpec(num_nodes=1))


class TestUnreadFieldsRejected:
    """The single head reads none of the fault-tolerance fields."""

    @pytest.mark.parametrize("overrides", [
        {"checkpoint_interval": 0.05},
        {"straggler_factor": 3.0},
        {"head_standbys": 1},
        {"gossip": True},
    ], ids=lambda o: next(iter(o)))
    def test_fault_tolerance_fields_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=name) as info:
            OMPCRuntime(ClusterSpec(num_nodes=3), OMPCConfig(**overrides))
        assert "FaultTolerantRuntime" in str(info.value)


class TestDataMovement:
    def test_worker_to_worker_forwarding_bypasses_head(self):
        # foo on node 1, bar on node 2 (forced): A must flow 1 -> 2.
        prog = OmpProgram()
        A = prog.buffer(nbytes=1_000_000, name="A")
        prog.target_enter_data(A)
        prog.target(depend=[depend_inout(A)], cost=0.01, name="foo")
        prog.target(depend=[depend_inout(A)], cost=0.01, name="bar")
        # No exit data: the final value stays on the last worker, so any
        # head-NIC payload traffic would come from the forwarding path.
        rt = OMPCRuntime(
            ClusterSpec(num_nodes=3), FAST_CFG, scheduler=RoundRobinScheduler()
        )
        res = rt.run(prog)
        assert res.counters.get("ompc.events.exchange_dst", 0) == 1
        # The payload never transits the head NIC.
        head_nic = rt.last_cluster.network.nics[0]
        assert head_nic.bytes_received < 1_000_000

    def test_forwarding_disabled_routes_via_head(self):
        prog = OmpProgram()
        A = prog.buffer(nbytes=1_000_000, name="A")
        prog.target_enter_data(A)
        prog.target(depend=[depend_inout(A)], cost=0.01, name="foo")
        prog.target(depend=[depend_inout(A)], cost=0.01, name="bar")
        prog.target_exit_data(A)
        cfg = OMPCConfig(forwarding_enabled=False, **ZERO_OVERHEADS)
        rt = OMPCRuntime(
            ClusterSpec(num_nodes=3), cfg, scheduler=RoundRobinScheduler()
        )
        res = rt.run(prog)
        head_nic = rt.last_cluster.network.nics[0]
        # Staged via head: the payload crosses the head NIC.
        assert head_nic.bytes_received >= 1_000_000

    def test_readonly_input_replicated_not_invalidated(self):
        prog = OmpProgram()
        model = np.arange(8.0)
        M = prog.buffer(model.nbytes, data=model, name="model")
        outs = []
        prog.target_enter_data(M)
        for i in range(3):
            arr = np.zeros(8)
            outs.append(arr)
            O = prog.buffer(arr.nbytes, data=arr, name=f"out{i}")
            prog.target(
                fn=lambda m, o: np.copyto(o, m),
                depend=[depend_in(M), depend_out(O)],
                cost=0.01, name=f"shot{i}",
            )
            prog.target_exit_data(O)
        prog.target_exit_data(M)
        rt = OMPCRuntime(
            ClusterSpec(num_nodes=4), FAST_CFG, scheduler=RoundRobinScheduler()
        )
        rt.run(prog)
        for arr in outs:
            np.testing.assert_allclose(arr, model)

    def test_exit_data_brings_result_home_and_cleans_cluster(self):
        prog, data = listing1_program()
        rt = OMPCRuntime(ClusterSpec(num_nodes=3), FAST_CFG)
        res = rt.run(prog)
        assert res.counters.get("ompc.events.retrieve", 0) >= 1
        assert res.counters.get("ompc.events.delete", 0) >= 1


class TestInFlightLimit:
    def make_wide(self, width, cost=1.0):
        prog = OmpProgram()
        for i in range(width):
            b = prog.buffer(8, name=f"b{i}")
            prog.target(depend=[depend_out(b)], cost=cost, name=f"t{i}")
        return prog

    def test_limit_throttles_concurrency(self):
        # 8 independent tasks, 8 workers, but only 2 head threads: at
        # most 2 tasks in flight, so wall ~= 4 * cost.
        cfg = OMPCConfig(head_threads=2, **ZERO_OVERHEADS)
        prog = self.make_wide(8)
        res = OMPCRuntime(ClusterSpec(num_nodes=9), cfg).run(prog)
        assert res.makespan == pytest.approx(4.0, rel=0.05)

    def test_ample_threads_full_concurrency(self):
        cfg = OMPCConfig(head_threads=64, **ZERO_OVERHEADS)
        prog = self.make_wide(8)
        res = OMPCRuntime(ClusterSpec(num_nodes=9), cfg).run(prog)
        assert res.makespan == pytest.approx(1.0, rel=0.05)


class TestHeadCoreFrame:
    def test_interrupted_queued_frame_withdraws_its_request(self):
        # One slot, three frames: a holds it, b and c queue behind it.
        # b is interrupted while queued, so a's release must grant the
        # slot to c, not to b's abandoned request.
        prog = OmpProgram()
        for name in ("a", "b", "c"):
            prog.task(name=name)
        core = HeadCore(ClusterSpec(num_nodes=3), FAST_CFG, prog)
        sim = core.sim
        slots = Resource(sim, capacity=1)
        done = []

        def hold(task):
            yield sim.timeout(1.0)

        def shielded(frame):
            try:
                yield from frame
            except Interrupt:
                done.append("interrupted")

        a, b, c = prog.graph.tasks()
        procs = [
            sim.process(shielded(core.run_task(
                t, slots, lambda t: done.append(t.name), body=hold)))
            for t in (a, b, c)
        ]

        def interrupt_b():
            yield sim.timeout(0.5)
            procs[1].interrupt("teardown")

        sim.process(interrupt_b())
        sim.run()
        assert done == ["interrupted", "a", "c"]
        assert core.result.task_intervals == {
            a.task_id: (0.0, 1.0), c.task_id: (1.0, 2.0),
        }
        assert slots.in_use == 0 and slots.queue_length == 0


class TestClassicalTasks:
    def test_classical_runs_on_head_against_host_memory(self):
        prog = OmpProgram()
        data = np.zeros(4)
        A = prog.buffer(data.nbytes, data=data, name="A")
        prog.task(
            fn=lambda a: np.add(a, 5.0, out=a),
            depend=[depend_inout(A)], cost=0.1, name="host-task",
        )
        res = OMPCRuntime(ClusterSpec(num_nodes=2), FAST_CFG).run(prog)
        np.testing.assert_allclose(data, np.full(4, 5.0))
        classical = next(
            tid for tid, n in res.schedule.assignment.items() if n == HOST
        )
        assert classical is not None


class TestDeterminism:
    def test_identical_runs_identical_makespan(self):
        results = []
        for _ in range(2):
            prog, _ = listing1_program()
            res = OMPCRuntime(ClusterSpec(num_nodes=4)).run(prog)
            results.append(res.makespan)
        assert results[0] == results[1]


class TestLossyFabric:
    """A lossy fabric switches the reliable transport on, on every plane."""

    @staticmethod
    def outputs(cfg, loss):
        spec = ClusterSpec(num_nodes=4)
        cluster = Cluster(spec)
        if loss:
            FaultPlan(seed=3, losses=(LinkLoss(probability=loss),)).install(
                cluster)
        prog = _stencil(width=3, steps=3)
        proc, finish = OMPCRuntime(spec, cfg).launch(prog, cluster)
        cluster.sim.run(until=proc)
        finish()
        return [buf.data.tobytes() for buf in prog.buffers], cluster.faults

    @pytest.mark.parametrize("cfg", [OMPCConfig(), OMPCConfig(head_shards=2)],
                             ids=["one-head", "two-shards"])
    def test_run_under_loss_is_byte_exact(self, cfg):
        clean, _ = self.outputs(cfg, loss=0.0)
        lossy, faults = self.outputs(cfg, loss=0.05)
        assert faults.dropped_messages > 0
        assert lossy == clean
