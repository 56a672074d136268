"""Tests for fault tolerance: heartbeats, failure injection, recovery."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.datamanager import HOST, DataManager
from repro.core.events import EventSystem
from repro.core.faultmodel import (
    FaultPlan,
    LinkDegradation,
    LinkLoss,
    NodeHang,
    NodeStall,
)
from repro.core.faults import (
    FailureInjector,
    FaultTolerantRuntime,
    NodeFailure,
    RecoveryError,
)
from repro.core.gossip import RING_WINDOW, FailureDetector
from repro.mpi import MpiWorld
from repro.omp import OmpProgram
from repro.omp.task import Buffer, Task, TaskKind, depend_in, depend_inout, depend_out

from tests.property.test_chaos_failover import run_to_horizon
from tests.test_util import FAST


def target(task_id, *deps):
    return Task(task_id=task_id, kind=TaskKind.TARGET, deps=tuple(deps))


class TestNodeFailureValidation:
    def test_head_failure_now_allowed(self):
        # Head failover (repro.core.headlog) made node 0 a legal target.
        assert NodeFailure(time=1.0, node=0).node == 0
        with pytest.raises(ValueError):
            NodeFailure(time=-1.0, node=1)
        with pytest.raises(ValueError):
            NodeFailure(time=1.0, node=-1)


class TestDataManagerFailure:
    def test_replicated_buffer_survives(self):
        dm = DataManager()
        buf = Buffer(100)
        reader = target(0, depend_in(buf))
        for m in dm.plan_for_task(reader, 1)[0]:
            dm.commit_move(m)
        dm.commit_task_done(reader, 1)
        lost = dm.on_node_failure(1)
        assert lost == []
        assert dm.locations(buf) == {HOST}

    def test_sole_copy_reported_lost(self):
        dm = DataManager()
        buf = Buffer(100)
        writer = target(0, depend_inout(buf))
        for m in dm.plan_for_task(writer, 2)[0]:
            dm.commit_move(m)
        dm.commit_task_done(writer, 2)
        assert dm.locations(buf) == {2}
        lost = dm.on_node_failure(2)
        assert lost == [buf]
        assert dm.locations(buf) == set()

    def test_latest_redirected_to_survivor(self):
        dm = DataManager()
        buf = Buffer(100)
        dm.commit_enter_data(buf, 3)
        assert dm.latest(buf) == 3
        lost = dm.on_node_failure(3)
        assert lost == []
        assert dm.latest(buf) == HOST

    def test_home_failure_rejected_until_rehomed(self):
        dm = DataManager()
        with pytest.raises(ValueError):
            dm.on_node_failure(HOST)
        # After a failover rehomes the directory, the old head's copies
        # can be dropped like any worker's.
        dm.rehome(2)
        assert dm.on_node_failure(HOST) == []
        with pytest.raises(ValueError):
            dm.on_node_failure(2)


class TestEventSystemFailure:
    def make(self, n=4):
        cluster = Cluster(ClusterSpec(num_nodes=n))
        events = EventSystem(cluster, MpiWorld(cluster), FAST)
        events.start()
        return cluster, events

    def test_fail_node_wipes_memory(self):
        cluster, events = self.make()

        def main():
            yield from events.submit(2, 7, "payload", 100)
            events.fail_node(2)

        p = cluster.sim.process(main())
        cluster.sim.run(until=p)
        assert events.node_failed(2)
        assert 7 not in events.memories[2]

    def test_failure_event_fires(self):
        cluster, events = self.make()
        fired = []
        events.failure_event(1).add_callback(lambda ev: fired.append(ev.value))

        def main():
            yield cluster.sim.timeout(1.0)
            events.fail_node(1)

        cluster.sim.process(main())
        cluster.sim.run()
        assert fired == [1]

    def test_fail_node_idempotent(self):
        cluster, events = self.make()

        def main():
            yield cluster.sim.timeout(0.1)
            events.fail_node(1)
            events.fail_node(1)

        cluster.sim.process(main())
        cluster.sim.run()
        assert cluster.obs.counters["ompc.node_failures"] == 1

    def test_head_failure_allowed(self):
        cluster, events = self.make()
        events.fail_node(0)  # head failover made this legal
        assert events.node_failed(0)

    def test_shutdown_skips_failed_nodes(self):
        cluster, events = self.make()

        def main():
            yield cluster.sim.timeout(0.1)
            events.fail_node(2)
            yield from events.shutdown()

        p = cluster.sim.process(main())
        cluster.sim.run(until=p)  # must terminate without deadlock


class TestFailureInjector:
    def make(self, n=4):
        cluster = Cluster(ClusterSpec(num_nodes=n))
        events = EventSystem(cluster, MpiWorld(cluster), FAST)
        events.start()
        return cluster, FailureInjector(events)

    def test_duplicate_node_rejected(self):
        _, injector = self.make()
        injector.arm([NodeFailure(time=0.1, node=1)])
        with pytest.raises(ValueError, match="already has an armed failure"):
            injector.arm([NodeFailure(time=0.5, node=1)])

    def test_overlap_within_one_batch_rejected(self):
        _, injector = self.make()
        with pytest.raises(ValueError, match="already has an armed failure"):
            injector.arm([
                NodeFailure(time=0.1, node=2),
                NodeFailure(time=0.2, node=2),
            ])

    def test_node_outside_the_cluster_rejected(self):
        cluster, injector = self.make(n=5)
        with pytest.raises(ValueError, match="node 99 is outside the "
                           "cluster of 5 nodes"):
            injector.arm([NodeFailure(time=0.01, node=99)])
        with pytest.raises(ValueError, match="node 5 is outside"):
            injector.arm([NodeFailure(time=0.01, node=5)])
        cluster.sim.run()
        assert injector.injected == []

    def test_distinct_nodes_accepted(self):
        cluster, injector = self.make()
        injector.arm([
            NodeFailure(time=0.1, node=1),
            NodeFailure(time=0.2, node=2),
        ])
        cluster.sim.run()
        assert [f.node for f in injector.injected] == [1, 2]


class TestHeartbeatRing:
    def make_ring(self, n=4, **kwargs):
        cluster = Cluster(ClusterSpec(num_nodes=n))
        mpi = MpiWorld(cluster)
        events = EventSystem(cluster, mpi, FAST)
        events.start()
        ring = FailureDetector(cluster, mpi, events, **kwargs)
        return cluster, events, ring

    def test_no_false_positives_without_failure(self):
        cluster, events, ring = self.make_ring()
        ring.start()

        def stopper():
            yield cluster.sim.timeout(0.05)
            ring.stop()

        cluster.sim.process(stopper())
        cluster.sim.run(until=0.2)
        assert ring.detections == []

    def test_failure_detected_by_successor(self):
        cluster, events, ring = self.make_ring()
        ring.start()

        def fail_later():
            yield cluster.sim.timeout(0.02)
            events.fail_node(2)
            yield cluster.sim.timeout(0.05)
            ring.stop()

        cluster.sim.process(fail_later())
        cluster.sim.run(until=0.2)
        assert len(ring.detections) == 1
        dead, by, at = ring.detections[0]
        assert dead == 2
        assert by == 3  # the ring successor monitors node 2
        # Detection latency is bounded by the heartbeat timeout window.
        assert 0.02 < at < 0.02 + 3 * RING_WINDOW

    def test_on_detect_callback(self):
        cluster, events, ring = self.make_ring()
        seen = []
        ring.on_detect = lambda dead, by: seen.append((dead, by))
        ring.start()

        def fail_later():
            yield cluster.sim.timeout(0.01)
            events.fail_node(1)
            yield cluster.sim.timeout(0.05)
            ring.stop()

        cluster.sim.process(fail_later())
        cluster.sim.run(until=0.2)
        assert seen == [(1, 2)]

    def test_invalid_intervals(self):
        cluster = Cluster(ClusterSpec(num_nodes=3))
        mpi = MpiWorld(cluster)
        events = EventSystem(cluster, mpi, FAST)
        with pytest.raises(ValueError):
            FailureDetector(cluster, mpi, events, interval=0.0)
        with pytest.raises(ValueError):
            FailureDetector(cluster, mpi, events, interval=RING_WINDOW)


def shots_program(num_shots=4, cost=0.05):
    """Awave-shaped program: read-only model, independent shot outputs."""
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


class TestFaultTolerantRuntime:
    def test_no_failures_matches_plain_semantics(self):
        prog, model, outputs = shots_program()
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST)
        res = rt.run(prog)
        assert res.failures == []
        assert res.reexecuted_tasks == 0
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)

    def test_failure_during_execution_recovers(self):
        prog, model, outputs = shots_program(cost=0.1)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST)
        # Kill a worker while shots are in flight (startup is 0, tasks
        # start ~immediately and run 100 ms).
        res = rt.run(prog, failures=[NodeFailure(time=0.05, node=1)])
        assert res.failures == [1]
        # Every shot still produced the right answer.
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)
        # At least one task needed a second attempt.
        assert max(res.task_attempts.values()) >= 2

    def test_failure_detected_by_heartbeat(self):
        prog, _, _ = shots_program(cost=0.1)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST)
        res = rt.run(prog, failures=[NodeFailure(time=0.03, node=2)])
        assert any(dead == 2 for dead, _by, _t in res.detections)

    def test_two_failures_survived(self):
        prog, model, outputs = shots_program(num_shots=6, cost=0.08)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=6), FAST)
        res = rt.run(
            prog,
            failures=[
                NodeFailure(time=0.02, node=1),
                NodeFailure(time=0.05, node=3),
            ],
        )
        assert sorted(res.failures) == [1, 3]
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)

    def test_lost_sole_copy_triggers_lineage_reexecution(self):
        # Producer writes on a worker; the consumer is gated behind a
        # long host task; the producer's node dies in between, so the
        # consumer must re-run the (idempotent) producer elsewhere.
        prog = OmpProgram()
        a = prog.buffer(64, data=np.zeros(8), name="a")
        b = prog.buffer(64, data=np.zeros(8), name="b")
        gate = prog.buffer(8, name="gate")

        def produce(x):
            x[:] = 1.0  # overwrites fully: safe to re-execute

        producer = prog.target(
            fn=produce, depend=[depend_out(a)], cost=0.02, name="producer",
        )
        prog.task(depend=[depend_out(gate)], cost=0.2, name="delay")
        prog.target(
            fn=lambda x, _g, y: np.copyto(y, x * 10.0),
            depend=[depend_in(a), depend_in(gate), depend_out(b)],
            cost=0.02, name="consumer",
        )
        prog.target_exit_data(a, b)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST)
        res = rt.run(prog)
        producer_node = res.schedule.assignment[producer.task_id]

        # Re-run with a failure of the producer's node after it finished
        # but before the consumer starts.
        prog2 = OmpProgram()
        a2 = prog2.buffer(64, data=np.zeros(8), name="a")
        b2 = prog2.buffer(64, data=np.zeros(8), name="b")
        gate2 = prog2.buffer(8, name="gate")
        prog2.target(fn=produce, depend=[depend_out(a2)], cost=0.02, name="producer")
        prog2.task(depend=[depend_out(gate2)], cost=0.2, name="delay")
        prog2.target(
            fn=lambda x, _g, y: np.copyto(y, x * 10.0),
            depend=[depend_in(a2), depend_in(gate2), depend_out(b2)],
            cost=0.02, name="consumer",
        )
        prog2.target_exit_data(a2, b2)
        res2 = FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST).run(
            prog2, failures=[NodeFailure(time=0.1, node=producer_node)]
        )
        assert res2.reexecuted_tasks >= 1
        np.testing.assert_allclose(b2.data, np.full(8, 10.0))

    def test_inplace_producer_loss_is_unrecoverable(self):
        # An INOUT producer rebuilds its output from its own previous
        # value; losing the sole copy is unrecoverable and must raise.
        prog = OmpProgram()
        a = prog.buffer(64, data=np.zeros(8), name="a")
        gate = prog.buffer(8, name="gate")
        prog.target(
            fn=lambda x: np.add(x, 1.0, out=x),
            depend=[depend_inout(a)], cost=0.02, name="producer",
        )
        prog.task(depend=[depend_out(gate)], cost=0.2, name="delay")
        prog.target(
            depend=[depend_in(a), depend_in(gate)], cost=0.02, name="consumer",
        )
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST)
        res = rt.run(prog)
        node = next(
            res.schedule.assignment[t.task_id]
            for t in prog.graph.tasks()
            if t.name == "producer"
        )
        prog2 = OmpProgram()
        a2 = prog2.buffer(64, data=np.zeros(8), name="a")
        gate2 = prog2.buffer(8, name="gate")
        prog2.target(
            fn=lambda x: np.add(x, 1.0, out=x),
            depend=[depend_inout(a2)], cost=0.02, name="producer",
        )
        prog2.task(depend=[depend_out(gate2)], cost=0.2, name="delay")
        prog2.target(
            depend=[depend_in(a2), depend_in(gate2)], cost=0.02, name="consumer",
        )
        with pytest.raises(RecoveryError, match="in-place producer"):
            FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST).run(
                prog2, failures=[NodeFailure(time=0.1, node=node)]
            )

    def test_makespan_overhead_of_recovery(self):
        prog, _, _ = shots_program(num_shots=4, cost=0.1)
        clean = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST).run(prog)
        prog2, _, _ = shots_program(num_shots=4, cost=0.1)
        failed = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST).run(
            prog2, failures=[NodeFailure(time=0.05, node=1)]
        )
        # Recovery re-runs work, so it costs time — but bounded (not a
        # full serial re-execution of everything).
        assert failed.makespan > clean.makespan
        assert failed.makespan < clean.makespan + 0.3

    def test_requires_two_workers(self):
        with pytest.raises(ValueError):
            FaultTolerantRuntime(ClusterSpec(num_nodes=2))

    def test_failures_accepts_any_sequence(self):
        prog, model, outputs = shots_program(cost=0.1)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST)
        res = rt.run(
            prog, failures=(f for f in [NodeFailure(time=0.05, node=1)])
        )
        assert res.failures == [1]
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)

    def test_all_workers_dead_raises(self):
        prog, _, _ = shots_program(num_shots=4, cost=0.2)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=3), FAST)
        with pytest.raises(RecoveryError, match="all worker nodes"):
            rt.run(prog, failures=[
                NodeFailure(time=0.02, node=1),
                NodeFailure(time=0.03, node=2),
            ])


class TestHeadCoreDriver:
    """FT runs on the plain runtime's head core: its phases, task frame,
    data plane and result, and the configs its guards do not cover."""

    def test_traced_run_has_phase_spans_and_one_frame_per_task(self):
        prog, _, _ = shots_program()
        res = FaultTolerantRuntime(
            ClusterSpec(num_nodes=5), OMPCConfig(trace=True)
        ).run(prog, failures=[NodeFailure(time=0.03, node=1)])
        for phase in ("startup", "task-creation", "heft", "shutdown"):
            assert len(list(res.obs.find("sched", phase))) == 1, phase
        waits = [s.name for s in res.obs.find("task")
                 if s.name.endswith(":wait-slot")]
        assert sorted(waits) == sorted(
            f"{t.name}:wait-slot" for t in prog.graph.tasks()
        )

    def test_traced_run_has_the_core_target_spans(self):
        prog, _, _ = shots_program()
        res = FaultTolerantRuntime(
            ClusterSpec(num_nodes=5), OMPCConfig(trace=True)
        ).run(prog)
        names = {s.name for s in res.obs.find("task")}
        for task in prog.target_tasks():
            for phase in ("fetch", "execute", "commit"):
                assert f"{task.name}:{phase}" in names

    def test_stale_copy_delete_to_a_dying_holder_is_dropped(self):
        """``bump``'s commit deletes the stale copies of ``x`` on nodes 1
        and 2; node 2 dies during its DELETE.  The delete is dropped:
        ``bump`` runs once and the outputs are exact."""
        prog = OmpProgram("stale-delete")
        x = prog.buffer(1024, data=np.zeros(4), name="x")
        a = prog.buffer(1024, data=np.zeros(4), name="a")
        prog.target_enter_data(x)
        prog.target(lambda s, o: np.copyto(o, s + 1.0),
                    depend=[depend_in(x), depend_out(a)], cost=1e-3,
                    name="ra")
        prog.target(lambda s: None, depend=[depend_in(x)], cost=1e-3,
                    name="rb")
        bump = prog.target(lambda s: np.add(s, 5.0, out=s),
                           depend=[depend_inout(x)], cost=1e-3, name="bump")
        prog.target_exit_data(x, a)
        cfg = OMPCConfig(trace=True)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=4), cfg)
        # 7 ms after startup lies inside the DELETE to node 2.
        res = run_to_horizon(rt, prog,
                             failures=[NodeFailure(time=7e-3, node=2)])
        assert {t.name: res.schedule.node_of(t) for t in prog.tasks
                if t.name in ("rb", "bump")} == {"rb": 2, "bump": 3}
        kill = cfg.startup_time + 7e-3
        deletes = [s for s in res.obs.find("data")
                   if s.name == "delete:x" and s.start <= kill <= s.end]
        assert len(deletes) == 1
        assert res.task_attempts[bump.task_id] == 1
        assert res.reexecuted_tasks == 0
        assert (x.data == 5.0).all() and (a.data == 1.0).all()

    def test_result_has_intervals_and_network_totals(self):
        prog, _, _ = shots_program()
        # FAST with the three phase costs put back.
        cfg = dataclasses.replace(FAST, startup_time=1e-3,
                                  shutdown_time=2e-3, schedule_unit_cost=1e-6)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg).run(prog)
        assert len(res.task_intervals) == len(list(prog.graph.tasks()))
        assert res.network_bytes > 0
        assert res.network_messages > 0
        assert res.startup_time == cfg.startup_time
        assert res.shutdown_time == cfg.shutdown_time
        assert res.scheduling_time == (
            prog.graph.num_edges * 4 * cfg.schedule_unit_cost)
        assert res.constant_overhead == (
            res.startup_time + res.shutdown_time + res.scheduling_time)

    def test_broadcast_events_rejected(self):
        with pytest.raises(ValueError, match="broadcast_events"):
            FaultTolerantRuntime(ClusterSpec(num_nodes=4),
                                 OMPCConfig(broadcast_events=True))

    def test_page_protect_rejected(self):
        with pytest.raises(ValueError, match="page_protect"):
            FaultTolerantRuntime(ClusterSpec(num_nodes=4),
                                 OMPCConfig(write_detection="page_protect"))

    def test_staging_through_head_rejected(self):
        with pytest.raises(ValueError, match="forwarding_enabled"):
            FaultTolerantRuntime(ClusterSpec(num_nodes=4),
                                 OMPCConfig(forwarding_enabled=False))


class TestHeartbeatLossHardening:
    def make_lossy_ring(self, plan, n=4, **kwargs):
        cluster = Cluster(ClusterSpec(num_nodes=n))
        plan.install(cluster)
        mpi = MpiWorld(cluster)
        events = EventSystem(cluster, mpi, FAST)
        events.start()
        ring = FailureDetector(cluster, mpi, events, **kwargs)
        return cluster, mpi, events, ring

    def test_lost_heartbeats_cleared_by_ping_not_declared(self):
        # Every heartbeat on the 2 -> 3 ring link is eaten, so node 3
        # repeatedly suspects node 2 — but node 2 answers the head's
        # pings, so it is never declared dead.
        plan = FaultPlan(losses=[LinkLoss(probability=1.0, src=2, dst=3)])
        cluster, mpi, events, ring = self.make_lossy_ring(plan)
        ring.start()

        def stopper():
            yield cluster.sim.timeout(0.08)
            ring.stop()

        cluster.sim.process(stopper())
        cluster.sim.run(until=0.2)
        assert ring.detections == []
        assert ring.false_positives == 0
        assert ring.suspicions_cleared >= 1

    def test_missed_windows_do_not_leak_receives(self):
        # Each missed window must withdraw its unmatched irecv; before
        # the fix every miss left a stale getter on node 3's queue.
        plan = FaultPlan(losses=[LinkLoss(probability=1.0, src=2, dst=3)])
        cluster, mpi, events, ring = self.make_lossy_ring(plan)
        ring.start()

        def stopper():
            yield cluster.sim.timeout(0.08)
            ring.stop()

        cluster.sim.process(stopper())
        cluster.sim.run(until=0.2)
        store = mpi._queues.get((3, ring.comm.comm_id))
        # Only the live window's receive: one pending, one bucket entry
        # (a store left with neither has been dropped).
        pending = store._pending if store is not None else {}
        buckets = store._buckets if store is not None else {}
        assert len(pending) <= 1
        assert sum(len(b) for b in buckets.values()) <= 1

    def test_real_failure_still_detected_under_loss(self):
        plan = FaultPlan(seed=2, losses=[LinkLoss(probability=0.2)])
        cluster, mpi, events, ring = self.make_lossy_ring(plan)
        ring.start()

        def fail_later():
            yield cluster.sim.timeout(0.02)
            events.fail_node(2)
            yield cluster.sim.timeout(0.1)
            ring.stop()

        cluster.sim.process(fail_later())
        cluster.sim.run(until=0.3)
        assert any(dead == 2 for dead, _by, _t in ring.detections)
        assert ring.false_positives == 0


class TestTransientFaults:
    def run_shots(self, plan=None, config=FAST, failures=(), num_shots=4,
                  cost=0.05, nodes=5):
        prog, model, outputs = shots_program(num_shots, cost)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=nodes), config)
        res = rt.run(prog, failures=failures, fault_plan=plan)
        return res, model, outputs

    def test_lossy_run_bit_identical_to_lossless(self):
        clean, model, clean_out = self.run_shots()
        plan = FaultPlan(seed=11, losses=[LinkLoss(probability=0.05)])
        lossy, _, out = self.run_shots(plan=plan)
        for a, b in zip(clean_out, out):
            assert np.array_equal(a, b)  # bit-identical numerics
            np.testing.assert_allclose(b, model * 2.0)
        assert lossy.makespan >= clean.makespan
        assert lossy.transport["drops"] >= 1
        assert lossy.counters["faults.dropped_messages"] == (
            lossy.transport["drops"]
        )
        assert lossy.failures == []
        assert lossy.false_positive_detections == 0

    def test_same_seed_same_makespan(self):
        a, _, _ = self.run_shots(
            plan=FaultPlan(seed=11, losses=[LinkLoss(probability=0.05)])
        )
        b, _, _ = self.run_shots(
            plan=FaultPlan(seed=11, losses=[LinkLoss(probability=0.05)])
        )
        assert a.makespan == b.makespan
        assert a.transport == b.transport

    def test_degraded_but_alive_node_not_declared_dead(self):
        # Node 2 sits behind a lossy, slow link and even hangs briefly —
        # pure transients, zero failures: nothing may be declared dead.
        plan = FaultPlan(
            seed=3,
            losses=[LinkLoss(probability=0.25, dst=2),
                    LinkLoss(probability=0.25, src=2)],
            degradations=[LinkDegradation(start=0.0, end=1.0,
                                          latency_factor=5.0,
                                          bandwidth_factor=0.5, dst=2)],
            hangs=[NodeHang(node=2, start=0.02, duration=0.0008)],
        )
        res, model, outputs = self.run_shots(plan=plan)
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)
        assert res.detections == []
        assert res.failures == []
        assert res.false_positive_detections == 0

    def test_fail_stop_under_loss_detected_and_recovered(self):
        plan = FaultPlan(seed=4, losses=[LinkLoss(probability=0.05)])
        res, model, outputs = self.run_shots(
            plan=plan, cost=0.1,
            failures=[NodeFailure(time=0.03, node=2)],
        )
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)
        assert 2 in res.failures
        assert any(dead == 2 for dead, _by, _t in res.detections)
        assert res.false_negative_detections == 0


def inout_chain_program():
    """a is produced in place (INOUT): unrecoverable without checkpoints."""
    prog = OmpProgram()
    a = prog.buffer(64, data=np.zeros(8), name="a")
    gate = prog.buffer(8, name="gate")
    b = prog.buffer(64, data=np.zeros(8), name="b")
    prog.target(
        fn=lambda x: np.add(x, 1.0, out=x),
        depend=[depend_inout(a)], cost=0.02, name="producer",
    )
    prog.task(depend=[depend_out(gate)], cost=0.2, name="delay")
    prog.target(
        fn=lambda x, _g, y: np.copyto(y, x * 10.0),
        depend=[depend_in(a), depend_in(gate), depend_out(b)],
        cost=0.02, name="consumer",
    )
    prog.target_exit_data(a, b)
    return prog, a, b


class TestCheckpointRecovery:
    CKPT = dataclasses.replace(FAST, checkpoint_interval=0.03)

    def producer_node(self, make_prog):
        prog = make_prog()[0]
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST).run(prog)
        return next(
            res.schedule.assignment[t.task_id]
            for t in prog.graph.tasks()
            if t.name == "producer"
        )

    def test_inplace_producer_recovers_with_checkpointing(self):
        node = self.producer_node(inout_chain_program)
        prog, a, b = inout_chain_program()
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=4), self.CKPT).run(
            prog, failures=[NodeFailure(time=0.1, node=node)]
        )
        assert res.checkpoints_taken >= 1
        assert res.checkpoint_restores >= 1
        np.testing.assert_allclose(a.data, np.ones(8))
        np.testing.assert_allclose(b.data, np.full(8, 10.0))

    def test_checkpointing_off_still_raises(self):
        # The seed contract survives: with checkpointing disabled the
        # in-place producer's loss stays unrecoverable.
        node = self.producer_node(inout_chain_program)
        prog, _a, _b = inout_chain_program()
        with pytest.raises(RecoveryError, match="in-place producer"):
            FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST).run(
                prog, failures=[NodeFailure(time=0.1, node=node)]
            )

    def test_stale_checkpoint_replays_producer_on_restored_bytes(self):
        # t1 writes a, the checkpoint snapshots that version, then an
        # INOUT t2 bumps a on the node before it dies: recovery must
        # restore the stale snapshot and re-run t2 on top of it.
        def make_prog():
            prog = OmpProgram()
            a = prog.buffer(64, data=np.zeros(8), name="a")
            gate = prog.buffer(8, name="gate")
            b = prog.buffer(64, data=np.zeros(8), name="b")
            prog.target(
                fn=lambda x: np.copyto(x, 1.0),
                depend=[depend_out(a)], cost=0.02, name="producer",
            )
            prog.target(
                fn=lambda x: np.add(x, 1.0, out=x),
                depend=[depend_inout(a)], cost=0.05, name="bumper",
            )
            prog.task(depend=[depend_out(gate)], cost=0.25, name="delay")
            prog.target(
                fn=lambda x, _g, y: np.copyto(y, x * 10.0),
                depend=[depend_in(a), depend_in(gate), depend_out(b)],
                cost=0.02, name="consumer",
            )
            prog.target_exit_data(a, b)
            return prog, a, b

        prog0 = make_prog()[0]
        res0 = FaultTolerantRuntime(ClusterSpec(num_nodes=4), FAST).run(prog0)
        node = next(
            res0.schedule.assignment[t.task_id]
            for t in prog0.graph.tasks()
            if t.name == "bumper"
        )
        prog, a, b = make_prog()
        # Checkpoint fires at t=0.03 (snapshot of a after `producer`,
        # while `bumper` is still running); the node dies at 0.08,
        # before the next checkpoint would capture bumper's version.
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=4), self.CKPT).run(
            prog, failures=[NodeFailure(time=0.08, node=node)]
        )
        assert res.checkpoint_restores >= 1
        assert res.reexecuted_tasks >= 1
        np.testing.assert_allclose(a.data, np.full(8, 2.0))
        np.testing.assert_allclose(b.data, np.full(8, 20.0))

    def test_multi_failure_cascade_with_checkpoints(self):
        prog, model, outputs = shots_program(num_shots=6, cost=0.08)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=6), self.CKPT).run(
            prog,
            failures=[NodeFailure(time=0.02, node=1),
                      NodeFailure(time=0.05, node=3)],
        )
        assert sorted(res.failures) == [1, 3]
        for out in outputs:
            np.testing.assert_allclose(out, model * 2.0)

    def test_no_checkpoints_taken_when_disabled(self):
        prog, _, _ = shots_program()
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST).run(prog)
        assert res.checkpoints_taken == 0
        assert res.checkpoint_restores == 0


class TestStragglerMitigation:
    SPEC = dataclasses.replace(FAST, straggler_factor=3.0)
    STALL = FaultPlan(
        seed=1, stalls=[NodeStall(node=1, start=0.0, end=10.0, factor=0.05)]
    )

    def test_speculation_rescues_stalled_node(self):
        prog, model, outputs = shots_program(cost=0.05)
        slow = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST).run(
            prog, fault_plan=self.STALL
        )
        prog2, _, outputs2 = shots_program(cost=0.05)
        fast = FaultTolerantRuntime(ClusterSpec(num_nodes=5), self.SPEC).run(
            prog2, fault_plan=FaultPlan(
                seed=1,
                stalls=[NodeStall(node=1, start=0.0, end=10.0, factor=0.05)],
            )
        )
        assert fast.speculative_attempts >= 1
        assert fast.speculation_wins >= 1
        assert fast.makespan < slow.makespan
        for out in outputs2:
            np.testing.assert_allclose(out, model * 2.0)

    def test_disabled_by_default(self):
        prog, _, _ = shots_program(cost=0.05)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), FAST).run(
            prog, fault_plan=self.STALL
        )
        assert res.speculative_attempts == 0

    def test_inout_tasks_not_eligible(self):
        # The only slow task writes in place; double execution would not
        # be idempotent, so speculation must leave it alone.
        prog = OmpProgram()
        a = prog.buffer(64, data=np.zeros(8), name="a")
        prog.target_enter_data(a)
        prog.target(
            fn=lambda x: np.add(x, 1.0, out=x),
            depend=[depend_inout(a)], cost=0.05, name="bump",
        )
        prog.target_exit_data(a)
        res = FaultTolerantRuntime(ClusterSpec(num_nodes=5), self.SPEC).run(
            prog, fault_plan=self.STALL
        )
        assert res.speculative_attempts == 0
        np.testing.assert_allclose(a.data, np.ones(8))
