"""Tests for the JobManager: admission, isolation, faults, telemetry."""

import dataclasses

import pytest

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core import FaultPlan, LinkLoss, NodeFailure, OMPCConfig
from repro.core.memory import DeviceMemoryError
from repro.core.runtime import OMPCRuntime
from repro.jobs import JobManager, JobSpec, JobState
from repro.jobs.workload import _taskbench_job
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

from tests.obs.test_counter_tier import _stencil


def tb_job(name, nodes, tenant="t", task_seconds=0.01, steps=2, **kw):
    return _taskbench_job(name, tenant, nodes, width=nodes - 1,
                          steps=steps, task_seconds=task_seconds, **kw)


def ft_job(name, nodes, failures, steps=9, task_seconds=0.05,
           max_attempts=2):
    spec = TaskBenchSpec(
        width=nodes - 1, steps=steps, pattern=Pattern.STENCIL_1D,
        kernel=KernelSpec(iterations=max(1, round(task_seconds / 5e-9))),
    )
    return JobSpec(
        name=name,
        program=lambda: build_omp_program(spec),
        nodes=nodes,
        fault_tolerant=True,
        failures=failures,
        max_attempts=max_attempts,
    )


def manager(nodes=10, policy="fifo"):
    return JobManager(Cluster(ClusterSpec(num_nodes=nodes)), policy=policy)


class TestLifecycle:
    def test_single_job_completes(self):
        mgr = manager()
        report = mgr.run([(0.0, tb_job("solo", 3))])
        assert report.completed == 1
        job = mgr.jobs[0]
        assert job.state is JobState.COMPLETED
        assert job.partition == (1, 2, 3)
        assert job.result.makespan > 0
        assert report.utilization > 0

    def test_concurrent_jobs_space_shared(self):
        mgr = manager(nodes=10)
        report = mgr.run([
            (0.0, tb_job("a", 4)),
            (0.0, tb_job("b", 4)),
        ])
        assert report.completed == 2
        a, b = mgr.jobs
        # Same arrival, enough nodes: both start immediately, disjoint.
        assert a.start_time == b.start_time == 0.0
        assert not set(a.partition) & set(b.partition)

    def test_queueing_when_full(self):
        mgr = manager(nodes=6)  # 5-node pool
        report = mgr.run([
            (0.0, tb_job("first", 4)),
            (0.0, tb_job("second", 4)),
        ])
        assert report.completed == 2
        first, second = mgr.jobs
        assert second.start_time >= first.finish_time
        assert second.wait_time > 0

    def test_oversized_submit_rejected(self):
        mgr = manager(nodes=5)
        with pytest.raises(ValueError, match="only has 4"):
            mgr.submit(tb_job("huge", 6))

    def test_rejected_config_fails_only_its_job(self):
        # The plain runtime never reads checkpoint_interval; its
        # construction error fails that job and the other tenant runs.
        bad = dataclasses.replace(
            tb_job("bad", 3, tenant="a"),
            config=OMPCConfig(checkpoint_interval=0.05),
        )
        mgr = manager(nodes=8)
        report = mgr.run([(0.0, bad), (0.0, tb_job("good", 3, tenant="b"))])
        rejected, good = mgr.jobs
        assert rejected.state is JobState.FAILED
        assert "config rejected" in rejected.error
        assert "checkpoint_interval" in rejected.error
        assert "FaultTolerantRuntime" in rejected.error
        assert good.state is JobState.COMPLETED
        assert report.completed == 1 and report.failed == 1
        assert mgr.pool.held_count == 0

    def test_a_failing_tenant_fails_alone(self):
        # "bad" overflows a worker's device memory: the worker-side
        # DeviceMemoryError fails that job only, not the simulator.
        def bad_program():
            return _stencil(4, 2)

        bad = JobSpec("bad", bad_program, nodes=3,
                      config=OMPCConfig(device_memory_bytes=100 * 1024))
        mgr = manager(nodes=8)
        mgr.run([(0.0, bad), (0.0, tb_job("good", 3))])
        failed, good = mgr.jobs
        assert failed.state is JobState.FAILED
        assert "p3g0" in failed.error
        assert good.state is JobState.COMPLETED
        assert mgr.pool.held_count == 0
        # Run on its own, the same program still raises.
        with pytest.raises(DeviceMemoryError, match="p3g0"):
            OMPCRuntime(ClusterSpec(num_nodes=3), bad.config).run(
                bad_program())

    def test_rerun_accumulates(self):
        mgr = manager()
        mgr.run([(0.0, tb_job("one", 3))])
        report = mgr.run([(None and 0.0 or mgr.sim.now, tb_job("two", 3))])
        assert report.total_jobs == 2
        assert report.completed == 2


class TestTelemetry:
    def test_analysis_runs_on_the_job_view_only(self):
        cluster = Cluster(ClusterSpec(num_nodes=5))
        mgr = JobManager(cluster, default_config=OMPCConfig(analysis=True))
        report = mgr.run([(0.0, tb_job("checked", 4))])
        assert report.completed == 1
        assert len(mgr.jobs[0].result.analysis) == 0
        assert not cluster.analysis.enabled

    def test_report_metrics(self):
        mgr = manager(nodes=6)
        report = mgr.run([
            (0.0, tb_job("a", 4, tenant="alice")),
            (0.0, tb_job("b", 4, tenant="bob")),
        ])
        assert report.policy == "fifo"
        assert report.pool_nodes == 5
        assert 0 < report.utilization <= 1.0
        assert report.queue_depth_max >= 1
        assert report.counters["jobs.submitted"] == 2
        assert report.counters["jobs.completed"] == 2
        rec = {r.name: r for r in report.records}
        assert rec["b"].slowdown > 1.0
        assert rec["b"].bounded_slowdown >= 1.0
        # Tenant accounting: both tenants were charged node-seconds.
        assert mgr.tenant_usage["alice"] > 0
        assert mgr.tenant_usage["bob"] > 0

    def test_job_spans_recorded(self):
        mgr = manager()
        mgr.run([(0.0, tb_job("traced", 3))])
        spans = [s for s in mgr.obs.spans if s.cat == "job"]
        names = {s.name for s in spans}
        assert "traced:queued" in names
        assert "traced:run" in names


class TestFaults:
    def test_worker_crash_resumed_in_place(self):
        mgr = manager(nodes=10)
        report = mgr.run([
            (0.0, ft_job("victim", 4,
                         failures=(NodeFailure(time=0.005, node=2),))),
            (0.0, tb_job("bystander", 3)),
        ])
        assert report.completed == 2
        victim = mgr.jobs[0]
        # In-place recovery: no requeue, the FT runtime rode it out.
        assert victim.state is JobState.COMPLETED
        assert victim.requeues == 0
        assert victim.result.failures == [2]
        # The dead physical node (virtual 2 -> physical 3) left the pool.
        assert mgr.pool.capacity == 8
        assert 3 not in mgr.pool.free_nodes()

    def test_head_crash_requeued_on_fresh_nodes(self):
        mgr = manager(nodes=10)
        report = mgr.run([
            (0.0, ft_job("doomed", 4,
                         failures=(NodeFailure(time=0.005, node=0),))),
            (0.0, tb_job("bystander", 3)),
        ])
        assert report.completed == 2
        assert report.requeued == 1
        doomed = mgr.jobs[0]
        assert doomed.state is JobState.COMPLETED
        assert doomed.attempts == 2
        # Attempt 1 held (1,2,3,4) and its head (physical 1) died; the
        # retry must avoid the retired node and carry no stale failures.
        assert 1 not in doomed.partition
        assert doomed.pending_failures == ()
        assert mgr.pool.capacity == 8
        # The bystander on a disjoint partition never noticed.
        assert mgr.jobs[1].state is JobState.COMPLETED
        assert mgr.jobs[1].requeues == 0

    def test_gives_up_after_max_attempts(self):
        mgr = manager(nodes=10)
        report = mgr.run([
            (0.0, ft_job("hopeless", 4, max_attempts=1,
                         failures=(NodeFailure(time=0.005, node=0),))),
        ])
        assert report.failed == 1
        job = mgr.jobs[0]
        assert job.state is JobState.FAILED
        assert job.attempts == 1
        assert "gave up after 1 attempts" in job.error

    def test_lossy_fabric_finishes_ft_and_plain_jobs(self):
        # Jobs see the machine's fault plan through their view: a lossy
        # fabric turns on the reliable transport for both runtimes.
        cluster = Cluster(ClusterSpec(num_nodes=9))
        FaultPlan(seed=3, losses=(LinkLoss(probability=0.05),)).install(
            cluster)
        mgr = JobManager(cluster)
        report = mgr.run([
            (0.0, ft_job("ft", 4, failures=())),
            (0.0, tb_job("plain", 4)),
        ])
        assert report.completed == 2
        assert [job.state for job in mgr.jobs] == [JobState.COMPLETED] * 2
        assert cluster.faults.dropped_messages > 0

    def test_shrunken_pool_fails_unsatisfiable_jobs(self):
        # 5-node pool, 5-node job: the head-crash retires one node, so
        # the requeued retry can never fit again -> FAILED, not hung.
        mgr = manager(nodes=6)
        report = mgr.run([
            (0.0, ft_job("shrinker", 5, max_attempts=3,
                         failures=(NodeFailure(time=0.005, node=0),))),
        ])
        job = mgr.jobs[0]
        assert job.state is JobState.FAILED
        assert "pool shrank" in job.error
        assert report.failed == 1
