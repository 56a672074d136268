"""A job's run ends with it: no process of an ended run stays alive.

The job manager drives many runs in one simulator.  A run that
finishes, is preempted or crashes closes every process it started, so
the simulator holds none of its frames or services, and nothing of its
head state (``FTHead``, head log, replicas) outlives it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core import NodeFailure, OMPCConfig
from repro.core.faults import FTHead
from repro.jobs import ElasticConfig, ElasticJobManager, JobManager, JobSpec
from repro.sim.core import Process
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program
from repro.util.units import MILLISECOND

from tests.jobs.test_manager import ft_job, tb_job


def _track(mp, cls, ref=weakref.ref) -> list:
    """Record a reference (weak by default) to every ``cls`` built from
    now on."""
    refs: list = []

    def init(self, *args, _orig=cls.__init__, **kwargs):
        _orig(self, *args, **kwargs)
        refs.append(ref(self))

    mp.setattr(cls, "__init__", init)
    return refs


def _processes(mp) -> list:
    """Every process built from now on (processes take no weak
    reference; an ended one holds no frame)."""
    return _track(mp, Process, ref=lambda proc: proc)


def _alive(refs) -> list:
    gc.collect()
    return [obj for obj in (ref() for ref in refs) if obj is not None]


def _replicated_job(name: str) -> JobSpec:
    spec = TaskBenchSpec(width=3, steps=3, pattern=Pattern.STENCIL_1D,
                         kernel=KernelSpec.from_duration(0.002))
    return JobSpec(name=name, program=lambda: build_omp_program(spec),
                   nodes=4, fault_tolerant=True,
                   config=OMPCConfig(head_standbys=1))


def test_replicated_jobs_leave_no_log_service_or_head():
    with pytest.MonkeyPatch.context() as mp:
        procs, heads = _processes(mp), _track(mp, FTHead)
        mgr = JobManager(Cluster(ClusterSpec(num_nodes=9)))
        report = mgr.run([(0.0, _replicated_job(f"ft{i}"))
                          for i in range(20)])
    assert report.completed == 20
    assert len(heads) == 20
    assert not [p.name for p in procs
                if p.is_alive and p.name.startswith("repl-")]
    assert _alive(heads) == []


def _frames(procs) -> list[str]:
    return [p.name for p in procs if p.is_alive
            and p.name.startswith(("ft-op", "task:", "ft-task:"))]


def test_preempted_job_leaves_no_frame():
    # The urgent job evicts the batch job with its frames in flight.
    with pytest.MonkeyPatch.context() as mp:
        procs = _processes(mp)
        mgr = ElasticJobManager(
            Cluster(ClusterSpec(num_nodes=5)),
            elastic=ElasticConfig(autoscale=False, max_preemptions=5),
        )
        report = mgr.run([
            (0.0, tb_job("batch", 4, task_seconds=0.01, steps=6,
                         preemptible=True)),
            (0.02, tb_job("urgent", 4, priority=10)),
        ])
    assert report.completed == 2
    assert mgr.jobs[0].preemptions == 1
    assert _frames(procs) == []


def test_crashed_job_leaves_no_frame():
    # No standby: the head's death is unrecoverable, so the job crashes
    # with frames and operations in flight.
    with pytest.MonkeyPatch.context() as mp:
        procs = _processes(mp)
        mgr = JobManager(Cluster(ClusterSpec(num_nodes=10)))
        report = mgr.run([
            (0.0, ft_job("hopeless", 4, max_attempts=1, failures=(
                NodeFailure(time=5 * MILLISECOND, node=0),))),
        ])
    assert report.failed == 1
    assert "gave up" in mgr.jobs[0].error
    assert _frames(procs) == []
