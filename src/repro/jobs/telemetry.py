"""Cluster-level telemetry for multi-tenant runs.

The :func:`build_report` snapshot turns a
:class:`~repro.jobs.manager.JobManager`'s state into the standard
batch-scheduling numbers: per-job turnaround/wait/slowdown rows, the
queue-depth profile (from the ``jobs.queue_depth`` gauge the manager
maintains), and cluster utilization — busy node-seconds over the pool's
node-seconds across the makespan horizon.  These are the quantities the
backfill ablation compares across admission policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jobs.job import Job, JobState


@dataclass(frozen=True)
class JobRecord:
    """One job's immutable summary row."""

    job_id: int
    name: str
    tenant: str
    nodes: int
    state: str
    submit_time: float
    start_time: float | None
    finish_time: float | None
    wait_time: float | None
    run_time: float | None
    turnaround: float | None
    slowdown: float | None
    bounded_slowdown: float | None
    backfilled: bool
    requeues: int
    attempts: int
    error: str | None = None


@dataclass(frozen=True)
class JobsReport:
    """Aggregate view of everything the manager scheduled."""

    records: tuple[JobRecord, ...]
    policy: str
    #: First submission → last terminal event (the scheduling horizon).
    horizon: float
    #: Allocatable worker nodes at report time (retired nodes excluded).
    pool_nodes: int
    #: Busy node-seconds / (pool_nodes × horizon) — space-shared
    #: cluster utilization.
    utilization: float
    queue_depth_avg: float
    queue_depth_max: float
    mean_wait: float
    mean_turnaround: float
    mean_slowdown: float
    mean_bounded_slowdown: float
    #: Completed jobs per simulated second of horizon.
    throughput: float
    completed: int
    failed: int
    requeued: int
    backfilled: int
    #: Overload-protection outcomes (all zero for the base manager).
    shed: int = 0
    dead_lettered: int = 0
    preempted: int = 0
    #: Jobs not yet terminal at report time (accounting identity:
    #: completed + failed + shed + dead_lettered + running == total).
    running: int = 0
    #: Nearest-rank p99 of completed jobs' bounded slowdown.
    p99_bounded_slowdown: float = 0.0
    #: Configured p99 bounded-slowdown SLO (inf/None when unset).
    slo_bounded_slowdown: float | None = None
    #: Fraction of *admitted, finished* jobs within the SLO bound.
    slo_attainment: float = 1.0
    shed_fraction: float = 0.0
    dead_letter_fraction: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def total_jobs(self) -> int:
        return len(self.records)

    @property
    def accounted(self) -> int:
        """Every submitted job lands in exactly one bucket; this must
        always equal :attr:`total_jobs` (the no-silent-loss identity)."""
        return (self.completed + self.failed + self.shed
                + self.dead_lettered + self.running)


def _record(job: Job, tau: float) -> JobRecord:
    return JobRecord(
        job_id=job.job_id,
        name=job.spec.name,
        tenant=job.spec.tenant,
        nodes=job.spec.nodes,
        state=job.state.value,
        submit_time=job.submit_time,
        start_time=job.start_time,
        finish_time=job.finish_time,
        wait_time=job.wait_time,
        run_time=job.run_time,
        turnaround=job.turnaround,
        slowdown=job.slowdown,
        bounded_slowdown=job.bounded_slowdown(tau),
        backfilled=job.backfilled,
        requeues=job.requeues,
        attempts=job.attempts,
        error=job.error,
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile (exact, deterministic)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * 99 // 100))  # ceil(0.99 n)
    return ordered[rank - 1]


def build_report(manager) -> JobsReport:
    """Snapshot the manager's telemetry (see :class:`JobsReport`)."""
    tau = manager.slowdown_tau
    records = tuple(_record(job, tau) for job in manager.jobs)
    t0 = manager._first_submit if manager._first_submit is not None else 0.0
    ends = [r.finish_time for r in records if r.finish_time is not None]
    t1 = max(ends) if ends else manager.sim.now
    horizon = max(t1 - t0, 0.0)
    pool_nodes = manager.pool.capacity
    # An elastic pool's size varies over the run; utilization divides
    # by the time-averaged online capacity (the autoscaler maintains
    # the gauge), falling back to the final capacity for static pools.
    online = manager.obs.metrics.gauges.get("jobs.pool_online")
    avg_nodes = online.time_average(t0, t1) if online is not None else 0.0
    denom = (avg_nodes if avg_nodes > 0 else pool_nodes) * horizon
    utilization = manager.busy_node_seconds / denom if denom > 0 else 0.0

    depth = manager.obs.metrics.gauges.get("jobs.queue_depth")
    queue_avg = depth.time_average(t0, t1) if depth is not None else 0.0
    queue_max = depth.maximum() if depth is not None else 0.0

    completed = [r for r in records if r.state == JobState.COMPLETED.value]
    failed = [r for r in records if r.state == JobState.FAILED.value]
    shed = [r for r in records if r.state == JobState.SHED.value]
    dead = [r for r in records if r.state == JobState.DEAD_LETTERED.value]
    running = [
        r for r in records
        if r.state in (JobState.PENDING.value, JobState.RUNNING.value)
    ]
    counters = {
        name: value
        for name, value in manager.obs.counters.items()
        if name.startswith("jobs.")
    }

    slowdowns = [r.bounded_slowdown for r in completed
                 if r.bounded_slowdown is not None]
    p99 = _p99(slowdowns)
    slo = getattr(manager, "slo_bounded_slowdown", None)
    if slo is not None and slo != float("inf") and slowdowns:
        attainment = sum(1 for s in slowdowns if s <= slo) / len(slowdowns)
    else:
        attainment = 1.0
    total = len(records)
    return JobsReport(
        records=records,
        policy=manager.policy.name,
        horizon=horizon,
        pool_nodes=pool_nodes,
        utilization=utilization,
        queue_depth_avg=queue_avg,
        queue_depth_max=queue_max,
        mean_wait=_mean([r.wait_time for r in completed
                         if r.wait_time is not None]),
        mean_turnaround=_mean([r.turnaround for r in completed
                               if r.turnaround is not None]),
        mean_slowdown=_mean([r.slowdown for r in completed
                             if r.slowdown is not None]),
        mean_bounded_slowdown=_mean([r.bounded_slowdown for r in completed
                                     if r.bounded_slowdown is not None]),
        throughput=len(completed) / horizon if horizon > 0 else 0.0,
        completed=len(completed),
        failed=len(failed),
        requeued=sum(r.requeues for r in records),
        backfilled=sum(1 for r in records if r.backfilled),
        shed=len(shed),
        dead_lettered=len(dead),
        preempted=int(counters.get("jobs.preempted", 0)),
        running=len(running),
        p99_bounded_slowdown=p99,
        slo_bounded_slowdown=(
            None if slo is None or slo == float("inf") else slo
        ),
        slo_attainment=attainment,
        shed_fraction=len(shed) / total if total else 0.0,
        dead_letter_fraction=len(dead) / total if total else 0.0,
        counters=counters,
    )


def format_jobs_report(report: JobsReport, per_job: bool = True) -> str:
    """Human-readable report (summary block plus optional per-job table)."""
    from repro.bench.report import format_table

    lines = [
        f"policy={report.policy}  jobs={report.total_jobs} "
        f"(completed={report.completed} failed={report.failed} "
        f"requeued={report.requeued} backfilled={report.backfilled})",
    ]
    if report.shed or report.dead_lettered or report.preempted:
        slo = ("—" if report.slo_bounded_slowdown is None
               else f"{report.slo_bounded_slowdown:g}")
        lines.append(
            f"overload: shed={report.shed} "
            f"({report.shed_fraction * 100:.1f}%) "
            f"dead-lettered={report.dead_lettered} "
            f"({report.dead_letter_fraction * 100:.1f}%) "
            f"preemptions={report.preempted} — "
            f"p99 b.slowdown {report.p99_bounded_slowdown:.2f} "
            f"(SLO {slo}, attainment {report.slo_attainment * 100:.1f}%)"
        )
    lines += [
        f"horizon {report.horizon:.4f} s on {report.pool_nodes} nodes — "
        f"utilization {report.utilization * 100:.1f}%, "
        f"throughput {report.throughput:.2f} jobs/s",
        f"queue depth avg {report.queue_depth_avg:.2f} "
        f"max {report.queue_depth_max:.0f}",
        f"mean wait {report.mean_wait:.4f} s, "
        f"turnaround {report.mean_turnaround:.4f} s, "
        f"slowdown {report.mean_slowdown:.2f}, "
        f"bounded slowdown {report.mean_bounded_slowdown:.2f}",
    ]
    if per_job:
        rows = []
        for r in report.records:
            rows.append([
                r.job_id, r.name, r.tenant, r.nodes, r.state,
                f"{r.submit_time:.4f}",
                "—" if r.wait_time is None else f"{r.wait_time:.4f}",
                "—" if r.run_time is None else f"{r.run_time:.4f}",
                "—" if r.bounded_slowdown is None
                else f"{r.bounded_slowdown:.2f}",
                "bf" if r.backfilled else "",
            ])
        lines.append(format_table(
            ["id", "job", "tenant", "nodes", "state", "submit",
             "wait (s)", "run (s)", "b.slowdown", ""],
            rows,
            title=f"per-job schedule ({report.policy})",
        ))
    return "\n".join(lines)
