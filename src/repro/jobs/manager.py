"""The multi-tenant job manager: one cluster, many OMPC applications.

The :class:`JobManager` is the workload-manager layer the paper's
single-application runtime lacks: it owns one simulated
:class:`~repro.cluster.machine.Cluster` (physical node 0 is the login/
manager node), admits a stream of :class:`~repro.jobs.job.JobSpec`
submissions through a pluggable :mod:`policy <repro.jobs.policies>`,
carves space-shared partitions out of the worker pool, and runs each
job on its own isolated runtime instance — private head node (the
partition's virtual node 0), private MPI world (communicators and tag
space), private device-memory tables and trace recorder — via
:class:`~repro.cluster.partition.ClusterView`.

Fault interaction: a job submitted with injected ``failures`` (or
``fault_tolerant=True``) runs on the
:class:`~repro.core.faults.FaultTolerantRuntime`, so a partition losing
a node is first *resumed in place* by the existing checkpoint/failover
machinery; if recovery is impossible (``RecoveryError``) the dead nodes
are retired from the pool and the job is requeued on fresh nodes, up to
``max_attempts``.  Either way the cluster keeps serving every other
tenant.

All scheduling decisions happen instantaneously at queue-change
instants (arrival, completion, requeue) and iterate deterministic data
structures, so a seeded workload replays to an identical schedule.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.cluster.machine import Cluster
from repro.cluster.partition import ClusterView, NodePool
from repro.core.config import OMPCConfig
from repro.core.faults import (
    ClusterExhausted,
    FaultTolerantRuntime,
    RecoveryError,
)
from repro.core.runtime import OMPCRuntime
from repro.jobs.job import Job, JobSpec, JobState
from repro.jobs.policies import AdmissionPolicy, make_policy
from repro.jobs.telemetry import JobsReport, build_report
from repro.obs.observer import Observer
from repro.sim.errors import Interrupt, SimulationError


class JobManager:
    """Admission, placement, and execution of concurrent OMPC jobs."""

    def __init__(
        self,
        cluster: Cluster,
        policy: "str | AdmissionPolicy" = "fifo",
        default_config: OMPCConfig | None = None,
        slowdown_tau: float = 1e-3,
    ):
        if cluster.num_nodes < 3:
            raise ValueError(
                "a multi-tenant cluster needs >= 3 nodes: one manager "
                "node plus at least a 2-node partition"
            )
        self.cluster = cluster
        self.sim = cluster.sim
        self.policy = make_policy(policy)
        self.default_config = default_config or OMPCConfig()
        #: Bounded-slowdown clamp (seconds) for the report metrics.
        self.slowdown_tau = slowdown_tau
        #: Physical node 0 is the login/manager node; jobs get workers.
        self.pool = self._make_pool(cluster)
        #: Every job ever submitted, in submission order.
        self.jobs: list[Job] = []
        #: Jobs waiting for nodes (arrival order; policies re-sort).
        self.queue: list[Job] = []
        #: Currently executing jobs by id.
        self.running: dict[int, Job] = {}
        #: Accumulated node-seconds per tenant (fair-share input).
        self.tenant_usage: dict[str, float] = {}
        #: Cluster-level telemetry: job spans, queue-depth gauge,
        #: busy-node gauge, admission counters.  Shares the cluster's
        #: observer when it is traced so the jobs section lands in the
        #: same utilization report; otherwise records privately.
        self.obs = cluster.obs if cluster.obs.enabled else Observer(self.sim)
        self._ids = itertools.count()
        self._queued_spans: dict[int, object] = {}
        self._busy_node_seconds = 0.0
        self._first_submit: float | None = None
        self._drained = None
        #: Runtime main process per running job (preemption handle).
        self._procs: dict[int, object] = {}
        #: The largest partition the pool could ever offer; submissions
        #: beyond it are programming errors, rejected synchronously.
        self._max_partition = self.pool.potential_capacity

    # ------------------------------------------------------------------
    # subclass hooks (the elastic manager overrides these)
    # ------------------------------------------------------------------
    def _make_pool(self, cluster: Cluster) -> NodePool:
        """Build the worker pool (physical node 0 stays reserved)."""
        return NodePool(cluster, reserved=(0,))

    def _admit(self, job: Job) -> str | None:
        """Admission control at arrival: return a shed-reason string to
        reject the job, or None to let it into the queue.  The base
        manager admits everything (unbounded queue)."""
        return None

    def _quarantine_or_fail(self, job: Job, reason: str, kind: str) -> None:
        """A job exhausted its attempts (``kind='failures'``) or thrashed
        on preemption (``kind='preemption'``).  The base manager simply
        fails it; the elastic manager quarantines it instead."""
        self._finish_job(job, JobState.FAILED, error=reason)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, at: float | None = None) -> Job:
        """Submit a job, arriving at simulated time ``at`` (now if None
        or already past).  Returns the live :class:`Job` record."""
        arrival = self.sim.now if at is None else max(at, self.sim.now)
        if spec.nodes > self._max_partition:
            raise ValueError(
                f"job {spec.name!r} wants {spec.nodes} nodes; the pool "
                f"only has {self._max_partition}"
            )
        job = Job(next(self._ids), spec, submit_time=arrival)
        self.jobs.append(job)
        if self._first_submit is None or arrival < self._first_submit:
            self._first_submit = arrival

        def arrive():
            if arrival > self.sim.now:
                yield self.sim.timeout(arrival - self.sim.now)
            job.submit_time = self.sim.now
            self.obs.count("jobs.submitted")
            shed_reason = self._admit(job)
            if shed_reason is not None:
                self._finish_job(job, JobState.SHED, error=shed_reason)
                return
            self.queue.append(job)
            self._queued_spans[job.job_id] = self.obs.begin(
                "job", f"{spec.name}:queued", 0,
                job=job.job_id, tenant=spec.tenant, nodes=spec.nodes,
            )
            self._schedule()

        self.sim.process(arrive(), name=f"job-arrival:{spec.name}")
        return job

    # ------------------------------------------------------------------
    # scheduling core
    # ------------------------------------------------------------------
    def estimated_end_of(self, job: Job) -> float:
        """When a running job is expected to release its partition
        (+inf for unknown estimates — EASY treats those as immovable)."""
        if job.start_time is None or job.spec.est_runtime <= 0:
            return float("inf")
        return job.start_time + job.spec.est_runtime

    def _schedule(self) -> None:
        """Run the admission policy over the current queue (instantaneous)."""
        # Jobs the shrunken pool can never satisfy fail fast instead of
        # pinning the queue head forever.  ``potential_capacity`` counts
        # offline/warming elastic nodes too, so a job merely waiting for
        # a scale-up is not killed prematurely.
        for job in list(self.queue):
            if job.spec.nodes > self.pool.potential_capacity:
                self.queue.remove(job)
                self._finish_job(
                    job, JobState.FAILED,
                    error=(
                        f"needs {job.spec.nodes} nodes but the pool "
                        f"shrank to {self.pool.potential_capacity}"
                    ),
                )
        for job, backfilled in self.policy.select(list(self.queue), self):
            self.queue.remove(job)
            job.backfilled = backfilled
            job.partition = self.pool.allocate(
                job.spec.nodes, holder=job.spec.name
            )
            self.sim.process(
                self._run_job(job), name=f"job:{job.spec.name}"
            )
        self._update_gauges()

    def _update_gauges(self) -> None:
        self.obs.gauge_set("jobs.queue_depth", len(self.queue))
        self.obs.gauge_set("jobs.running", len(self.running))
        self.obs.gauge_set("jobs.nodes_busy", self.pool.held_count)

    # ------------------------------------------------------------------
    # per-job execution
    # ------------------------------------------------------------------
    def _run_job(self, job: Job):
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        job.attempts += 1
        self.running[job.job_id] = job
        self.obs.count("jobs.started")
        if job.backfilled:
            self.obs.count("jobs.backfilled")
        queued_span = self._queued_spans.pop(job.job_id, None)
        self.obs.end(queued_span, backfilled=job.backfilled)
        run_span = self.obs.begin(
            "job", f"{job.spec.name}:run", 0,
            job=job.job_id, tenant=job.spec.tenant,
            partition=job.partition, attempt=job.attempts,
        )
        self._update_gauges()

        view = ClusterView(self.cluster, job.partition, name=job.spec.name)
        config = job.spec.config or self.default_config
        program = job.spec.program()
        fault_tolerant = job.spec.needs_fault_tolerance
        try:
            runtime = (FaultTolerantRuntime if fault_tolerant
                       else OMPCRuntime)(view.spec, config)
        except ValueError as exc:
            # A config the runtime rejects fails this job alone.
            self.obs.end(run_span, outcome="rejected")
            self._release_partition(job, dead_virtual=())
            self._finish_job(job, JobState.FAILED,
                             error=f"config rejected: {exc}")
            self._schedule()
            return
        try:
            if fault_tolerant:
                proc, finish = runtime.launch(
                    program,
                    failures=job.pending_failures,
                    cluster=view,
                )
            else:
                proc, finish = runtime.launch(program, cluster=view)
            self._procs[job.job_id] = proc
            yield proc
            result = finish()
        # Each handler below keeps the error's text only and drops its
        # traceback, whose frames would hold the ended run in a
        # reference cycle.
        except Interrupt as exc:
            exc.__traceback__ = None
            self.obs.end(run_span, outcome="preempted")
            self._on_preempted(job, finish(), str(exc.cause))
            return
        except ClusterExhausted as exc:
            exc.__traceback__ = None
            # Permanent retires killed every worker of the partition;
            # record the exhaustion and keep serving other tenants.
            self.obs.count("jobs.cluster_exhausted")
            self.obs.end(run_span, outcome="exhausted")
            self._on_crash(job, finish(), f"cluster exhausted: {exc}")
            return
        except RecoveryError as exc:
            exc.__traceback__ = None
            self.obs.end(run_span, outcome="crashed")
            self._on_crash(job, finish(), str(exc))
            return
        except SimulationError as exc:
            exc.__traceback__ = None
            self.obs.end(run_span, outcome="error")
            self._release_partition(job, dead_virtual=())
            self._finish_job(job, JobState.FAILED, error=str(exc))
            self._schedule()
            return

        job.result = result
        self.obs.end(run_span, outcome="completed", makespan=result.makespan)
        dead_virtual = tuple(getattr(result, "failures", ()) or ())
        self._release_partition(job, dead_virtual=dead_virtual)
        self._finish_job(job, JobState.COMPLETED)
        self._schedule()

    def _on_crash(self, job: Job, partial, reason: str) -> None:
        """Unrecoverable failure: retire dead nodes, requeue or fail."""
        # Nodes the runtime declared dead, plus injected failures whose
        # offset has elapsed (an unrecoverable head crash aborts before
        # the dead head reaches ``result.failures`` — infer it from the
        # clock; failure offsets are relative to runtime startup, so
        # comparing against elapsed wall time over-approximates by at
        # most the startup window, which only strips a failure that was
        # about to fire anyway).
        started = self.sim.now if job.start_time is None else job.start_time
        elapsed = self.sim.now - started
        fired = {f.node for f in job.pending_failures if f.time <= elapsed}
        dead_virtual = tuple(sorted(set(partial.failures) | fired))
        self._release_partition(job, dead_virtual=dead_virtual)
        if job.attempts >= job.spec.max_attempts:
            self._quarantine_or_fail(
                job,
                f"{reason} (gave up after {job.attempts} attempts)",
                kind="failures",
            )
            self._schedule()
            return
        # Strip the failures that already fired (by elapsed time, not by
        # node id) — the retry runs on fresh nodes and must not re-crash
        # on schedule, but a failure still in the future stays armed, so
        # a genuinely poisoned job keeps crashing until it runs out of
        # attempts.
        job.pending_failures = tuple(
            f for f in job.pending_failures if f.time > elapsed
        )
        self._requeue(job)

    def _on_preempted(self, job: Job, partial, cause: str) -> None:
        """The manager evicted this running job for a higher-priority
        one: release its partition (no attempt charged — the eviction
        is the cluster's fault, not the job's).  The elastic manager,
        the only one that preempts, then requeues or quarantines it."""
        # Injected failures that fired before the eviction really did
        # kill physical nodes; retire them like any crash would.
        started = self.sim.now if job.start_time is None else job.start_time
        elapsed = self.sim.now - started
        fired = {f.node for f in job.pending_failures if f.time <= elapsed}
        dead_virtual = tuple(
            sorted(set(getattr(partial, "failures", ()) or ()) | fired)
        )
        self._release_partition(job, dead_virtual=dead_virtual)
        job.attempts -= 1  # preemption does not consume an attempt
        job.preemptions += 1
        job.pending_failures = tuple(
            f for f in job.pending_failures if f.time > elapsed
        )
        self.obs.count("jobs.preempted")

    def _requeue(self, job: Job, preempted: bool = False) -> None:
        job.state = JobState.PENDING
        job.requeues += 1
        job.start_time = None
        job.partition = ()
        self.queue.append(job)
        self.obs.count("jobs.requeued")
        self._queued_spans[job.job_id] = self.obs.begin(
            "job", f"{job.spec.name}:queued", 0,
            job=job.job_id, requeue=job.requeues, preempted=preempted,
        )
        self._schedule()

    def _release_partition(
        self, job: Job, dead_virtual: tuple[int, ...]
    ) -> None:
        """Return the partition; crashed nodes leave service for good."""
        for virtual in dead_virtual:
            self.pool.retire(job.partition[virtual])
        self.running.pop(job.job_id, None)
        self._procs.pop(job.job_id, None)
        started = self.sim.now if job.start_time is None else job.start_time
        elapsed = self.sim.now - started
        self.tenant_usage[job.spec.tenant] = (
            self.tenant_usage.get(job.spec.tenant, 0.0)
            + len(job.partition) * elapsed
        )
        self._busy_node_seconds += len(job.partition) * elapsed
        self.pool.release(job.partition)

    def _finish_job(
        self, job: Job, state: JobState, error: str | None = None
    ) -> None:
        job.state = state
        job.finish_time = self.sim.now
        job.error = error
        if state is JobState.COMPLETED:
            self.obs.count("jobs.completed")
        else:
            self.obs.count(f"jobs.{state.value}")
            queued_span = self._queued_spans.pop(job.job_id, None)
            self.obs.end(queued_span, outcome=state.value)
        self._update_gauges()
        if (
            self._drained is not None
            and not self._drained.triggered
            and all(j.done for j in self.jobs)
        ):
            self._drained.succeed()

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(
        self, workload: Iterable[tuple[float, JobSpec]] = ()
    ) -> JobsReport:
        """Submit ``(arrival, spec)`` pairs, drive the simulation until
        every job reaches a terminal state, and return the report."""
        for arrival, spec in workload:
            self.submit(spec, at=arrival)
        if not self.jobs:
            return self.report()
        if any(not j.done for j in self.jobs):
            self._drained = self.sim.event("jobs-drained")
            try:
                self.sim.run(until=self._drained)
            finally:
                self._drained = None
        return self.report()

    def report(self) -> JobsReport:
        """Cluster-level telemetry for everything submitted so far."""
        return build_report(self)

    @property
    def busy_node_seconds(self) -> float:
        """Node-seconds consumed by finished executions, plus the
        in-progress time of jobs still running."""
        inflight = sum(
            len(j.partition) * (self.sim.now - j.start_time)
            for j in self.running.values()
            if j.start_time is not None
        )
        return self._busy_node_seconds + inflight
