"""Elastic overload protection for the multi-tenant job manager.

The base :class:`~repro.jobs.manager.JobManager` assumes a fixed pool
and a well-behaved workload: queues grow without bound, a poison job
burns attempts forever, and a low-priority job can squat on nodes a
critical job needs.  This module is the graceful-degradation layer on
top — the machinery a cloud scheduler grows once demand routinely
exceeds capacity:

autoscaling
    An :class:`AutoscalerController` watches queue pressure (queued
    node-demand over online capacity) and moves nodes of an
    :class:`~repro.cluster.partition.ElasticNodePool` between offline,
    warming, and online states.  Scale-ups pay a warm-up cost before
    the nodes become allocatable; a cooldown plus the gap between the
    up/down pressure thresholds provides hysteresis so the controller
    does not flap.

admission throttling
    Per-tenant :class:`TokenBucket` rate limits plus a bounded queue.
    An arrival that exceeds its tenant's refill rate, or that finds the
    queue at its limit, is *shed* — finished immediately in state
    ``SHED`` with a reason, never admitted.  One bursty tenant drains
    only its own bucket; the others keep their full rate.

priority preemption
    When a high-priority job is blocked, lower-priority *preemptible*
    running jobs are evicted (least-priority, least-work-lost first via
    :func:`~repro.jobs.policies.select_victims`): the victim's runtime
    process is interrupted, its teardown handler unwinds the job's
    machinery, and the manager requeues it — no attempt charged — to
    restart from its program factory on fresh nodes once capacity
    returns.

dead-letter queue
    A job that exhausts ``max_attempts`` crashing, or that gets
    preempted more than ``max_preemptions`` times (preemption thrash),
    is quarantined into the :class:`DeadLetterQueue` with a
    :class:`DeadLetterRecord` naming the reason, instead of silently
    failing or crash-looping through the scheduler forever.

Everything is deterministic: token buckets refill from simulated
timestamps, the autoscaler ticks on a fixed interval, and victim
selection is a pure sort — a seeded overload trace replays
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.machine import Cluster
from repro.cluster.partition import ElasticNodePool, NodePool
from repro.jobs.job import Job, JobState
from repro.jobs.manager import JobManager
from repro.jobs.policies import AdmissionPolicy, select_victims


@dataclass(frozen=True)
class ElasticConfig:
    """Tuning knobs of the elastic serving layer (all simulated units).

    The defaults suit the repository's Task Bench workloads (jobs run
    for tens of milliseconds); scale them with your job durations.
    """

    # -- admission throttling ---------------------------------------------
    #: Token refill rate per tenant (jobs/second); ``inf`` disables.
    rate: float = math.inf
    #: Bucket depth — the burst a tenant may submit instantly.
    burst: float = 8.0
    #: Queue bound; arrivals finding this many queued jobs are shed.
    #: ``None`` leaves the queue unbounded.
    queue_limit: int | None = 64

    # -- autoscaling -------------------------------------------------------
    #: Run the autoscaler at all (needs an elastic pool).
    autoscale: bool = True
    #: Worker nodes online at t=0 (None: the whole pool).
    initial_online: int | None = None
    #: Controller tick period.
    check_interval: float = 0.005
    #: Boot cost a scale-up pays before nodes become allocatable.
    warmup_time: float = 0.02
    #: Scale up when queued node-demand / online capacity >= this.
    scale_up_pressure: float = 0.25
    #: Scale down only when pressure <= this (and the queue is empty);
    #: the gap to ``scale_up_pressure`` is the hysteresis band.
    scale_down_pressure: float = 0.05
    #: Most nodes moved per scaling decision.
    scale_step: int = 4
    #: Minimum time between two scaling decisions.
    cooldown: float = 0.02
    #: Never scale below this many online nodes.
    min_online: int = 2

    # -- preemption --------------------------------------------------------
    #: Evict preemptible lower-priority jobs for blocked higher-priority
    #: ones.
    preemption: bool = True
    #: Preemptions a single job tolerates before it is dead-lettered as
    #: thrashing (it clearly cannot hold nodes long enough to finish).
    max_preemptions: int = 3

    # -- service-level objective ------------------------------------------
    #: Target p99 bounded slowdown for *admitted* jobs; reports compare
    #: against it.  ``inf`` disables the check.
    slo_bounded_slowdown: float = math.inf

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be > 0 (use inf to disable)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 or None")
        if self.scale_down_pressure > self.scale_up_pressure:
            raise ValueError(
                "scale_down_pressure must not exceed scale_up_pressure "
                "(the gap is the hysteresis band)"
            )
        if self.min_online < 1:
            raise ValueError("min_online must be >= 1")
        if self.max_preemptions < 0:
            raise ValueError("max_preemptions must be >= 0")


class TokenBucket:
    """Deterministic token bucket: refill is a pure function of the
    simulated clock, so seeded runs replay identically."""

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = now

    def try_take(self, now: float, cost: float = 1.0) -> bool:
        """Refill up to ``now``, then spend ``cost`` tokens if present."""
        if self.rate == math.inf:
            return True
        self.tokens = min(
            self.burst, self.tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self.tokens + 1e-12 >= cost:
            self.tokens -= cost
            return True
        return False


@dataclass(frozen=True)
class DeadLetterRecord:
    """Why one job was quarantined."""

    job_id: int
    name: str
    tenant: str
    #: ``"failures"`` (ran out of attempts) or ``"preemption"`` (thrash).
    kind: str
    reason: str
    time: float
    attempts: int
    preemptions: int


class DeadLetterQueue:
    """Terminal parking lot for jobs the cluster gave up on.

    Quarantined jobs stop consuming scheduler attention but their
    records stay inspectable — the operator's triage list.
    """

    def __init__(self) -> None:
        self.records: list[DeadLetterRecord] = []

    def append(self, record: DeadLetterRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out


class AutoscalerController:
    """Grows and shrinks an :class:`ElasticNodePool` from queue pressure.

    Pressure is queued node-demand over online-or-warming capacity.
    Above ``scale_up_pressure`` (with parked nodes available and the
    cooldown elapsed) the controller warms up enough nodes to cover the
    shortfall, capped at ``scale_step``; warm-ups take
    ``warmup_time`` before :meth:`ElasticNodePool.complete_warmup`
    makes the nodes allocatable.  At or below ``scale_down_pressure``
    with an empty queue, free nodes park again — never below
    ``min_online``, never a held node.
    """

    def __init__(self, manager: "ElasticJobManager"):
        self.manager = manager
        self.pool: ElasticNodePool = manager.pool
        self.cfg = manager.elastic
        self.scale_ups = 0
        self.scale_downs = 0
        self._last_change = -math.inf
        manager.sim.process(self._loop(), name="autoscaler")

    # -- signals -----------------------------------------------------------
    def queued_demand(self) -> int:
        return sum(job.spec.nodes for job in self.manager.queue)

    def pressure(self) -> float:
        cap = self.pool.capacity + self.pool.warming_count
        return self.queued_demand() / max(cap, 1)

    # -- control loop ------------------------------------------------------
    def _loop(self):
        sim = self.manager.sim
        while True:
            yield sim.timeout(self.cfg.check_interval)
            self._tick()

    def _tick(self) -> None:
        cfg, pool, obs = self.cfg, self.pool, self.manager.obs
        now = self.manager.sim.now
        obs.gauge_set("jobs.pool_online", pool.capacity)
        obs.gauge_set("jobs.pool_warming", pool.warming_count)
        obs.gauge_set("jobs.pool_offline", pool.offline_count)
        if now - self._last_change < cfg.cooldown:
            return
        demand = self.queued_demand()
        pressure = self.pressure()
        if pressure >= cfg.scale_up_pressure and pool.offline_count:
            shortfall = demand - pool.free_count - pool.warming_count
            want = max(1, min(cfg.scale_step, shortfall))
            taken = pool.begin_warmup(want)
            if taken:
                self._last_change = now
                self.scale_ups += 1
                obs.count("jobs.scale_up")
                self.manager.sim.process(
                    self._warmup(taken), name="autoscaler-warmup"
                )
            return
        if (
            pressure <= cfg.scale_down_pressure
            and not self.manager.queue
            and pool.capacity > cfg.min_online
        ):
            spare = min(
                cfg.scale_step,
                pool.free_count,
                pool.capacity - cfg.min_online,
            )
            if spare > 0 and pool.take_offline(spare):
                self._last_change = now
                self.scale_downs += 1
                obs.count("jobs.scale_down")

    def _warmup(self, node_ids: tuple[int, ...]):
        yield self.manager.sim.timeout(self.cfg.warmup_time)
        self.pool.complete_warmup(node_ids)
        self.manager.obs.gauge_set("jobs.pool_online", self.pool.capacity)
        self.manager.obs.gauge_set(
            "jobs.pool_warming", self.pool.warming_count
        )
        self.manager._schedule()


class ElasticJobManager(JobManager):
    """A :class:`JobManager` with overload protection.

    Adds per-tenant token-bucket admission, a bounded queue with load
    shedding, priority preemption of preemptible jobs, an autoscaled
    node pool, and a dead-letter queue for jobs that repeatedly crash
    or thrash.  Drop-in replacement for the base manager — a workload
    that never overloads the cluster schedules identically.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: "str | AdmissionPolicy" = "fifo",
        default_config=None,
        slowdown_tau: float = 1e-3,
        elastic: ElasticConfig | None = None,
    ):
        #: Elastic knobs; read by ``_make_pool`` during ``super().__init__``.
        self.elastic = elastic or ElasticConfig()
        super().__init__(
            cluster,
            policy=policy,
            default_config=default_config,
            slowdown_tau=slowdown_tau,
        )
        #: Reports compare admitted jobs' p99 bounded slowdown to this.
        self.slo_bounded_slowdown = self.elastic.slo_bounded_slowdown
        self.dead_letters = DeadLetterQueue()
        self._buckets: dict[str, TokenBucket] = {}
        #: Job ids with an eviction in flight (interrupt issued, the
        #: teardown has not yet released the partition) — their nodes
        #: count as pledged so one blocked job never evicts more
        #: victims than it needs.
        self._preempting: set[int] = set()
        self.autoscaler = (
            AutoscalerController(self)
            if self.elastic.autoscale
            and isinstance(self.pool, ElasticNodePool)
            else None
        )

    # -- pool --------------------------------------------------------------
    def _make_pool(self, cluster: Cluster) -> NodePool:
        if not self.elastic.autoscale:
            return super()._make_pool(cluster)
        return ElasticNodePool(
            cluster, reserved=(0,),
            initial_online=self.elastic.initial_online,
        )

    # -- admission ---------------------------------------------------------
    def _admit(self, job: Job) -> str | None:
        cfg = self.elastic
        tenant = job.spec.tenant
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                cfg.rate, cfg.burst, now=self.sim.now
            )
        if not bucket.try_take(self.sim.now):
            self.obs.count(f"jobs.shed.{tenant}")
            return (
                f"tenant {tenant!r} over its rate limit "
                f"({cfg.rate:g}/s, burst {cfg.burst:g}): shed"
            )
        if cfg.queue_limit is not None and len(self.queue) >= cfg.queue_limit:
            self.obs.count(f"jobs.shed.{tenant}")
            return f"queue full ({cfg.queue_limit} jobs deep): shed"
        return None

    # -- dead-letter quarantine --------------------------------------------
    def _quarantine_or_fail(self, job: Job, reason: str, kind: str) -> None:
        self.dead_letters.append(DeadLetterRecord(
            job_id=job.job_id,
            name=job.spec.name,
            tenant=job.spec.tenant,
            kind=kind,
            reason=reason,
            time=self.sim.now,
            attempts=job.attempts,
            preemptions=job.preemptions,
        ))
        self.obs.count(f"jobs.dead_letter.{kind}")
        self._finish_job(job, JobState.DEAD_LETTERED, error=reason)

    # -- preemption --------------------------------------------------------
    def _schedule(self) -> None:
        super()._schedule()
        if self.elastic.preemption:
            self._maybe_preempt()

    def _on_preempted(self, job: Job, partial, cause: str) -> None:
        self._preempting.discard(job.job_id)
        super()._on_preempted(job, partial, cause)
        if job.preemptions <= self.elastic.max_preemptions:
            self._requeue(job, preempted=True)
            return
        self._quarantine_or_fail(
            job,
            f"preempted {job.preemptions} times without finishing "
            f"(> {self.elastic.max_preemptions}): thrashing",
            kind="preemption",
        )
        self._schedule()

    def _release_partition(self, job, dead_virtual) -> None:
        self._preempting.discard(job.job_id)
        super()._release_partition(job, dead_virtual)

    def _maybe_preempt(self) -> None:
        if not self.queue:
            return
        head = min(self.queue, key=AdmissionPolicy.fcfs_key)
        # Nodes already pledged by in-flight evictions count as free:
        # the interrupt has been issued, the partition returns as soon
        # as the victim's teardown unwinds.
        pledged = sum(
            len(self.running[jid].partition)
            for jid in self._preempting
            if jid in self.running
        )
        free = self.pool.free_count + pledged
        if free >= head.spec.nodes:
            return
        victims = select_victims(
            head, self, free=free, exclude=self._preempting
        )
        for victim in victims:
            proc = self._procs.get(victim.job_id)
            if proc is None or not getattr(proc, "is_alive", False):
                continue
            self._preempting.add(victim.job_id)
            self.obs.count("jobs.preemptions_issued")
            proc.interrupt(
                f"preempted for {head.spec.name!r} "
                f"(priority {head.spec.priority} > {victim.spec.priority})"
            )
