"""Declarative transient-fault injection (lossy links, degraded links,
stragglers, and hangs).

The §3.1 fault-tolerance extension in :mod:`repro.core.faults` only
models *fail-stop* crashes.  Real InfiniBand clusters also exhibit
*transient* faults that a runtime must ride out rather than recover
from: occasional message loss, links that temporarily degrade, nodes
that stall (stragglers), and nodes that go silent for a while and then
resume.  This module describes those faults declaratively:

* :class:`LinkLoss` — a per-link independent message-drop probability,
  deterministic via :func:`repro.util.rng.derive_rng` (one stream per
  directed link, so adding traffic on one link never perturbs the loss
  pattern of another).
* :class:`LinkDegradation` — a time window during which a link's
  propagation latency and/or bandwidth are scaled.
* :class:`NodeStall` — a time window during which a node's compute rate
  is multiplied (``factor < 1`` models a straggler).
* :class:`NodeHang` — a node is completely silent (no compute progress,
  NIC holds all traffic) for a duration, then resumes — distinct from a
  fail-stop crash, which never resumes.

A :class:`FaultPlan` bundles the fault set with a seed;
:meth:`FaultPlan.install` binds it to a live cluster, producing an
:class:`ActiveFaults` object that the network layer
(:mod:`repro.cluster.network`), the MPI transport
(:mod:`repro.mpi.comm`), and the event system (:mod:`repro.core.events`)
consult at runtime.  Everything is deterministic: the same plan + seed
yields the same drop pattern, the same retransmissions, and the same
makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import derive_rng


@dataclass(frozen=True)
class LinkLoss:
    """Independent per-message drop probability on matching links.

    ``src``/``dst`` of ``None`` are wildcards; the first matching rule
    in the plan wins, so put specific links before blanket rules.
    """

    probability: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class LinkDegradation:
    """A temporary slowdown window on matching links.

    During ``[start, end)`` a matching link's propagation latency is
    multiplied by ``latency_factor`` and its fair-share bandwidth by
    ``bandwidth_factor`` (< 1 slows the link).  Overlapping windows
    compose multiplicatively.
    """

    start: float
    end: float
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("need 0 <= start < end")
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise ValueError("factors must be > 0")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class NodeStall:
    """A compute-rate multiplier on one node over a time window.

    ``factor`` scales the node's effective compute rate during
    ``[start, end)``: ``0.25`` means work proceeds at a quarter speed (a
    straggler); values above 1 are allowed for completeness.
    """

    node: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("need 0 <= start < end")
        if self.factor <= 0:
            raise ValueError("stall factor must be > 0 (use NodeHang for silence)")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class NodeHang:
    """A node goes completely silent for ``duration``, then resumes.

    During the window the node makes no compute progress and its NIC
    holds all traffic (in and out) until the window closes.  Unlike a
    :class:`~repro.core.faults.NodeFailure` the node's memory survives
    and every held message is eventually delivered.
    """

    node: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError("need start >= 0 and duration > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class MemoryPressure:
    """A node's device-memory capacity shrinks over a time window.

    During ``[start, end)`` the node's effective capacity is its
    configured ``device_memory_bytes`` times ``capacity_factor`` — the
    tiered store (:mod:`repro.core.tiering`) sees the shrunken budget
    at its next planning decision and reacts with an eviction storm.
    ``fetch_fail_prob`` additionally makes read-through re-fetches
    *to* this node fail with that probability inside the window
    (retried with exponential backoff per ``mem_fetch_retries``);
    draws are deterministic per node via :func:`derive_rng`.
    """

    node: int
    start: float
    end: float = float("inf")
    capacity_factor: float = 1.0
    fetch_fail_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("need 0 <= start < end")
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        if not 0.0 <= self.fetch_fail_prob <= 1.0:
            raise ValueError("fetch_fail_prob must be in [0, 1]")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A declarative set of transient faults plus the seed driving them."""

    seed: int = 0
    losses: tuple[LinkLoss, ...] = ()
    degradations: tuple[LinkDegradation, ...] = ()
    stalls: tuple[NodeStall, ...] = ()
    hangs: tuple[NodeHang, ...] = ()
    pressures: tuple[MemoryPressure, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists for convenience; store tuples (the plan is frozen).
        for name in ("losses", "degradations", "stalls", "hangs",
                     "pressures"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    @property
    def lossy(self) -> bool:
        """True if any link can drop messages (reliable transport needed)."""
        return any(rule.probability > 0 for rule in self.losses)

    def install(self, cluster) -> "ActiveFaults":
        """Bind this plan to a live cluster.

        Sets ``cluster.faults`` and ``cluster.network.faults`` and
        schedules a fair-share rebalance at every degradation-window
        edge so in-flight flows see bandwidth changes.
        """
        active = ActiveFaults(self, cluster)
        cluster.faults = active
        cluster.network.faults = active
        sim = cluster.sim
        for edge in active.edge_times():
            if edge < sim.now:
                continue
            timer = sim.timeout(edge - sim.now)
            timer.add_callback(
                lambda ev, net=cluster.network: net._rebalance()
            )
        return active


class ActiveFaults:
    """Runtime state of a :class:`FaultPlan` bound to one cluster.

    Consulted by the network layer (drops, degradation, hangs), the MPI
    transport (loss decisions), and the event system (compute
    stretching).  Loss draws use one RNG stream per directed link, so
    drop patterns are stable under unrelated traffic changes elsewhere.
    """

    def __init__(self, plan: FaultPlan, cluster):
        self.plan = plan
        self.cluster = cluster
        #: True if the plan has degradation windows or hangs.  Without
        #: either, every link runs at full rate and latency and never
        #: holds traffic, so the flow engine need not ask per flow.
        self.windowed = bool(plan.degradations or plan.hangs)
        #: Per directed link: its loss probability and its RNG stream
        #: (``None`` on a lossless link, which never draws).
        self._links: dict[tuple[int, int], tuple[float, object]] = {}
        self._fetch_rngs: dict[int, object] = {}
        #: Messages the fabric has eaten so far (diagnostics / tests).
        self.dropped_messages = 0
        #: Read-through fetches the fabric has failed (diagnostics).
        self.fetch_failures = 0

    # -- message loss -----------------------------------------------------
    def loss_probability(self, src: int, dst: int) -> float:
        for rule in self.plan.losses:
            if rule.matches(src, dst):
                return rule.probability
        return 0.0

    def drops(self, src: int, dst: int) -> bool:
        """Decide (and record) whether the next ``src → dst`` message drops.

        Consumes one draw from the link's RNG stream per call, so the
        decision sequence on a link is a pure function of the seed and
        that link's message order.
        """
        link = self._links.get((src, dst))
        if link is None:
            p = self.loss_probability(src, dst)
            rng = (derive_rng(self.plan.seed, "loss", f"{src}->{dst}")
                   if p > 0.0 else None)
            link = self._links[(src, dst)] = (p, rng)
        p, rng = link
        if rng is None:
            return False
        if rng.random() < p:
            self.dropped_messages += 1
            return True
        return False

    # -- link degradation --------------------------------------------------
    def latency_factor(self, src: int, dst: int, now: float) -> float:
        factor = 1.0
        for window in self.plan.degradations:
            if window.active(now) and window.matches(src, dst):
                factor *= window.latency_factor
        return factor

    def bandwidth_factor(self, src: int, dst: int, now: float) -> float:
        factor = 1.0
        for window in self.plan.degradations:
            if window.active(now) and window.matches(src, dst):
                factor *= window.bandwidth_factor
        return factor

    def edge_times(self) -> list[float]:
        """Every time at which a degradation window opens or closes."""
        edges: set[float] = set()
        for window in self.plan.degradations:
            edges.add(window.start)
            edges.add(window.end)
        return sorted(edges)

    # -- hangs ----------------------------------------------------------------
    def hold_until(self, src: int, dst: int, now: float) -> float:
        """When the fabric may next move a ``src → dst`` message.

        A hung endpoint holds traffic until its window closes; the
        returned time is ``now`` when neither endpoint is hung.
        """
        release = now
        for hang in self.plan.hangs:
            if hang.node in (src, dst) and hang.active(now):
                release = max(release, hang.end)
        return release

    # -- memory pressure ------------------------------------------------------
    def capacity_factor(self, node: int, now: float) -> float:
        """The node's device-capacity multiplier at ``now`` (tiering)."""
        factor = 1.0
        for pressure in self.plan.pressures:
            if pressure.node == node and pressure.active(now):
                factor *= pressure.capacity_factor
        return factor

    def fetch_fails(self, node: int, now: float) -> bool:
        """Decide (and record) whether the next fetch to ``node`` fails.

        One RNG stream per node, so a node's fetch-failure sequence is
        a pure function of the seed and that node's fetch order.
        """
        prob = 0.0
        for pressure in self.plan.pressures:
            if pressure.node == node and pressure.active(now):
                prob = max(prob, pressure.fetch_fail_prob)
        if prob <= 0.0:
            return False
        rng = self._fetch_rngs.get(node)
        if rng is None:
            rng = derive_rng(self.plan.seed, "memfetch", str(node))
            self._fetch_rngs[node] = rng
        if rng.random() < prob:
            self.fetch_failures += 1
            return True
        return False

    # -- compute stretching ---------------------------------------------------
    def compute_rate(self, node: int, now: float) -> float:
        """The node's effective compute-rate multiplier at ``now``."""
        for hang in self.plan.hangs:
            if hang.node == node and hang.active(now):
                return 0.0
        rate = 1.0
        for stall in self.plan.stalls:
            if stall.node == node and stall.active(now):
                rate *= stall.factor
        return rate

    def stretched(self, node: int, start: float, duration: float) -> float:
        """Wall time for ``duration`` of nominal-rate work starting at
        ``start`` on ``node``, integrating stall/hang windows.

        Every window is bounded, so the rate is 1.0 past the last edge
        and the walk always terminates.
        """
        if duration <= 0:
            return duration
        edges: set[float] = set()
        for stall in self.plan.stalls:
            if stall.node == node:
                edges.update((stall.start, stall.end))
        for hang in self.plan.hangs:
            if hang.node == node:
                edges.update((hang.start, hang.end))
        t = start
        work = duration
        for edge in sorted(edges):
            if edge <= t:
                continue
            rate = self.compute_rate(node, t)
            if rate > 0:
                span = edge - t
                if work <= span * rate:
                    return t + work / rate - start
                work -= span * rate
            t = edge
        return t + work / self.compute_rate(node, t) - start
