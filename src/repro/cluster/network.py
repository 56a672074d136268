"""Interconnect model: full-duplex NICs, VCI channel pools, and
fair-share bandwidth.

The paper's cluster uses 100 Gb/s InfiniBand with MPICH compiled for up
to 64 Virtual Communication Interfaces (VCIs), letting multi-threaded
ranks drive several hardware contexts concurrently (§6.1, [37]).

Model
-----
* Each node owns a :class:`Nic` with independent **TX** and **RX**
  sides (InfiniBand is full duplex).  Each side has ``vcis`` channels:
  a transfer must hold one TX channel at the sender and one RX channel
  at the receiver for its whole serialization.  With more concurrent
  flows than channels, later flows queue behind earlier ones —
  head-of-line blocking, exactly the contention VCIs remove.
* Admitted flows progress under a **fluid fair-share** discipline: at
  any instant a flow's rate is ``min(B/tx_active(src), B/rx_active(dst))``
  where ``B`` is the line rate and the counts are the flows currently
  admitted on each side.  Rates are recomputed whenever a flow starts
  or finishes, so a NIC's aggregate never exceeds the line rate.
* Propagation ``latency`` is charged after serialization without
  occupying channels.  Same-node transfers use a separate memcpy path.

Transfers acquire TX before RX and never wait on TX while holding RX,
so hold-and-wait cycles are impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.observer import NullObserver
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource
from repro.util.units import Gbps, MICROSECOND


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect parameters.

    Defaults model the paper's fabric: 100 Gb/s links, ~1.5 µs port-to-port
    latency (typical EDR InfiniBand), 64 VCIs per direction, and a
    20 GB/s intra-node memcpy path for same-node "transfers".
    """

    latency: float = 1.5 * MICROSECOND
    bandwidth: float = Gbps(100.0)
    vcis: int = 64
    local_bandwidth: float = 20e9
    local_latency: float = 0.5 * MICROSECOND

    def __post_init__(self) -> None:
        if self.latency < 0 or self.local_latency < 0:
            raise ValueError("latencies must be >= 0")
        if self.bandwidth <= 0 or self.local_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.vcis < 1:
            raise ValueError("vcis must be >= 1")

    def wire_time(self, nbytes: float) -> float:
        """Uncontended wire time for a message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency + nbytes / self.bandwidth


class Nic:
    """Per-node full-duplex network interface."""

    def __init__(self, sim: Simulator, node_id: int, spec: NetworkSpec):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        self.tx_channels = Resource(sim, capacity=spec.vcis, name=f"nic{node_id}.tx")
        self.rx_channels = Resource(sim, capacity=spec.vcis, name=f"nic{node_id}.rx")
        #: Flows currently serializing in each direction.
        self.tx_active = 0
        self.rx_active = 0
        #: Cumulative bytes through this NIC (diagnostics / tests).
        self.bytes_sent = 0
        self.bytes_received = 0


class _Flow:
    """One in-progress transfer under the fluid model."""

    __slots__ = ("src", "dst", "remaining", "rate", "done", "tx_nic", "rx_nic")

    def __init__(self, src: int, dst: int, nbytes: float, done: Event,
                 tx_nic: Nic, rx_nic: Nic):
        self.src = src
        self.dst = dst
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done
        # Endpoint NICs, resolved once: the rebalance loop reads their
        # active counters for every flow on every epoch.
        self.tx_nic = tx_nic
        self.rx_nic = rx_nic


class Network:
    """The cluster fabric: one NIC per node plus the fluid flow engine."""

    def __init__(self, sim: Simulator, num_nodes: int, spec: NetworkSpec | None = None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.sim = sim
        self.spec = spec or NetworkSpec()
        self.nics = [Nic(sim, i, self.spec) for i in range(num_nodes)]
        #: Observability sink: the owning cluster's observer, which sees
        #: per-link flow-count gauges and byte counters when tracing
        #: (the utilization report's input).
        self.obs = NullObserver(sim)
        #: Installed transient-fault state (see :mod:`repro.core.faultmodel`);
        #: ``None`` models the paper's clean fabric.  When set, transfers
        #: honour link-degradation windows and node-hang holds, and the
        #: MPI layer consults it for message-drop decisions.
        self.faults = None
        #: Total bytes moved across the fabric (excludes same-node copies).
        self.total_bytes = 0
        #: Total number of inter-node messages.
        self.total_messages = 0
        self._flows: dict[_Flow, None] = {}
        self._last_update = 0.0
        self._epoch = 0
        #: Cached per-pair event names ("flow:s->d"); bounded by n².
        self._flow_names: dict[tuple[int, int], str] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.nics)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self.nics):
            raise ValueError(f"node {node} out of range [0, {len(self.nics)})")

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Uncontended end-to-end time for a transfer (for cost models)."""
        self._check_node(src)
        self._check_node(dst)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst:
            return self.spec.local_latency + nbytes / self.spec.local_bandwidth
        return self.spec.latency + nbytes / self.spec.bandwidth

    # ------------------------------------------------------------------
    # fluid flow engine
    # ------------------------------------------------------------------
    def _advance_flows(self) -> None:
        """Account progress of every active flow up to the present."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                left = flow.remaining - flow.rate * elapsed
                flow.remaining = left if left > 0.0 else 0.0
        self._last_update = now

    def _rebalance(self) -> None:
        """Recompute fair-share rates and schedule the next completion.

        Rates are piecewise constant between rebalances, so only the
        *earliest* completion in the current epoch can actually happen —
        one authoritative timer per epoch suffices.  (The first version
        scheduled a timer per flow per epoch; with F concurrent flows
        that is O(F²) heap events, almost all of them stale no-ops, and
        it dominated the fig5 profile.)  The ETA arithmetic and the
        first-minimal tie-break below reproduce the per-flow-timer
        behavior exactly: completions happen at bit-identical times in
        the identical order.
        """
        self._epoch += 1
        now = self.sim.now
        # Fused progress accounting (one pass over the flows instead of
        # an ``_advance_flows`` pass followed by a rate pass): a flow's
        # new rate depends only on the NIC counters, which progress
        # accounting never touches, so advancing and re-rating in the
        # same iteration computes the exact same values.
        elapsed = now - self._last_update
        self._last_update = now
        advance = elapsed > 0
        bw = self.spec.bandwidth
        faults = self.faults
        next_flow: _Flow | None = None
        next_eta = 0.0
        next_when = 0.0
        for flow in self._flows:
            if advance:
                left = flow.remaining - flow.rate * elapsed
                flow.remaining = left if left > 0.0 else 0.0
            tx_n = flow.tx_nic.tx_active
            rx_n = flow.rx_nic.rx_active
            rate = bw / tx_n if tx_n > rx_n else bw / rx_n
            if faults is not None:
                # Degradation windows scale a flow's share; installed
                # fault plans schedule a rebalance at each window edge,
                # so the piecewise-constant rate stays exact.
                rate *= faults.bandwidth_factor(flow.src, flow.dst, now)
            flow.rate = rate
            eta = flow.remaining / rate if rate > 0 else 0.0
            # Compare rounded *fire times*, not raw ETAs: the per-flow
            # timers sat on the heap keyed by ``now + eta``, so two
            # distinct ETAs whose sums round to the same float were a
            # tie, resolved by insertion (= iteration) order.  Strict
            # ``<`` on the same sum reproduces that winner exactly.
            when = now + eta
            if next_flow is None or when < next_when:
                next_flow = flow
                next_eta = eta
                next_when = when
        if next_flow is not None:
            timer = self.sim.timeout(next_eta)
            timer.add_callback(
                lambda ev, f=next_flow, e=self._epoch: self._on_timer(f, e)
            )

    def _on_timer(self, flow: _Flow, epoch: int) -> None:
        # A stale timer (another rebalance happened since scheduling) is
        # ignored; that rebalance scheduled the authoritative successor.
        if epoch != self._epoch or flow not in self._flows:
            return
        self._advance_flows()
        flow.remaining = 0.0
        self._flows.pop(flow, None)
        flow.tx_nic.tx_active -= 1
        flow.rx_nic.rx_active -= 1
        flow.done.succeed()
        self._rebalance()

    def _start_flow(self, src: int, dst: int, nbytes: float) -> Event:
        name = self._flow_names.get((src, dst))
        if name is None:
            name = f"flow:{src}->{dst}"
            self._flow_names[(src, dst)] = name
        done = self.sim.event(name)
        if nbytes <= 0:
            done.succeed()
            return done
        tx_nic = self.nics[src]
        rx_nic = self.nics[dst]
        flow = _Flow(src, dst, nbytes, done, tx_nic, rx_nic)
        self._flows[flow] = None
        tx_nic.tx_active += 1
        rx_nic.rx_active += 1
        self._rebalance()
        return done

    # ------------------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: float):
        """Process generator performing a timed transfer.

        Use as ``yield from net.transfer(src, dst, nbytes)``.  Holds one
        TX channel at the source and one RX channel at the destination
        for the (contended) serialization time; the propagation latency
        is charged after the channels are released.
        """
        self._check_node(src)
        self._check_node(dst)
        if not 0.0 <= nbytes < float("inf"):
            # Also rejects NaN/inf: a non-finite size would poison the
            # fluid-rate arithmetic and hang the flow engine.
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes!r}")

        if src == dst:
            yield self.sim.timeout(
                self.spec.local_latency + nbytes / self.spec.local_bandwidth
            )
            return

        if self.faults is not None:
            # A hung endpoint's NIC is silent: hold the transfer (without
            # occupying channels) until the hang window closes.  Flows
            # already serializing are not paused — the hold models
            # admission at the NIC, which keeps the fluid model simple.
            release = self.faults.hold_until(src, dst, self.sim.now)
            if release > self.sim.now:
                yield self.sim.timeout(release - self.sim.now)

        yield self.nics[src].tx_channels.request()
        yield self.nics[dst].rx_channels.request()
        obs = self.obs
        if obs.enabled:
            obs.gauge_add(f"link.{src}->{dst}", 1, node=src)
        try:
            yield self._start_flow(src, dst, nbytes)
        finally:
            if obs.enabled:
                obs.gauge_add(f"link.{src}->{dst}", -1, node=src)
                obs.count(f"link.{src}->{dst}.bytes", nbytes)
            self.nics[dst].rx_channels.release()
            self.nics[src].tx_channels.release()
        latency = self.spec.latency
        if self.faults is not None:
            latency *= self.faults.latency_factor(src, dst, self.sim.now)
        yield self.sim.timeout(latency)

        self.nics[src].bytes_sent += int(nbytes)
        self.nics[dst].bytes_received += int(nbytes)
        self.total_bytes += int(nbytes)
        self.total_messages += 1
