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
  admitted on each side.  A flow's rate depends only on those two
  counts, so when a flow starts or finishes only the flows sharing its
  TX side or its RX side are re-rated; every other flow keeps its rate
  and its scheduled completion.  A NIC's aggregate never exceeds the
  line rate.
* Propagation ``latency`` is charged after serialization without
  occupying channels.  Same-node transfers use a separate memcpy path.

A transfer is one event (:meth:`Network.start_transfer`) driven by
callbacks — hang hold, channel grants, flow, channel release, latency —
with no simulator process behind it.  Transfers acquire TX before RX
and never wait on TX while holding RX, so hold-and-wait cycles are
impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.observer import NullObserver
from repro.sim.core import _PENDING, Event, Simulator
from repro.sim.primitives import DeadlineQueue
from repro.sim.resources import Resource
from repro.util.units import Gbps, MICROSECOND

_INF = float("inf")


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
        # Chained comparisons, as the kernel guards: each also rejects
        # NaN, which would otherwise surface far away (in HEFT's cost
        # model, or as a flow that never completes).
        if not (0.0 <= self.latency < _INF
                and 0.0 <= self.local_latency < _INF):
            raise ValueError("latencies must be finite and >= 0")
        if not (0.0 < self.bandwidth <= _INF
                and 0.0 < self.local_bandwidth <= _INF):
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
        #: Flows currently serializing in each direction, in start order.
        self.tx_flows: dict[_Transfer, None] = {}
        self.rx_flows: dict[_Transfer, None] = {}
        #: Cumulative bytes through this NIC (diagnostics / tests).
        self.bytes_sent = 0
        self.bytes_received = 0


class _Transfer(Event):
    """One inter-node transfer: the event its caller waits on, which
    also carries the transfer's flow state in the fluid engine.

    The event succeeds once the payload has serialized and propagated.
    """

    __slots__ = ("src", "dst", "nbytes", "tx_nic", "rx_nic",
                 "remaining", "rate", "last", "order", "due")

    def __init__(self, net: "Network", src: int, dst: int, nbytes: float,
                 name: str):
        # Event.__init__, inlined: one transfer per message.
        self.sim = net.sim
        self.name = name
        # Byte accounting runs first, before any waiter resumes.
        self.callbacks = [net._account_cb]
        self._value = _PENDING
        self._ok = True
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        # Endpoint NICs, resolved once: re-rating reads their flow sets.
        self.tx_nic = net.nics[src]
        self.rx_nic = net.nics[dst]
        #: Bytes left as of ``last``, the flow's last settle time.
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.last = 0.0
        #: Start order among flows: the completion tie-break.
        self.order = 0
        #: Stamp of the flow's live completion deadline (``Network._due``).
        self.due = 0


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
        #: Flow completions, due in ``(fire time, start order)`` order.
        self._due = DeadlineQueue(sim, self._complete)
        self._started = 0
        #: Cached per-pair event names ("flow:s->d"); bounded by n².
        self._flow_names: dict[tuple[int, int], str] = {}
        # Bound once: every transfer shares them.
        self._account_cb = self._account
        self._overhead_done_cb = self._overhead_done

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
    def _start_flow(self, flow: _Transfer) -> None:
        """Admit a flow whose channels are held."""
        if flow.remaining <= 0.0:
            self._release(flow)
            return
        order = flow.order = self._started
        self._started = order + 1
        now = flow.last = self.sim._now
        tx_nic = flow.tx_nic
        rx_nic = flow.rx_nic
        tx_flows = tx_nic.tx_flows
        rx_flows = rx_nic.rx_flows
        tx_flows[flow] = None
        rx_flows[flow] = None
        if len(tx_flows) > 1 or len(rx_flows) > 1:
            self._rebalance(tx_nic, rx_nic)
            return
        # Alone on both sides: the line rate, priced in closed form
        # (exactly what a rebalance of the two sides computes).
        rate = self.spec.bandwidth
        faults = self.faults
        if faults is not None and faults.windowed:
            rate *= faults.bandwidth_factor(flow.src, flow.dst, now)
        flow.rate = rate
        self._due.add(now + flow.remaining / rate, order, flow)

    def _rebalance(self, tx_nic: Nic | None = None, rx_nic: Nic | None = None) -> None:
        """Re-rate the flows on ``tx_nic``'s TX and ``rx_nic``'s RX side.

        Called without arguments (at a degradation-window edge) it
        re-rates every flow.  A flow whose rate changed is settled at
        its old rate up to now and gets a fresh completion deadline;
        a flow whose rate did not change keeps its deadline, so its
        completion time is computed once per rate, not once per event.
        """
        now = self.sim._now
        if tx_nic is None:
            sides = [nic.tx_flows for nic in self.nics]
        else:
            sides = (tx_nic.tx_flows, rx_nic.rx_flows)
        bw = self.spec.bandwidth
        faults = self.faults
        if faults is not None and not faults.windowed:
            faults = None  # every factor is 1.0
        push = self._due.push
        for flows in sides:
            for flow in flows:
                tx_n = len(flow.tx_nic.tx_flows)
                rx_n = len(flow.rx_nic.rx_flows)
                rate = bw / tx_n if tx_n > rx_n else bw / rx_n
                if faults is not None:
                    # Degradation windows scale a flow's share; installed
                    # fault plans re-rate every flow at each window edge,
                    # so the piecewise-constant rate stays exact.
                    rate *= faults.bandwidth_factor(flow.src, flow.dst, now)
                old = flow.rate
                if rate == old:
                    continue
                if old:
                    left = flow.remaining - old * (now - flow.last)
                    flow.remaining = left if left > 0.0 else 0.0
                flow.last = now
                flow.rate = rate
                push(now + flow.remaining / rate, flow.order, flow)
        self._due.arm()

    def _complete(self, flow: _Transfer) -> None:
        """A flow's completion is due: it has serialized."""
        flow.remaining = 0.0
        tx_nic = flow.tx_nic
        rx_nic = flow.rx_nic
        tx_flows = tx_nic.tx_flows
        rx_flows = rx_nic.rx_flows
        del tx_flows[flow]
        del rx_flows[flow]
        self._release(flow)
        if tx_flows or rx_flows:
            # Sides left empty have no flow to re-rate.
            self._rebalance(tx_nic, rx_nic)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def start_transfer(
        self, src: int, dst: int, nbytes: float, delay: float = 0.0
    ) -> Event:
        """Start a timed transfer ``delay`` seconds from now; the returned
        event fires on arrival.

        Holds one TX channel at the source and one RX channel at the
        destination for the (contended) serialization time; the
        propagation latency is charged after the channels are released.
        ``delay`` (a sender's software overhead) passes before the
        transfer reaches the NIC.
        """
        n = len(self.nics)
        if not (0 <= src < n and 0 <= dst < n):
            self._check_node(src)
            self._check_node(dst)
        if not 0.0 <= nbytes < _INF:
            # Also rejects NaN/inf: a non-finite size would poison the
            # fluid-rate arithmetic and hang the flow engine.
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes!r}")

        sim = self.sim
        if src == dst:
            copy = self.spec.local_latency + nbytes / self.spec.local_bandwidth
            if not delay:
                return sim.timeout(copy)
            done = sim.event("copy")
            sim.timeout(delay).callbacks.append(
                lambda _ev: done.succeed(delay=copy)
            )
            return done

        name = self._flow_names.get((src, dst))
        if name is None:
            name = f"flow:{src}->{dst}"
            self._flow_names[(src, dst)] = name
        flow = _Transfer(self, src, dst, nbytes, name)
        if delay:
            # The overhead timer carries the flow.
            sim.timeout(delay, flow).callbacks.append(self._overhead_done_cb)
        else:
            self._begin(flow)
        return flow

    def _overhead_done(self, timer: Event) -> None:
        """A sender's overhead timer fired; its value is the flow."""
        self._begin(timer._value)

    def _begin(self, flow: _Transfer, held: bool = False) -> None:
        """The transfer reaches its NICs: take a TX channel, then an RX
        channel, queueing for each that is busy, then admit the flow.
        ``held`` marks the end of a hang hold, which is not re-checked."""
        faults = self.faults
        if not held and faults is not None and faults.windowed:
            # A hung endpoint's NIC is silent: hold the transfer (without
            # occupying channels) until the hang window closes.  Flows
            # already serializing are not paused — the hold models
            # admission at the NIC, which keeps the fluid model simple.
            now = self.sim._now
            release = faults.hold_until(flow.src, flow.dst, now)
            if release > now:
                self.sim.timeout(release - now).callbacks.append(
                    lambda _ev: self._begin(flow, held=True)
                )
                return
        tx = flow.tx_nic.tx_channels
        if not tx.try_acquire():
            tx.request().callbacks.append(lambda _ev: self._acquire_rx(flow))
            return
        rx = flow.rx_nic.rx_channels
        if not rx.try_acquire():
            rx.request().callbacks.append(lambda _ev: self._admit(flow))
            return
        # _admit, inlined: both channels were free, the common case.
        if self.obs.enabled:
            self.obs.gauge_add(f"link.{flow.src}->{flow.dst}", 1, node=flow.src)
        self._start_flow(flow)

    def _acquire_rx(self, flow: _Transfer) -> None:
        channels = flow.rx_nic.rx_channels
        if channels.try_acquire():
            self._admit(flow)
        else:
            channels.request().callbacks.append(lambda _ev: self._admit(flow))

    def _admit(self, flow: _Transfer) -> None:
        obs = self.obs
        if obs.enabled:
            obs.gauge_add(f"link.{flow.src}->{flow.dst}", 1, node=flow.src)
        self._start_flow(flow)

    def _release(self, flow: _Transfer) -> None:
        """Serialization done: free the channels, then propagate."""
        src = flow.src
        dst = flow.dst
        obs = self.obs
        if obs.enabled:
            obs.gauge_add(f"link.{src}->{dst}", -1, node=src)
            obs.count(f"link.{src}->{dst}.bytes", flow.nbytes)
        flow.rx_nic.rx_channels.release()
        flow.tx_nic.tx_channels.release()
        latency = self.spec.latency
        faults = self.faults
        if faults is not None and faults.windowed:
            latency *= faults.latency_factor(src, dst, self.sim._now)
        # Inlined succeed(delay=latency): a flow is released once.
        flow._value = None
        self.sim._schedule(flow, latency)

    def _account(self, flow: _Transfer) -> None:
        nbytes = int(flow.nbytes)
        flow.tx_nic.bytes_sent += nbytes
        flow.rx_nic.bytes_received += nbytes
        self.total_bytes += nbytes
        self.total_messages += 1

    def transfer(self, src: int, dst: int, nbytes: float):
        """Process generator performing a timed transfer.

        Use as ``yield from net.transfer(src, dst, nbytes)``; it waits on
        :meth:`start_transfer`'s event.
        """
        yield self.start_transfer(src, dst, nbytes)
