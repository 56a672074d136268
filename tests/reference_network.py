"""The reference flow engine: the oracle of the network property test.

The production engine (:class:`repro.cluster.network.Network`) re-rates
only the flows that share a NIC side with a flow that started or
finished, and keeps a completion heap keyed ``(fire time, start
order)``.  It promises the completion times of the plain O(F) engine
kept here, to within floating-point rounding:

* every flow start or finish advances *every* active flow to the
  present and recomputes *every* fair-share rate;
* one timer per rebalance epoch targets the earliest completion,
  comparing rounded fire times with strict ``<`` in start order.

:func:`reference_network` installs it with ``monkeypatch`` for the
duration of a block.  Only the fluid engine is swapped: the transfer
path around it (hang hold, channel grants, channel release, latency,
byte accounting) is the production code in both runs.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.cluster.network import Network

_production_init = Network.__init__


def _init(self, sim, num_nodes, spec=None):
    _production_init(self, sim, num_nodes, spec)
    self._flows = {}
    self._last_update = 0.0
    self._epoch = 0
    self._tx_active = [0] * num_nodes
    self._rx_active = [0] * num_nodes


def _start_flow(self, flow):
    if flow.remaining <= 0.0:
        self._release(flow)
        return
    self._flows[flow] = None
    self._tx_active[flow.src] += 1
    self._rx_active[flow.dst] += 1
    self._rebalance()


def _advance_flows(self):
    now = self.sim.now
    elapsed = now - self._last_update
    if elapsed > 0:
        for flow in self._flows:
            left = flow.remaining - flow.rate * elapsed
            flow.remaining = left if left > 0.0 else 0.0
    self._last_update = now


def _rebalance(self, tx_nic=None, rx_nic=None):
    """Advance and re-rate every flow; time the earliest completion."""
    self._epoch += 1
    _advance_flows(self)
    now = self.sim.now
    bw = self.spec.bandwidth
    faults = self.faults
    next_flow = None
    next_eta = 0.0
    next_when = 0.0
    for flow in self._flows:
        tx_n = self._tx_active[flow.src]
        rx_n = self._rx_active[flow.dst]
        rate = bw / tx_n if tx_n > rx_n else bw / rx_n
        if faults is not None:
            rate *= faults.bandwidth_factor(flow.src, flow.dst, now)
        flow.rate = rate
        eta = flow.remaining / rate if rate > 0 else 0.0
        when = now + eta
        if next_flow is None or when < next_when:
            next_flow = flow
            next_eta = eta
            next_when = when
    if next_flow is not None:
        timer = self.sim.timeout(next_eta)
        timer.add_callback(
            lambda ev, f=next_flow, e=self._epoch: _on_timer(self, f, e)
        )


def _on_timer(self, flow, epoch):
    # A timer from an older epoch is stale: that rebalance's successor
    # scheduled the authoritative one.
    if epoch != self._epoch or flow not in self._flows:
        return
    _advance_flows(self)
    flow.remaining = 0.0
    del self._flows[flow]
    self._tx_active[flow.src] -= 1
    self._rx_active[flow.dst] -= 1
    self._release(flow)
    self._rebalance()


@contextmanager
def reference_network():
    """Run the block on the reference flow engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Network, "__init__", _init)
        mp.setattr(Network, "_start_flow", _start_flow)
        mp.setattr(Network, "_rebalance", _rebalance)
        yield
