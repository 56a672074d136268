"""The incremental flow engine against the O(F) reference engine.

:class:`~repro.cluster.network.Network` re-rates only the flows sharing
a NIC side with a flow that started or finished and times completions
from a heap keyed ``(fire time, start order)``.  The reference engine in
``tests/reference_network.py`` re-rates every flow at every start and
finish.  Both must agree on the physics:

* every transfer arrives at the same time, to relative 1e-9 (the two
  engines round progress differently, so equality is not promised);
* arrivals come in the same order, except between arrivals whose times
  agree to within that tolerance;
* byte and message counters, fabric-wide and per NIC, are exact.

Generated cases cover 2–16 nodes, sizes including 0 bytes, start times
on a coarse grid so that many flows start at the same instant, 1–4
VCIs so that channels queue, and optional link-degradation windows
(which re-rate every flow at each window edge).
"""

from __future__ import annotations

import math
from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NetworkSpec
from repro.core import FaultPlan, LinkDegradation

from tests.reference_network import reference_network

REL = 1e-9
#: Start-time grid: coarse enough that same-instant starts are common.
TICK = 20e-6


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(min_value=2, max_value=16))
    node = st.integers(min_value=0, max_value=nodes - 1)
    size = st.one_of(
        st.just(0.0),
        st.floats(min_value=1.0, max_value=2e6, allow_nan=False),
    )
    transfers = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=8), node, node, size),
        min_size=1, max_size=40,
    ))
    # Inter-node traffic only: a same-node copy never reaches a NIC.
    transfers = [t for t in transfers if t[1] != t[2]] or [(0, 0, 1, 1e6)]
    windows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=1, max_value=8),
            st.sampled_from([0.25, 0.5, 2.0]),
            st.sampled_from([1.0, 3.0]),
            st.one_of(st.none(), node),
            st.one_of(st.none(), node),
        ),
        max_size=3,
    ))
    degradations = [
        LinkDegradation(start=start * TICK, end=(start + span) * TICK,
                        bandwidth_factor=bw, latency_factor=lat,
                        src=src, dst=dst)
        for start, span, bw, lat, src, dst in windows
    ]
    vcis = draw(st.integers(min_value=1, max_value=4))
    return nodes, vcis, transfers, degradations


def _run(nodes, vcis, transfers, degradations, reference: bool):
    with reference_network() if reference else nullcontext():
        cluster = Cluster(ClusterSpec(
            num_nodes=nodes, network=NetworkSpec(vcis=vcis),
        ))
        if degradations:
            FaultPlan(degradations=degradations).install(cluster)
        net = cluster.network
        sim = cluster.sim
        arrivals: list[tuple[int, float]] = []

        def start(i, src, dst, nbytes):
            done = net.start_transfer(src, dst, nbytes)
            done.callbacks.append(lambda _ev: arrivals.append((i, sim.now)))

        for i, (tick, src, dst, nbytes) in enumerate(transfers):
            sim.timeout(tick * TICK).callbacks.append(
                lambda _ev, a=(i, src, dst, nbytes): start(*a)
            )
        sim.run()
        counters = (
            net.total_bytes, net.total_messages,
            [(nic.bytes_sent, nic.bytes_received) for nic in net.nics],
        )
        return arrivals, counters


@given(scenarios())
@settings(deadline=None, max_examples=150)
def test_engine_matches_reference(case):
    new, new_counts = _run(*case, reference=False)
    ref, ref_counts = _run(*case, reference=True)
    assert new_counts == ref_counts
    assert len(new) == len(ref) == len(case[2])
    when = dict(ref)
    for i, t in new:
        assert math.isclose(t, when[i], rel_tol=REL), (i, t, when[i])
    # Same order, except among arrivals that tie within the tolerance.
    rank = {i: k for k, (i, _t) in enumerate(ref)}
    for k, (a, _ta) in enumerate(new):
        for b, _tb in new[k + 1:]:
            if rank[b] < rank[a]:
                assert math.isclose(when[a], when[b], rel_tol=REL), (a, b)


def test_same_instant_pair_completes_in_start_order():
    # Two equal flows into one receiver, started at the same instant,
    # finish at the same float time: the earlier-started one first.
    cluster = Cluster(ClusterSpec(num_nodes=3))
    net = cluster.network
    order = []
    for src in (1, 0):
        net.start_transfer(src, 2, 1e6).callbacks.append(
            lambda _ev, s=src: order.append((s, cluster.sim.now))
        )
    cluster.sim.run()
    assert [s for s, _t in order] == [1, 0]
    assert order[0][1] == order[1][1]
