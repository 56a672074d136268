"""The callback-chain reliable transport against the generator reference.

:mod:`repro.mpi.comm` runs a reliable send, its acks and its
retransmit deadlines without simulator processes: a send and each ack
are callback chains over :meth:`~repro.cluster.network.Network.start_transfer`,
and every deadline sits on one heap per world with a single timer.  The
reference in ``tests/reference_transport.py`` is the generator
transport it replaced (one process per send and one per ack, an
``AnyOf`` race per attempt).  Both must agree exactly:

* every send request completes at the same time, or fails with the same
  :class:`~repro.mpi.errors.MpiError` at the same time;
* every receive queue delivers the same messages, at the same times and
  in the same order;
* ``mpi.stats`` (drops, retransmissions, acks, duplicates) and the
  fabric's byte and message counters are equal.

Generated cases cover 2–8 nodes, loss 0–0.5 on every link or on single
directed links (which drops only data one way and only acks the other
way), 0–4 retries, sizes from 0 bytes to 2 MB, 1–4 VCIs, with and
without per-message overhead, fire-and-forget sends issued on a coarse
time grid, and blocking send chains whose next send waits for the
previous ack.
"""

from __future__ import annotations

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NetworkSpec
from repro.core import FaultPlan, LinkLoss
from repro.mpi import ANY_SOURCE, MpiError, MpiWorld, TransportConfig

from tests.reference_transport import reference_transport

#: Issue-time grid: coarse enough that same-instant sends are common.
TICK = 20e-6
SIZES = st.sampled_from([0.0, 16.0, 1000.0, 65536.0, 2e6]) | st.floats(
    min_value=1.0, max_value=2e6, allow_nan=False)


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=nodes - 1)
    prob = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
    rules = draw(st.lists(
        st.tuples(st.one_of(st.none(), node), st.one_of(st.none(), node),
                  prob),
        max_size=3,
    ))
    losses = [LinkLoss(probability=p, src=s, dst=d) for s, d, p in rules]
    message = st.tuples(st.integers(min_value=0, max_value=8), node, node,
                        SIZES, st.integers(min_value=0, max_value=2))
    sends = [m for m in draw(st.lists(message, max_size=24)) if m[1] != m[2]]
    chains = draw(st.lists(
        st.tuples(node, st.lists(st.tuples(node, SIZES), min_size=1,
                                 max_size=6)),
        max_size=3,
    ))
    chains = [(src, [(dst, size) for dst, size in hops if dst != src])
              for src, hops in chains]
    if not sends and not any(hops for _src, hops in chains):
        sends = [(0, 0, 1, 1000.0, 0)]
    return dict(
        nodes=nodes,
        vcis=draw(st.integers(min_value=1, max_value=4)),
        overhead=draw(st.sampled_from([0.0, 0.5e-6])),
        max_retries=draw(st.integers(min_value=0, max_value=4)),
        plan_seed=draw(st.integers(min_value=0, max_value=2**16)),
        losses=losses,
        sends=sends,
        chains=chains,
    )


def _run(case, reference: bool):
    with reference_transport() if reference else nullcontext():
        cluster = Cluster(ClusterSpec(
            num_nodes=case["nodes"], network=NetworkSpec(vcis=case["vcis"]),
        ))
        if case["losses"]:
            FaultPlan(seed=case["plan_seed"],
                      losses=case["losses"]).install(cluster)
        mpi = MpiWorld(cluster, overhead=case["overhead"],
                       transport=TransportConfig(
                           max_retries=case["max_retries"]))
        sim = cluster.sim
        world = mpi.world
        outcomes: dict[str, tuple] = {}
        deliveries: dict[int, list[tuple]] = {n: [] for n in
                                              range(case["nodes"])}

        def record(key):
            def done(ev):
                outcomes[key] = ((sim.now, "ok") if ev.ok
                                 else (sim.now, str(ev.value)))
            return done

        def issue(i, src, dst, nbytes, tag):
            req = world.rank(src).isend(dst, f"m{i}", nbytes=nbytes, tag=tag)
            req.event.callbacks.append(record(f"m{i}"))

        for i, (tick, src, dst, nbytes, tag) in enumerate(case["sends"]):
            sim.timeout(tick * TICK).callbacks.append(
                lambda _ev, a=(i, src, dst, nbytes, tag): issue(*a))

        def chain(c, src, hops):
            rank = world.rank(src)
            for k, (dst, nbytes) in enumerate(hops):
                key = f"c{c}.{k}"
                try:
                    yield from rank.send(dst, key, nbytes=nbytes, tag=3)
                    outcomes[key] = (sim.now, "ok")
                except MpiError as exc:
                    outcomes[key] = (sim.now, str(exc))

        for c, (src, hops) in enumerate(case["chains"]):
            sim.process(chain(c, src, hops))

        def receiver(node):
            rank = world.rank(node)
            while True:
                msg = yield from rank.recv(src=ANY_SOURCE)
                deliveries[node].append(
                    (sim.now, msg.src, msg.tag, msg.payload))

        for node in range(case["nodes"]):
            sim.process(receiver(node))
        sim.run()
        net = cluster.network
        counters = (dict(mpi.stats), net.total_bytes, net.total_messages)
        return outcomes, deliveries, counters


@given(scenarios())
@settings(deadline=None, max_examples=150)
def test_transport_matches_reference(case):
    new = _run(case, reference=False)
    ref = _run(case, reference=True)
    outcomes, deliveries, counters = new
    ref_outcomes, ref_deliveries, ref_counters = ref
    assert outcomes == ref_outcomes
    assert deliveries == ref_deliveries
    assert counters == ref_counters


def test_ack_during_retransmission_completes_on_that_copy():
    # One VCI per side.  The first copy of m0 (16 B, 0 -> 1) arrives at
    # once, but its ack (1 -> 0) queues behind m1's 2 MB flow on node
    # 1's TX side, past the retransmit deadline.  The retransmission
    # queues behind m2's 2 MB flow on node 0's TX side, and the late ack
    # lands while it waits: the send completes when that copy arrives,
    # not when the ack did.
    case = dict(nodes=2, vcis=1, overhead=0.5e-6, max_retries=4,
                plan_seed=0, losses=[],
                sends=[(0, 0, 1, 16.0, 0), (0, 1, 0, 2e6, 1),
                       (3, 0, 1, 2e6, 2)],
                chains=[])
    new = _run(case, reference=False)
    assert new == _run(case, reference=True)
    outcomes, deliveries, (stats, _bytes, _msgs) = new
    assert stats["retransmissions"] == 1 and stats["duplicates"] == 1
    # m0 completed when m2 (queued ahead of its second copy) was through.
    m2_at = next(t for t, _src, _tag, p in deliveries[1] if p == "m2")
    assert outcomes["m0"][0] > m2_at


def test_same_deadline_expires_in_arm_order():
    # m0 (0 -> 1) and m1 (0 -> 2) are the same size and share node 0's
    # TX side, so they arrive, and arm their deadlines, at the same
    # instant (m0 first: it started first).  Every ack back to node 0
    # from 1 or 2 is lost.  When the deadlines expire, m2's 2 MB flow
    # holds one of node 0's two VCIs: the retransmission expired first
    # takes the free one, the other queues behind m2.
    case = dict(nodes=4, vcis=2, overhead=0.5e-6, max_retries=1,
                plan_seed=0,
                losses=[LinkLoss(probability=1.0, src=1, dst=0),
                        LinkLoss(probability=1.0, src=2, dst=0)],
                sends=[(0, 0, 1, 1000.0, 0), (0, 0, 2, 1000.0, 0),
                       (1, 0, 3, 2e6, 0)],
                chains=[])
    new = _run(case, reference=False)
    assert new == _run(case, reference=True)
    outcomes = new[0]
    assert "unacked after 1 retries" in outcomes["m0"][1]
    assert outcomes["m0"][0] < outcomes["m1"][0]
