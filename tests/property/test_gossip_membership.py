"""Property tests for the convergence of gossip membership.

Two protocol invariants, checked across seeds and failure schedules:

* **Bounded convergence** — after nodes die, every surviving node's
  membership view converges to the same confirmed-dead set, and the
  dissemination tail (declaration → last live view updated) is bounded
  in protocol rounds.  SWIM's epidemic piggyback plus the one-shot
  confirm broadcast makes this a small constant, not O(N).

* **No resurrection** — a confirmed death is irrevocable.  Once any
  view holds a node ``dead``, no later timeline entry may flip that
  view back to ``alive`` or ``suspect``, whatever incarnation numbers
  or stale piggybacked updates arrive afterwards.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.events import EventSystem
from repro.core.gossip import DEAD, FailureDetector
from repro.mpi import MpiWorld

from tests.core.test_faults import FAST

#: Dissemination budget, in protocol rounds, from declaration to every
#: live view holding the death.  The confirm broadcast alone converges
#: in ~1 round; the bound leaves room for message latency under load.
CONVERGENCE_ROUNDS_BOUND = 8


def run_gossip(n, kill, seed, horizon=0.25, stop_at=0.2):
    """Run an n-node membership group, killing ``kill`` per schedule.

    ``kill`` is a list of (time, node) pairs.  Returns the membership
    object after the clock reaches ``horizon``.
    """
    cluster = Cluster(ClusterSpec(num_nodes=n))
    mpi = MpiWorld(cluster)
    events = EventSystem(cluster, mpi, FAST)
    events.start()
    membership = FailureDetector(cluster, mpi, events, gossip=True,
                                 seed=seed)
    membership.start()

    def chaos():
        now = 0.0
        for at, node in sorted(kill):
            if at > now:
                yield cluster.sim.timeout(at - now)
                now = at
            events.fail_node(node)
        yield cluster.sim.timeout(stop_at - now)
        membership.stop()

    cluster.sim.process(chaos())
    cluster.sim.run(until=horizon)
    return membership


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_live_views_converge_to_same_membership(seed):
    kill = [(0.02, 3), (0.05, 9)]
    membership = run_gossip(16, kill, seed)
    dead = {node for _t, node in kill}
    assert {d for d, _by, _t in membership.detections} == dead
    for node in membership.live_nodes():
        assert membership.dead_view(node) == dead, (
            f"node {node} (seed {seed}) never converged"
        )


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_convergence_within_bounded_rounds(seed):
    membership = run_gossip(16, [(0.02, 5)], seed)
    assert 5 in membership.convergence
    record = membership.convergence[5]
    assert len(record) == 4, "death was declared but never converged"
    declared_at, rounds_then, converged_at, rounds_at = record
    assert converged_at >= declared_at
    assert rounds_at - rounds_then <= CONVERGENCE_ROUNDS_BOUND, (
        f"seed {seed}: dissemination took {rounds_at - rounds_then} "
        f"rounds (bound {CONVERGENCE_ROUNDS_BOUND})"
    )


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_confirmed_dead_never_resurrected(seed):
    kill = [(0.02, 2), (0.03, 6), (0.06, 12)]
    membership = run_gossip(16, kill, seed)
    # Replay the timeline per (viewing node, subject): once a view
    # records ``dead``, every later entry for that subject stays dead.
    declared: set[tuple[int, int]] = set()
    for _t, node, status, target in membership.timeline:
        if (node, target) in declared:
            assert status == DEAD, (
                f"seed {seed}: view {node} resurrected node {target}"
            )
        if status == DEAD:
            declared.add((node, target))
    # And the final views agree the dead are dead.
    dead = {node for _t, node in kill}
    for node in membership.live_nodes():
        assert membership.dead_view(node) >= dead


@pytest.mark.parametrize("seed", [0, 5])
def test_no_false_positives_in_quiet_group(seed):
    membership = run_gossip(24, [], seed)
    assert membership.detections == []
    assert membership.false_positives == 0
    assert all(membership.dead_view(n) == frozenset()
               for n in range(24))


def test_mass_failure_converges():
    # A third of the group dies at once; survivors still agree.
    kill = [(0.02, n) for n in (2, 5, 8, 11, 14)]
    membership = run_gossip(16, kill, seed=13, horizon=0.4, stop_at=0.3)
    dead = {node for _t, node in kill}
    assert {d for d, _by, _t in membership.detections} == dead
    for node in membership.live_nodes():
        assert membership.dead_view(node) == dead
