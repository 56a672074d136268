"""SWIM-style gossip membership: scalable failure detection.

The heartbeat ring (:class:`repro.core.faults.HeartbeatRing`) funnels
every suspect report into the head over one tag — an O(N) fan-in per
window that the §7-style control-plane scaling work (ROADMAP item 2)
cannot afford at 1000+ nodes.  :class:`GossipMembership` replaces the
ring for sharded runs with the SWIM protocol (Das, Gupta, Motivala,
DSN'02):

* every protocol period each live node *probes* one peer, chosen from a
  seeded random permutation (round-robin over a shuffled cycle, so
  every peer is probed within one pass and expected detection latency
  is O(1) periods);
* a silent target is re-checked through ``fanout`` *indirect probers*
  before it is suspected — a lossy or congested direct link does not
  kill a healthy node;
* membership updates (suspicions, refutations, confirmed deaths) are
  *piggybacked* on the probe/ack traffic already flowing, each update
  retransmitted O(log N) times — epidemic dissemination without any
  extra message streams;
* a node that hears itself suspected *refutes* with a bumped
  incarnation number, which overrides the suspicion in every view.

The suspect→confirm pipeline is the ring's, verbatim: suspicions are
reported to the current :attr:`head`, which pings the suspect directly
and declares it dead only on silence (``suspicions_cleared`` /
``false_positives`` account exactly like the ring's).  A suspected
*head* is confirmed by the suspecting node plus an indirect witness —
the ring's neighbor quorum, with gossip peers for neighbors.  Confirmed
deaths are irrevocable: the ``dead`` state overrides any incarnation,
so a confirmed-dead node can never be resurrected into any view.

The class is interface-compatible with :class:`HeartbeatRing`
(``start``/``stop``/``rebase``, ``on_detect``/``on_head_detect``,
``detections``/``suspicions_cleared``/``false_positives``/
``missed_windows``) so both runtimes swap it in behind
``OMPCConfig.gossip`` without touching the failover machinery.  All
traffic rides a dedicated datagram MPI service communicator (excluded
from the MPI checker, no retransmits — a lost probe is information),
and the periodic waits go through the shared
:class:`~repro.core.faults._TimerWheel` so an N-node deployment costs
O(1) timer events per period.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.cluster.machine import Cluster
from repro.core.config import OMPCConfig
from repro.core.events import EventSystem
from repro.mpi.comm import MpiWorld
from repro.sim.primitives import AnyOf
from repro.util.rng import derive_rng
from repro.util.units import MILLISECOND

#: All gossip protocol messages (ping/pingreq/suspect/confirm) share one
#: tag so every listener is a single O(1)-matched receive class.
GOSSIP_TAG = 1
#: Ack and indirect-probe replies use per-probe tags above this base.
_REPLY_TAG_BASE = 16

#: Membership states in override order: ``dead`` beats everything at any
#: incarnation; between ``alive`` and ``suspect`` the higher incarnation
#: wins, with ``suspect`` shading ``alive`` at equal incarnation.
ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"


def _overrides(status: str, inc: int, old_status: str, old_inc: int) -> bool:
    """SWIM update-precedence: does ``(status, inc)`` replace the old?"""
    if old_status == DEAD:
        return False  # confirmed deaths are irrevocable
    if status == DEAD:
        return True
    if inc != old_inc:
        return inc > old_inc
    return status == SUSPECT and old_status == ALIVE


class GossipMembership:
    """SWIM probe/indirect-probe/dissemination failure detection.

    Drop-in for :class:`~repro.core.faults.HeartbeatRing` behind
    ``OMPCConfig.gossip``; see the module docstring for the protocol.
    """

    def __init__(
        self,
        cluster: Cluster,
        mpi: MpiWorld,
        events: EventSystem,
        interval: float = 1.0 * MILLISECOND,
        ping_timeout: float = 1.0 * MILLISECOND,
        fanout: int = 3,
        piggyback: int = 8,
        seed: int = 0,
        heartbeat_bytes: float = 16.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if ping_timeout <= 0:
            raise ValueError("ping_timeout must be > 0")
        if fanout < 0:
            raise ValueError("fanout must be >= 0")
        if piggyback < 1:
            raise ValueError("piggyback must be >= 1")
        self.cluster = cluster
        self.sim = cluster.sim
        self.events = events
        self.interval = interval
        self.ping_timeout = ping_timeout
        self.fanout = fanout
        self.piggyback = piggyback
        self.seed = seed
        self.heartbeat_bytes = heartbeat_bytes
        self.head = 0
        self.comm = mpi.new_communicator(reliable=False, service=True)
        self.obs = cluster.obs
        self.on_detect: Callable[[int, int], None] | None = None
        self.on_head_detect: Callable[[int, int], None] | None = None
        #: (dead_node, detected_by, detection_time) — ring-compatible.
        self.detections: list[tuple[int, int, float]] = []
        self.suspicions_cleared = 0
        self.false_positives = 0
        #: Probe windows that elapsed without an ack (raw misses).
        self.missed_windows = 0
        #: Completed protocol periods (the ticker's count).
        self.rounds = 0
        #: Membership event log: ``(time, node, event, subject)`` —
        #: probes are not logged, state transitions are.
        self.timeline: list[tuple[float, int, str, int]] = []
        #: Per-death convergence: dead node → (declared_at, rounds_then,
        #: converged_at, rounds_at_convergence); the last two appear once
        #: every live view holds the death.
        self.convergence: dict[int, list[float]] = {}
        self._dead: set[int] = set()
        self._confirming: set[int] = set()
        self._stopped = False
        self._reply_seq = itertools.count()
        n = cluster.num_nodes
        #: Per-node membership views, deviations only: a node absent
        #: from a view is implicitly ``(ALIVE, 0)`` — O(failures), not
        #: O(N²), in memory.
        self._views: list[dict[int, tuple[str, int]]] = [
            {} for _ in range(n)
        ]
        #: Per-node dissemination queues: target → [status, inc, sends].
        #: Entries retire after ``_max_sends`` piggybacked transmissions
        #: (the SWIM O(log N) retransmission budget).
        self._queue: list[dict[int, list]] = [{} for _ in range(n)]
        self._max_sends = 3 * max(1, (n - 1).bit_length()) + 4
        #: Own incarnation numbers (bumped on self-refutation).
        self._incarnation = [0] * n
        #: Nodes waiting on a confirmed death: how many live views hold
        #: it already (drives the convergence metric in O(1) per update).
        self._conf_seen: dict[int, set[int]] = {}
        from repro.core.faults import _TimerWheel  # avoid import cycle

        self.wheel = _TimerWheel(self.sim)
        self._after = self.wheel.after

    @classmethod
    def from_config(cls, cluster: Cluster, mpi: MpiWorld,
                    events: EventSystem,
                    cfg: OMPCConfig) -> "GossipMembership":
        """The membership an :class:`~repro.core.config.OMPCConfig`
        with ``gossip=True`` asks for."""
        return cls(
            cluster, mpi, events,
            interval=cfg.gossip_interval,
            ping_timeout=cfg.heartbeat_ping_timeout,
            fanout=cfg.gossip_fanout,
            piggyback=cfg.gossip_piggyback,
            seed=cfg.gossip_seed,
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        n = self.cluster.num_nodes
        if n < 2:
            return
        for node in range(n):
            self.sim.process(self._listener(node), name=f"gsp-listen{node}")
            self.sim.process(self._prober(node), name=f"gsp-probe{node}")
        self.sim.process(self._ticker(), name="gsp-ticker")

    def rebase(self, new_head: int) -> None:
        """Move the confirm authority to an elected head (failover)."""
        self.head = new_head

    def stop(self) -> None:
        self._stopped = True

    # -- views -------------------------------------------------------------
    def _alive(self, node: int) -> bool:
        return not self.events.node_failed(node) and node not in self._dead

    def view_of(self, node: int) -> dict[int, tuple[str, int]]:
        """``node``'s membership deviations (absent ⇒ alive, inc 0)."""
        return dict(self._views[node])

    def dead_view(self, node: int) -> frozenset[int]:
        """The set of peers ``node``'s view holds confirmed dead."""
        return frozenset(
            peer for peer, (status, _inc) in self._views[node].items()
            if status == DEAD
        )

    def live_nodes(self) -> list[int]:
        return [n for n in range(self.cluster.num_nodes) if self._alive(n)]

    def _apply(self, node: int, target: int, status: str, inc: int) -> None:
        """Apply one membership update to ``node``'s view; requeue it
        for further dissemination when it changed anything."""
        view = self._views[node]
        old_status, old_inc = view.get(target, (ALIVE, 0))
        if not _overrides(status, inc, old_status, old_inc):
            return
        view[target] = (status, inc)
        self.timeline.append((self.sim.now, node, status, target))
        self._enqueue(node, target, status, inc)
        if status == DEAD:
            seen = self._conf_seen.get(target)
            if seen is not None:
                seen.add(node)
                self._check_converged(target)
        elif status == SUSPECT and target == node:
            # Alive and suspected: refute with a bumped incarnation.
            self._incarnation[node] = new_inc = max(
                self._incarnation[node], inc
            ) + 1
            view[node] = (ALIVE, new_inc)
            self._enqueue(node, node, ALIVE, new_inc)
            self.obs.count("gossip.refutes")

    def _enqueue(self, node: int, target: int, status: str, inc: int) -> None:
        self._queue[node][target] = [status, inc, 0]

    def _updates_from(self, node: int) -> list[tuple[int, str, int]]:
        """Up to ``piggyback`` pending updates, retiring exhausted ones."""
        queue = self._queue[node]
        picked: list[tuple[int, str, int]] = []
        spent: list[int] = []
        for target, entry in queue.items():
            if len(picked) >= self.piggyback:
                break
            status, inc, sends = entry
            picked.append((target, status, inc))
            entry[2] = sends + 1
            if entry[2] >= self._max_sends:
                spent.append(target)
        for target in spent:
            del queue[target]
        return picked

    def _absorb(self, node: int, updates) -> None:
        for target, status, inc in updates:
            self._apply(node, target, status, inc)
            if (
                status == SUSPECT
                and node == self.head
                and target != node
            ):
                self._head_confirm(target, node)

    def _check_converged(self, target: int) -> None:
        seen = self._conf_seen.get(target)
        if seen is None:
            return
        live = set(self.live_nodes())
        if live <= seen:
            declared_at, rounds_then = self.convergence[target][:2]
            self.convergence[target] = [
                declared_at, rounds_then,
                self.sim.now, float(self.rounds),
            ]
            del self._conf_seen[target]
            self.obs.count("gossip.convergence_rounds",
                           self.rounds - rounds_then)
            self.obs.gauge_set(
                "gossip.convergence_ms",
                (self.sim.now - declared_at) * 1e3,
            )

    # -- protocol processes -------------------------------------------------
    def _ticker(self):
        while not self._stopped:
            yield self._after(self.interval)
            if self._stopped:
                return
            self.rounds += 1
            self.obs.count("gossip.rounds")

    def _probe_order(self, node: int):
        """Seeded round-robin probe targets: a fresh shuffled pass over
        all peers each cycle, per SWIM's bounded-detection rule."""
        rng = derive_rng(self.seed, "gossip-probe", str(node))
        peers = [p for p in range(self.cluster.num_nodes) if p != node]
        while True:
            order = list(rng.permutation(len(peers)))
            for idx in order:
                yield peers[idx]

    def _prober(self, node: int):
        order = self._probe_order(node)
        helper_rng = derive_rng(self.seed, "gossip-indirect", str(node))
        while not self._stopped:
            period_end = self.sim.now + self.interval
            if self.events.node_failed(node):
                return
            target = next(
                (t for t in itertools.islice(order, self.cluster.num_nodes)
                 if self._views[node].get(t, (ALIVE, 0))[0] != DEAD
                 and t not in self._dead),
                None,
            )
            if target is None:
                return  # everyone else is confirmed dead
            self.obs.count("gossip.pings")
            acked = yield from self._ping(node, target)
            if self._stopped or self.events.node_failed(node):
                return
            if not acked:
                self.missed_windows += 1
                self.obs.count("gossip.missed_probes")
                acked = yield from self._indirect(node, target, helper_rng)
                if self._stopped or self.events.node_failed(node):
                    return
            if not acked and target not in self._dead:
                self._raise_suspicion(node, target)
            remainder = period_end - self.sim.now
            if remainder > 0:
                yield self._after(remainder)

    def _raise_suspicion(self, node: int, target: int) -> None:
        inc = self._views[node].get(target, (ALIVE, 0))[1]
        self.obs.count("gossip.suspects")
        self._apply(node, target, SUSPECT, inc)
        if target == self.head:
            # Suspecting the head cannot route through the head: the
            # direct probe and the indirect witnesses already failed —
            # the ring's neighbor quorum, with gossip peers as
            # neighbors — so the suspecting node escalates itself.
            if target not in self._dead and target not in self._confirming:
                self._confirming.add(target)
                self.sim.process(
                    self._confirm(target, node, direct_ping=False),
                    name=f"gsp-headconfirm{target}",
                )
            return
        # Report to the head for the suspect→confirm pipeline (the
        # piggybacked suspicion also diffuses epidemically).
        rank = self.comm.rank(node)
        rank.isend(self.head, ("suspect", target, node,
                               self._updates_from(node)),
                   self.heartbeat_bytes, tag=GOSSIP_TAG)

    def _head_confirm(self, suspect: int, reporter: int) -> None:
        if suspect in self._dead or suspect in self._confirming:
            return
        self._confirming.add(suspect)
        self.sim.process(
            self._confirm(suspect, reporter), name=f"gsp-confirm{suspect}"
        )

    def _confirm(self, suspect: int, reporter: int, direct_ping: bool = True):
        """Head-side (or head-suspicion) confirm: ping, declare on silence."""
        try:
            if direct_ping:
                pinger = self.head
                if self.events.node_failed(pinger):
                    return
                acked = yield from self._ping(pinger, suspect)
                if self._stopped or suspect in self._dead:
                    return
                if acked:
                    self.suspicions_cleared += 1
                    self.obs.count("gossip.suspicions_cleared")
                    inc = self._views[pinger].get(suspect, (ALIVE, 0))[1]
                    self._apply(pinger, suspect, ALIVE, inc + 1)
                    return
            if not self.events.node_failed(suspect):
                self.false_positives += 1
                self.obs.count("gossip.false_positives")
            self._declare(suspect, reporter if not direct_ping else self.head)
        finally:
            self._confirming.discard(suspect)

    def _declare(self, dead: int, by: int) -> None:
        if dead in self._dead:
            return
        self._dead.add(dead)
        self.detections.append((dead, by, self.sim.now))
        self.obs.count("gossip.confirms")
        self.convergence[dead] = [self.sim.now, float(self.rounds)]
        self._conf_seen[dead] = set()
        # The confirmation is broadcast once (like the failover
        # announcement round) and also rides the piggyback stream, so
        # every live view converges on the death within ~one period.
        rank = self.comm.rank(by)
        for peer in self.live_nodes():
            if peer != by:
                rank.isend(peer, ("confirm", dead, by, ()),
                           self.heartbeat_bytes, tag=GOSSIP_TAG)
        self._apply(by, dead, DEAD, 0)
        self._check_converged(dead)
        if dead == self.head and self.on_head_detect is not None:
            self.on_head_detect(dead, by)
        elif self.on_detect is not None:
            self.on_detect(dead, by)

    def _ping(self, pinger: int, target: int):
        """Generator: one direct probe; True iff the ack arrived in time."""
        reply_tag = _REPLY_TAG_BASE + next(self._reply_seq)
        rank = self.comm.rank(pinger)
        ack = rank.irecv(src=target, tag=reply_tag)
        rank.isend(target, ("ping", pinger, reply_tag,
                            self._updates_from(pinger)),
                   self.heartbeat_bytes, tag=GOSSIP_TAG)
        yield AnyOf(self.sim, [ack.event,
                               self.sim.timeout(self.ping_timeout)])
        if ack.test():
            self._absorb(pinger, ack.event.value.payload[3])
            return True
        ack.cancel()
        return False

    def _indirect(self, node: int, target: int, rng):
        """Generator: ask ``fanout`` seeded peers to probe ``target``.

        True iff any helper reached it.  Helpers answer only on
        success, so a dead target leaves nothing behind to leak.
        """
        helpers = [
            p for p in self.live_nodes()
            if p != node and p != target
        ]
        if not helpers or self.fanout == 0:
            return False
        k = min(self.fanout, len(helpers))
        chosen = [helpers[i] for i in rng.choice(len(helpers), size=k,
                                                 replace=False)]
        self.obs.count("gossip.indirect_probes", k)
        reply_tag = _REPLY_TAG_BASE + next(self._reply_seq)
        rank = self.comm.rank(node)
        replies = [rank.irecv(src=h, tag=reply_tag) for h in chosen]
        for helper in chosen:
            rank.isend(helper, ("pingreq", node, target, reply_tag,
                                self._updates_from(node)),
                       self.heartbeat_bytes, tag=GOSSIP_TAG)
        budget = self.sim.timeout(2.0 * self.ping_timeout)
        yield AnyOf(self.sim, [r.event for r in replies] + [budget])
        reached = False
        for req in replies:
            if req.test():
                self._absorb(node, req.event.value.payload[3])
                reached = True
            else:
                req.cancel()
        return reached

    def _helper(self, node: int, requester: int, target: int,
                reply_tag: int):
        """Generator: indirect probe on a requester's behalf; reply only
        when the target answered (silence = assent to the suspicion)."""
        acked = yield from self._ping(node, target)
        if acked and not self.events.node_failed(node):
            self.comm.rank(node).isend(
                requester, ("preached", node, target,
                            self._updates_from(node)),
                self.heartbeat_bytes, tag=reply_tag,
            )

    def _listener(self, node: int):
        rank = self.comm.rank(node)
        while not self._stopped:
            msg = yield from rank.recv(tag=GOSSIP_TAG)
            if self._stopped:
                return
            if self.events.node_failed(node):
                return  # a dead node answers nothing
            kind = msg.payload[0]
            if kind == "ping":
                _kind, src, reply_tag, updates = msg.payload
                self._absorb(node, updates)
                rank.isend(src, ("ack", node, reply_tag,
                                 self._updates_from(node)),
                           self.heartbeat_bytes, tag=reply_tag)
            elif kind == "pingreq":
                _kind, requester, target, reply_tag, updates = msg.payload
                self._absorb(node, updates)
                self.sim.process(
                    self._helper(node, requester, target, reply_tag),
                    name=f"gsp-helper{node}",
                )
            elif kind == "suspect":
                _kind, suspect, reporter, updates = msg.payload
                self._absorb(node, updates)
                if node == self.head and suspect != node:
                    self._head_confirm(suspect, reporter)
            elif kind == "confirm":
                _kind, dead, _by, updates = msg.payload
                self._absorb(node, updates)
                self._apply(node, dead, DEAD, 0)
