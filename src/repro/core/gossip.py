"""Failure detection: one membership, two configurations.

§3.1 gives OMPC one liveness mechanism: "each node ... has a heart-beat
mechanism, connected in a ring topology, which allows nodes to monitor
their neighbors".  :class:`FailureDetector` implements it, and SWIM
gossip (Das, Gupta, Motivala, DSN'02) as a second configuration of the
same machinery, chosen by ``OMPCConfig.gossip``.  Both share:

* the public :attr:`~FailureDetector.dead` set — the nodes declared
  dead, which every node's view of the group excludes;
* one per-period tick (``interval``): the ring pushes each node's beat
  to its live successor, gossip counts a protocol round;
* the suspect → confirm step: a node that stops hearing a peer reports
  it to the current :attr:`~FailureDetector.head`, which pings the
  suspect and declares it dead only if no ack comes back within
  :data:`PING_TIMEOUT` — so a node behind a lossy or degraded link is
  cleared rather than killed;
* the head quorum: a suspected *head* cannot confirm itself, so the
  suspecting node decides with a second witness instead;
* the declaration, which fires ``on_detect`` — or ``on_head_detect``
  for the head, the failover trigger — and :meth:`~FailureDetector.
  rebase` to move the confirm authority to an elected head;
* one set of ``hb.*`` health counters (missed windows, suspect reports,
  cleared suspicions, false positives, detections).

The two configurations differ in who watches whom:

* **Ring** (the default).  Each node watches its live ring predecessor
  through pushed beats.  A watch window of :data:`RING_WINDOW` with no
  beat is a missed window; :data:`SUSPECT_WINDOWS` in a row raise a
  suspicion.  A suspected head is confirmed by the suspecting node's own
  ping plus a ping from the head's other live ring neighbour.  A head
  that leaves the same suspicion unheard for :data:`UNHEARD_REPORTS`
  reports in a row is itself suspected, so a head that dies together
  with its only watcher is still caught.
* **Gossip**.  Each period a node probes one peer, taken from a seeded
  shuffled order, with a ping/ack; a silent target is re-probed through
  :data:`FANOUT` indirect probers before it is suspected.  Membership
  updates ride piggybacked on that traffic, and a suspected node that
  hears of it refutes with a higher incarnation.  A suspected head is
  declared by the suspecting node itself: its direct and indirect
  probes are already the quorum.  A declaration is also broadcast once,
  so every live view converges on it within about one period.

Everything runs as timer and receive callbacks: the detector spawns no
simulator process.  Timers that end at the same instant share one event,
so the periodic work of an N-node group costs O(1) timer events per
period.  Beats, reports and gossip travel on a datagram service
communicator (a lost probe is information, not something to
retransmit); the ring's pings use a second communicator that inherits
the world's reliable transport.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.cluster.machine import Cluster
from repro.core.config import OMPCConfig
from repro.core.events import EventSystem
from repro.mpi.comm import MpiWorld
from repro.sim.core import Event
from repro.sim.primitives import AnyOf
from repro.util.rng import derive_rng
from repro.util.units import MILLISECOND

#: Beat / probe period of the ring (gossip takes
#: ``OMPCConfig.gossip_interval``).
INTERVAL = 1.0 * MILLISECOND
#: Ring watch window: a window this long without a beat is missed.
RING_WINDOW = 3.5 * MILLISECOND
#: Consecutive missed windows before a ring node suspects its predecessor
#: (the K of the suspect → confirm protocol).
SUSPECT_WINDOWS = 2
#: How long a pinger waits for the ack before taking silence as assent.
PING_TIMEOUT = 1.0 * MILLISECOND
#: Indirect probers asked to reach a silent gossip target (SWIM's k).
FANOUT = 3
#: Most membership updates piggybacked on one gossip message.
PIGGYBACK = 8
#: Root seed of the per-node gossip probe-order streams.
SEED = 0
#: Reports about one suspect the head may leave unheard, in a row,
#: before the ring reporter suspects the head instead.
UNHEARD_REPORTS = 2
#: Wire size of every detector message.
MESSAGE_BYTES = 16.0

#: All requests (beats, reports, pings, relays, confirms) share one tag,
#: so each node listens with one receive per communicator.
TAG = 1
#: Replies use a fresh tag per request above this base.
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


class FailureDetector:
    """The cluster's failure detector; see the module docstring.

    ``gossip=False`` is the §3.1 heartbeat ring, ``gossip=True`` SWIM
    gossip with one probe per node every ``interval``; ``seed`` roots
    the gossip probe orders.
    """

    def __init__(
        self,
        cluster: Cluster,
        mpi: MpiWorld,
        events: EventSystem,
        gossip: bool = False,
        interval: float = INTERVAL,
        seed: int = SEED,
    ):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if not gossip and interval >= RING_WINDOW:
            raise ValueError("the ring interval must be shorter than its "
                             f"{RING_WINDOW} s watch window")
        self.cluster = cluster
        self.sim = cluster.sim
        self.events = events
        self.gossip = gossip
        self.interval = interval
        self.seed = seed
        self.head = 0
        self.comm = mpi.new_communicator(reliable=False, service=True)
        self.ping_comm = (
            self.comm if gossip else mpi.new_communicator(service=True)
        )
        #: ``(dead, by)`` callbacks for a declared worker and head.
        self.on_detect: Callable[[int, int], None] | None = None
        self.on_head_detect: Callable[[int, int], None] | None = None
        #: Observability sink for the ``hb.*`` / ``gossip.*`` counters.
        self.obs = cluster.obs
        #: Nodes declared dead; declarations are permanent.
        self.dead: set[int] = set()
        #: (dead_node, detected_by, detection_time) records.
        self.detections: list[tuple[int, int, float]] = []
        #: Suspects that answered the confirm ping (kept alive).
        self.suspicions_cleared = 0
        #: Nodes declared dead that had not actually failed.
        self.false_positives = 0
        #: Ring windows without a beat, or gossip probes without an ack.
        self.missed_windows = 0
        #: Completed gossip periods.
        self.rounds = 0
        self._confirming: set[int] = set()
        self._stopped = False
        self._reply_seq = itertools.count()
        #: Pending timers by fire time: same-instant timers share one.
        self._timers: dict[float, Event] = {}
        n = cluster.num_nodes
        # -- ring state --------------------------------------------------
        #: Per node ``[watched, misses, window]``; ``window`` numbers the
        #: open watch window, so a stale window end is ignored.
        self._watch: list[list[int] | None] = [None] * n
        #: Reporter → (suspect, sent at, earlier unheard reports), and
        #: suspect → when the head last heard a report about it.
        self._reported: dict[int, tuple[int, float, int]] = {}
        self._heard: dict[int, float] = {}
        # -- gossip state ------------------------------------------------
        #: Membership event log: ``(time, node, event, subject)``.
        self.timeline: list[tuple[float, int, str, int]] = []
        #: Per-death convergence: dead node → (declared_at, rounds_then,
        #: converged_at, rounds_at_convergence); the last two appear once
        #: every live view holds the death.
        self.convergence: dict[int, list[float]] = {}
        #: Per-node views, deviations only: a node absent from a view is
        #: implicitly ``(ALIVE, 0)``.
        self._views: list[dict[int, tuple[str, int]]] = [
            {} for _ in range(n)
        ]
        #: Per-node dissemination queues: target → [status, inc, sends].
        #: Entries retire after ``_max_sends`` piggybacked transmissions
        #: (the SWIM O(log N) retransmission budget).
        self._queue: list[dict[int, list]] = [{} for _ in range(n)]
        self._max_sends = 3 * max(1, (n - 1).bit_length()) + 4
        self._incarnation = [0] * n
        #: Deaths awaiting convergence → live views that hold them.
        self._conf_seen: dict[int, set[int]] = {}

    @classmethod
    def from_config(cls, cluster: Cluster, mpi: MpiWorld,
                    events: EventSystem,
                    cfg: OMPCConfig) -> "FailureDetector":
        """The detector an :class:`~repro.core.config.OMPCConfig` asks
        for: gossip with ``gossip=True``, else the heartbeat ring."""
        if cfg.gossip:
            return cls(cluster, mpi, events, gossip=True,
                       interval=cfg.gossip_interval)
        return cls(cluster, mpi, events)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self.cluster.num_nodes >= 2:
            # Begin after the caller's same-instant work, as a freshly
            # spawned service would.
            self.sim.timeout(0.0).callbacks.append(self._begin)

    def _begin(self, _ev: Event) -> None:
        n = self.cluster.num_nodes
        for node in range(n):
            self._listen(self.comm, node)
            if self.ping_comm is not self.comm:
                self._listen(self.ping_comm, node)
        if self.gossip:
            for node in range(n):
                self._probe(node, self._probe_order(node),
                            derive_rng(self.seed, "gossip-indirect",
                                       str(node)))
            self._after(self.interval, self._tick)
            return
        for node in range(n):
            pred = self._predecessor(node)
            if pred is not None:
                self._watch[node] = [pred, 0, 0]
                self._after(RING_WINDOW, self._window_end, node, 0)
        self._tick()

    def rebase(self, new_head: int) -> None:
        """Move the confirm authority to an elected head (failover)."""
        self.head = new_head

    def stop(self) -> None:
        """End monitoring (called at runtime shutdown).  A stopped
        detector declares no one, so it drops its callbacks, and a
        standing receive still posted holds nothing of the run's head."""
        self._stopped = True
        self.on_detect = self.on_head_detect = None

    def _after(self, delay: float, fn: Callable, *args) -> None:
        """Call ``fn(*args)`` ``delay`` from now.  The timer is shared
        with every other one that ends at the same instant; the key is
        the fire time, so sharing never moves a wake-up."""
        when = self.sim.now + delay
        timer = self._timers.get(when)
        if timer is None:
            timer = self.sim.timeout(delay, when)
            timer.callbacks.append(self._fired)
            self._timers[when] = timer
        timer.callbacks.append(lambda _ev: fn(*args))

    def _fired(self, timer: Event) -> None:
        del self._timers[timer.value]

    def _tick(self) -> None:
        """The per-period tick: ring beats, or one gossip round."""
        if self._stopped:
            return
        if self.gossip:
            self.rounds += 1
            self.obs.count("gossip.rounds")
        else:
            for node in range(self.cluster.num_nodes):
                if self.events.node_failed(node):
                    continue  # a crashed node sends no more beats
                succ = self._nearest(node, 1, self.alive)
                if succ is not None:
                    self.comm.rank(node).isend(succ, ("hb", node),
                                               MESSAGE_BYTES, tag=TAG)
        self._after(self.interval, self._tick)

    # -- membership --------------------------------------------------------
    def alive(self, node: int) -> bool:
        return not self.events.node_failed(node) and node not in self.dead

    def live_nodes(self) -> list[int]:
        return [n for n in range(self.cluster.num_nodes) if self.alive(n)]

    def dead_view(self, node: int) -> frozenset[int]:
        """The set of peers ``node``'s gossip view holds dead."""
        return frozenset(
            peer for peer, (status, _inc) in self._views[node].items()
            if status == DEAD
        )

    # -- messaging ---------------------------------------------------------
    def _listen(self, comm, node: int) -> None:
        req = comm.rank(node).irecv(tag=TAG)
        req.event.callbacks.append(
            lambda ev: self._receive(comm, node, ev.value)
        )

    def _receive(self, comm, node: int, msg) -> None:
        if self._stopped or self.events.node_failed(node):
            return  # a dead node answers nothing
        kind = msg.payload[0]
        if kind == "hb":
            watch = self._watch[node]
            if watch is not None and msg.src == watch[0]:
                watch[1] = 0
                self._rewatch(node)
        elif kind == "suspect":
            _kind, suspect, updates = msg.payload
            self._absorb(node, updates)
            if node == self.head and suspect != node:
                self._heard[suspect] = self.sim.now
                self._confirm(suspect, msg.src)
        elif kind == "confirm":
            _kind, dead, updates = msg.payload
            self._absorb(node, updates)
            self._apply(node, dead, DEAD, 0)
        else:
            _kind, reply_tag, target, updates = msg.payload
            self._absorb(node, updates)
            if kind == "ping":
                self._reply(node, msg.src, reply_tag, True)
            else:  # "relay" (gossip) or "verify" (ring): ping for them
                self._ping(node, target, lambda reached: self._reply(
                    node, msg.src, reply_tag, reached, kind == "verify"))
        if not self._stopped:
            self._listen(comm, node)

    def _reply(self, node: int, to: int, reply_tag: int, reached: bool,
               verdict: bool = True) -> None:
        """Answer a request.  A relayed ping's result goes back only if
        it reached the target, unless it is a ring witness's verdict:
        a gossip prober takes silence as assent."""
        if (reached or verdict) and not self.events.node_failed(node):
            self.ping_comm.rank(node).isend(
                to, (reached, self._updates_from(node)), MESSAGE_BYTES,
                tag=reply_tag,
            )

    def _request(self, src: int, dsts: list[int], kind: str, target: int,
                 budget: float, then: Callable[[list], None]) -> None:
        """Send ``kind`` about ``target`` from ``src`` to each of
        ``dsts``; once the first reply or the budget is in, call
        ``then`` with the replies received by then."""
        reply_tag = _REPLY_TAG_BASE + next(self._reply_seq)
        rank = self.ping_comm.rank(src)
        reqs = [rank.irecv(src=dst, tag=reply_tag) for dst in dsts]
        for dst in dsts:
            rank.isend(dst, (kind, reply_tag, target,
                             self._updates_from(src)),
                       MESSAGE_BYTES, tag=TAG)
        race = AnyOf(self.sim, [r.event for r in reqs]
                     + [self.sim.timeout(budget)])

        def settle(_ev: Event) -> None:
            replies = []
            for req in reqs:
                if req.test():
                    reply = req.event.value.payload
                    self._absorb(src, reply[1])
                    replies.append(reply[0])
                else:
                    req.cancel()
            then(replies)

        race.callbacks.append(settle)

    def _ping(self, pinger: int, target: int,
              then: Callable[[bool], None]) -> None:
        """Ping ``target``; ``then(True)`` iff the ack came in time."""
        self._request(pinger, [target], "ping", target, PING_TIMEOUT,
                      lambda replies: then(bool(replies)))

    # -- the ring ----------------------------------------------------------
    def _window_end(self, node: int, window: int) -> None:
        watch = self._watch[node]
        if watch is None or watch[2] != window:
            return  # a beat opened a newer window
        if self._stopped or self.events.node_failed(node):
            self._watch[node] = None
            return
        watched = watch[0]
        watch[1] += 1
        self.missed_windows += 1
        self.obs.count("hb.missed_windows")
        if watch[1] >= SUSPECT_WINDOWS:
            watch[1] = 0
            if watched not in self.dead and watched not in self._confirming:
                self._suspect(node, watched)
        self._rewatch(node)

    def _rewatch(self, node: int) -> None:
        """Open the next watch window on the live predecessor."""
        watch = self._watch[node]
        pred = self._predecessor(node)
        if pred is None:
            self._watch[node] = None  # no other live node to watch
            return
        if pred != watch[0]:
            watch[0] = pred
            watch[1] = 0
        watch[2] += 1
        self._after(RING_WINDOW, self._window_end, node, watch[2])

    def _report(self, node: int, suspect: int) -> None:
        """Report ``suspect`` to the head (the piggybacked gossip
        suspicion also diffuses epidemically).  A ring reporter whose
        last reports about ``suspect`` went unheard suspects the head
        instead."""
        head = self.head
        if not self.gossip:
            prev = self._reported.get(node)
            unheard = 0
            if (prev is not None and prev[0] == suspect
                    and self._heard.get(suspect, -1.0) < prev[1]):
                unheard = prev[2] + 1
            if (unheard >= UNHEARD_REPORTS and head not in self.dead
                    and head not in self._confirming):
                del self._reported[node]
                self._confirming.add(head)
                self._confirm_head(head, node)
                return
            self._reported[node] = (suspect, self.sim.now, unheard)
        self.comm.rank(node).isend(
            head, ("suspect", suspect, self._updates_from(node)),
            MESSAGE_BYTES, tag=TAG,
        )

    def _confirm_head(self, head: int, reporter: int) -> None:
        """Confirm a head suspicion with a ring-neighbour quorum: the
        reporter pings the head and, if it stays silent, asks the head's
        other live neighbour to ping it too.  Both silent — or the
        witness unreachable, leaving no one able to prove the head
        alive — declares the head dead."""
        def quorum(witness_replies):
            if self._head_settled(head):
                return
            if witness_replies and witness_replies[0]:
                self._cleared(head)  # the reporter's link was at fault
            else:
                self._convict(head, reporter)

        def pinged(acked: bool) -> None:
            if self._head_settled(head):
                return
            if acked:
                self._cleared(head)
                return
            witness = self._nearest(
                head, -1, lambda p: p != reporter and self.alive(p))
            if witness is None:
                self._convict(head, reporter)
                return
            # Witness ping plus both legs' slack.
            self._request(reporter, [witness], "verify", head,
                          3.0 * PING_TIMEOUT, quorum)

        self._ping(reporter, head, pinged)

    def _head_settled(self, head: int) -> bool:
        """A head confirm in flight is void once the run stopped, a
        failover moved the head, or the head was declared already."""
        if self._stopped or head != self.head or head in self.dead:
            self._confirming.discard(head)
            return True
        return False

    def _predecessor(self, node: int) -> int | None:
        """The nearest ring predecessor not declared dead."""
        return self._nearest(node, -1, lambda p: p not in self.dead)

    def _nearest(self, node: int, step: int,
                 usable: Callable[[int], bool]) -> int | None:
        """The first ``usable`` node going round the ring from ``node``
        in ``step`` (+1: successors, -1: predecessors)."""
        n = self.cluster.num_nodes
        peer = (node + step) % n
        while peer != node:
            if usable(peer):
                return peer
            peer = (peer + step) % n
        return None

    # -- gossip ------------------------------------------------------------
    def _probe_order(self, node: int):
        """Seeded round-robin probe targets: a fresh shuffled pass over
        all peers each cycle, per SWIM's bounded-detection rule."""
        rng = derive_rng(self.seed, "gossip-probe", str(node))
        peers = [p for p in range(self.cluster.num_nodes) if p != node]
        while True:
            for idx in list(rng.permutation(len(peers))):
                yield peers[idx]

    def _probe(self, node: int, order, helper_rng) -> None:
        """One protocol period of ``node``: probe, then wait out the
        rest of the period."""
        if self._stopped or self.events.node_failed(node):
            return
        period_end = self.sim.now + self.interval
        view = self._views[node]
        target = next(
            (t for t in itertools.islice(order, self.cluster.num_nodes)
             if view.get(t, (ALIVE, 0))[0] != DEAD and t not in self.dead),
            None,
        )
        if target is None:
            return  # everyone else is confirmed dead

        def done(acked: bool) -> None:
            if self._stopped or self.events.node_failed(node):
                return
            if not acked and target not in self.dead:
                self._suspect(node, target)
            remainder = period_end - self.sim.now
            if remainder > 0:
                self._after(remainder, self._probe, node, order, helper_rng)
            else:
                self._probe(node, order, helper_rng)

        def probed(acked: bool) -> None:
            if self._stopped or self.events.node_failed(node):
                return
            if acked:
                done(True)
                return
            self.missed_windows += 1
            self.obs.count("hb.missed_windows")
            helpers = [p for p in self.live_nodes()
                       if p != node and p != target]
            if not helpers:
                done(False)
                return
            k = min(FANOUT, len(helpers))
            chosen = [helpers[i] for i in helper_rng.choice(
                len(helpers), size=k, replace=False)]
            self.obs.count("gossip.indirect_probes", k)
            self._request(node, chosen, "relay", target,
                          2.0 * PING_TIMEOUT,
                          lambda replies: done(bool(replies)))

        self.obs.count("gossip.pings")
        self._ping(node, target, probed)

    def _apply(self, node: int, target: int, status: str, inc: int) -> None:
        """Apply one membership update to ``node``'s view; requeue it
        for further dissemination when it changed anything."""
        view = self._views[node]
        old_status, old_inc = view.get(target, (ALIVE, 0))
        if not _overrides(status, inc, old_status, old_inc):
            return
        view[target] = (status, inc)
        self.timeline.append((self.sim.now, node, status, target))
        self._queue[node][target] = [status, inc, 0]
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
            self._queue[node][node] = [ALIVE, new_inc, 0]
            self.obs.count("gossip.refutes")

    def _updates_from(self, node: int) -> list[tuple[int, str, int]]:
        """Up to ``piggyback`` pending updates, retiring exhausted ones."""
        queue = self._queue[node]
        picked: list[tuple[int, str, int]] = []
        spent: list[int] = []
        for target, entry in queue.items():
            if len(picked) >= PIGGYBACK:
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
            if status == SUSPECT and node == self.head and target != node:
                self._confirm(target, node)

    def _check_converged(self, target: int) -> None:
        seen = self._conf_seen.get(target)
        if seen is None or not set(self.live_nodes()) <= seen:
            return
        declared_at, rounds_then = self.convergence[target][:2]
        self.convergence[target] = [
            declared_at, rounds_then, self.sim.now, float(self.rounds),
        ]
        del self._conf_seen[target]
        self.obs.count("gossip.convergence_rounds", self.rounds - rounds_then)
        self.obs.gauge_set("gossip.convergence_ms",
                           (self.sim.now - declared_at) * 1e3)

    # -- suspect → confirm → declare ---------------------------------------
    def _suspect(self, node: int, target: int) -> None:
        """``node`` stopped hearing ``target``."""
        self.obs.count("hb.suspect_reports")
        if self.gossip:
            inc = self._views[node].get(target, (ALIVE, 0))[1]
            self._apply(node, target, SUSPECT, inc)
        if target == self.head:
            # Suspecting the head cannot route through the head.
            if target in self.dead or target in self._confirming:
                return
            self._confirming.add(target)
            if self.gossip:
                # The direct and indirect probes already failed: they
                # are the quorum, so the suspecting node escalates.
                self._convict(target, node)
            else:
                self._confirm_head(target, node)
        else:
            self._report(node, target)

    def _confirm(self, suspect: int, reporter: int) -> None:
        """Head side: ping the suspect, declare it dead only on silence."""
        pinger = self.head
        if (suspect in self.dead or suspect in self._confirming
                or self.events.node_failed(pinger)):
            return
        self._confirming.add(suspect)

        def pinged(acked: bool) -> None:
            self._confirming.discard(suspect)
            if self._stopped or suspect in self.dead:
                return
            if not acked:
                # The ring credits the watcher, gossip the confirmer.
                self._convict(suspect, pinger if self.gossip else reporter)
                return
            self._cleared(suspect)  # the misses were transient
            if self.gossip:
                inc = self._views[pinger].get(suspect, (ALIVE, 0))[1]
                self._apply(pinger, suspect, ALIVE, inc + 1)

        self._ping(pinger, suspect, pinged)

    def _cleared(self, suspect: int) -> None:
        self._confirming.discard(suspect)
        self.suspicions_cleared += 1
        self.obs.count("hb.suspicions_cleared")

    def _convict(self, suspect: int, by: int) -> None:
        self._confirming.discard(suspect)
        if not self.events.node_failed(suspect):
            self.false_positives += 1
            self.obs.count("hb.false_positives")
        self._declare(suspect, by)

    def _declare(self, dead: int, by: int) -> None:
        if dead in self.dead:
            return
        self.dead.add(dead)
        self.detections.append((dead, by, self.sim.now))
        self.obs.count("hb.detections")
        if self.gossip:
            self.convergence[dead] = [self.sim.now, float(self.rounds)]
            self._conf_seen[dead] = set()
            # Broadcast once (like the failover announcement round); the
            # death also rides the piggyback stream.
            rank = self.comm.rank(by)
            for peer in self.live_nodes():
                if peer != by:
                    rank.isend(peer, ("confirm", dead, ()), MESSAGE_BYTES,
                               tag=TAG)
            self._apply(by, dead, DEAD, 0)
            self._check_converged(dead)
        if dead == self.head and self.on_head_detect is not None:
            self.on_head_detect(dead, by)
        elif self.on_detect is not None:
            self.on_detect(dead, by)
