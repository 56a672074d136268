"""Replicated head-state commit log (head-node failover).

The head node owns the scheduler, the directory, the checkpoint store
and the in-flight task set.  To make it expendable, it streams an
ordered **commit log** of every externally visible transition (task
dispatches and completions, directory updates, checkpoints) to standby
workers over the reliable MPI transport:

* :class:`LogRecord`: one immutable entry, identified like a Raft entry
  by ``(index, epoch)``, its log position and the head incarnation that
  wrote it.
* :class:`HeadLog`: the head's append-only record list.  On failover
  the elected standby *adopts* its replica as the new log (the old
  head's unreplicated suffix is lost) under a bumped epoch.
* :class:`Replicator`: the head appends through it; a pump per standby
  streams records in order, one in flight (send completion is the
  acknowledgement); each standby's receiver appends to its replica
  (same ``(index, epoch)``: a duplicate; same index, new epoch: the
  stale tail is truncated); and :meth:`Replicator.take_over` elects the
  most caught-up standby by ``(last epoch, length, lowest id)``.

Consistency contract used by the runtime:

* **Bounded lag**: appends return at once; :meth:`Replicator.throttle`
  blocks dispatch while a live standby is more than
  :data:`REPLICATION_MAX_LAG` records behind.
* **Fences for non-idempotent work**: :meth:`Replicator.flush` blocks
  until every live standby acknowledged the log so far.  The bootstrap
  snapshot and every INOUT dispatch are fenced, so an in-place mutation
  whose outcome was lost is still *detectable* (a dispatch with no
  completion).
* **Prefix property**: every replica is a prefix of the head's log.
* **Committed completions are final**: once every live standby holds a
  ``task_done``, no successor re-issues that task, so the workers drop
  it from their dedup tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.util.units import MICROSECOND

#: Tags on the replication communicator.
LOG_TAG = 1
ELECT_TAG = 2
ANNOUNCE_TAG = 3
_REPLY_TAG_BASE = 16

#: Wire size of one metadata log record (completions, dispatches,
#: directory updates) and of every election message; bootstrap and
#: checkpoint records add their payload bytes to it.
LOG_RECORD_BYTES = 64.0
#: Bounded replication lag: dispatch stalls once any live standby falls
#: more than this many log records behind.
REPLICATION_MAX_LAG = 64
#: Per-record cost for the elected head to replay its log replica into
#: a fresh directory and task set during failover.
LOG_REPLAY_UNIT_COST = 1.0 * MICROSECOND


@dataclass(frozen=True)
class LogRecord:
    """One entry of the head's commit log.

    ``data`` is a small payload dict whose shape depends on ``kind``
    (the runtime defines the kinds); ``nbytes`` is the simulated wire
    size charged when the record streams to a standby.
    """

    index: int
    epoch: int
    kind: str
    nbytes: float
    data: dict = field(default_factory=dict)


class HeadLog:
    """The head-side ordered commit log."""

    def __init__(self, record_bytes: float = LOG_RECORD_BYTES):
        self.record_bytes = record_bytes
        self.records: list[LogRecord] = []
        #: Head incarnation stamping new records (bumped per failover).
        self.epoch = 0
        #: Total records ever appended (across adoptions, for telemetry).
        self.appended = 0

    def __len__(self) -> int:
        return len(self.records)

    def append(self, kind: str, nbytes: float | None = None,
               **data: Any) -> LogRecord:
        rec = LogRecord(
            index=len(self.records),
            epoch=self.epoch,
            kind=kind,
            nbytes=self.record_bytes if nbytes is None else nbytes,
            data=data,
        )
        self.records.append(rec)
        self.appended += 1
        return rec

    def adopt(self, records: list[LogRecord], epoch: int) -> None:
        """Replace the log with an elected standby's replica.

        The new head's knowledge of the world *is* its replica; the old
        head's unacknowledged suffix died with it.
        """
        self.records = list(records)
        self.epoch = epoch


def in_doubt(records) -> dict[int, int]:
    """Task id -> node of each dispatch in ``records`` with no later
    ``task_done``: work a successor head cannot tell finished.  A task
    dispatched again (after a takeover) keeps its latest node; a
    ``task_done`` with no dispatch (data movement) is no doubt."""
    doubt: dict[int, int] = {}
    for rec in records:
        if rec.kind == "dispatch":
            doubt[rec.data["task_id"]] = rec.data["node"]
        elif rec.kind == "task_done":
            doubt.pop(rec.data["task_id"], None)
    return doubt


class Replicator:
    """Streams the head log to standbys; runs elections over replicas.

    Head-side state (``acked``) dies with the head — it is rebuilt
    after an election from the standbys' own replica lengths, which is
    why receivers track their replicas locally rather than trusting
    any head-side counter.
    """

    def __init__(
        self,
        sim,
        mpi,
        events,
        log: HeadLog,
        standbys: list[int],
        head: int = 0,
    ):
        self.sim = sim
        self.events = events
        self.log = log
        self.head = head
        # Service traffic: replication streams and election rounds hold
        # fire-and-forget sends and long-lived receives by design — the
        # MPI checker must not audit them.
        self.comm = mpi.new_communicator(service=True)
        self.standbys = list(standbys)
        #: Standby-resident replicas (each node's own copy of the log).
        self.replicas: dict[int, list[LogRecord]] = {s: [] for s in standbys}
        #: Head-side delivery counters: records acknowledged per standby.
        self.acked: dict[int, int] = {s: 0 for s in standbys}
        self.stats = {
            "records_sent": 0,
            "bytes_sent": 0.0,
            "flushes": 0,
            "throttles": 0,
            "duplicates": 0,
            "truncations": 0,
        }
        self._more = None
        self._prog = None
        #: Records below this index left the workers' dedup tables.
        self._forgotten = 0
        self._reply_seq = itertools.count()

    # -- lifecycle -------------------------------------------------------
    def start(self, spawn) -> None:
        """Spawn the standby-side receiver and election responder loops.

        They belong to the standbys, not to any head epoch, so they
        outlive every failover, but not the run: ``spawn(gen, name)``
        starts each one in the run's services
        (:attr:`HeadCore.services <repro.core.runtime.HeadCore.services>`),
        closed when the run ends.  The head-side pumps are epoch-scoped
        and spawned by the runtime via :meth:`pump`.
        """
        for s in self.standbys:
            spawn(self._receiver(s), f"repl-recv{s}")
            spawn(self._responder(s), f"repl-elect{s}")

    def live_standbys(self) -> list[int]:
        return [
            s for s in self.standbys
            if s != self.head and not self.events.node_failed(s)
        ]

    # -- head side -------------------------------------------------------
    def append(self, kind: str, nbytes: float | None = None,
               **data: Any) -> None:
        """Append a record to the head's log and wake the pumps."""
        self.log.append(kind, nbytes=nbytes, **data)
        if self._more is not None and not self._more.triggered:
            self._more.succeed()

    def pump(self, standby: int):
        """Generator: stream log records to one standby, in order.

        One record in flight at a time; a completed (reliable) send is
        the delivery acknowledgement.  Epoch-scoped: the runtime spawns
        one pump per live standby per head epoch and interrupts them
        all when the head dies.
        """
        while True:
            if (
                self.events.node_failed(standby)
                or standby == self.head
                or standby not in self.acked
            ):
                return
            i = self.acked[standby]
            if i >= len(self.log.records):
                yield self._wait_more()
                continue
            rec = self.log.records[i]
            yield from self.comm.rank(self.head).send(
                standby, rec, rec.nbytes, tag=LOG_TAG
            )
            if self.events.node_failed(standby):
                return
            if self.acked.get(standby) == i:
                self.acked[standby] = i + 1
                self.stats["records_sent"] += 1
                self.stats["bytes_sent"] += rec.nbytes
                self._notify_progress()
                self._forget_committed()

    def committed(self) -> int:
        """Records acknowledged by *every* live standby.

        With no live standby left the whole log counts as committed —
        there is nobody whose acknowledgement could still matter.
        """
        live = self.live_standbys()
        if not live:
            return len(self.log.records)
        return min(self.acked[s] for s in live)

    def _forget_committed(self) -> None:
        """Drop each committed ``task_done`` from its node's dedup table,
        which so holds only completions still in doubt."""
        upto = self.committed()
        for rec in self.log.records[self._forgotten:upto]:
            if rec.kind == "task_done":
                self.events.forget_execution(rec.data["node"],
                                             rec.data["task_id"])
        self._forgotten = max(self._forgotten, upto)

    def flush(self):
        """Generator: block until the log as of now is fully replicated.

        The synchronous fence: non-idempotent operations (INOUT
        dispatches, the bootstrap snapshot) must be *detectable* from
        every surviving replica before their side effects can happen.
        """
        self.stats["flushes"] += 1
        target = len(self.log.records)
        while self.committed() < target:
            yield self.events.race_failure([self._wait_progress()],
                                           self.live_standbys())

    def throttle(self):
        """Generator: enforce the bounded-lag contract on dispatch."""
        while len(self.log.records) - self.committed() > REPLICATION_MAX_LAG:
            self.stats["throttles"] += 1
            yield self.events.race_failure([self._wait_progress()],
                                           self.live_standbys())

    # -- standby side ----------------------------------------------------
    def _receiver(self, standby: int):
        rank = self.comm.rank(standby)
        replica = self.replicas[standby]
        while True:
            msg = yield from rank.recv(tag=LOG_TAG)
            if self.events.node_failed(standby):
                return
            self._apply(replica, msg.payload)

    def _apply(self, replica: list[LogRecord], rec: LogRecord) -> None:
        """Append with Raft-style conflict handling.

        A record whose slot is already filled by the same epoch is a
        retransmitted duplicate (dropped); a different epoch at the
        same index means this replica carries a deposed head's stale
        tail, which is truncated before the new record lands.  A gap
        (index beyond the replica) cannot normally happen — pumps are
        serial — and is dropped for the pump to resend.
        """
        if rec.index < len(replica):
            if replica[rec.index].epoch == rec.epoch:
                self.stats["duplicates"] += 1
                return
            del replica[rec.index:]
            self.stats["truncations"] += 1
        if rec.index == len(replica):
            replica.append(rec)

    def _responder(self, standby: int):
        """Answer election state queries with this replica's position."""
        rank = self.comm.rank(standby)
        while True:
            msg = yield from rank.recv(tag=ELECT_TAG)
            if self.events.node_failed(standby):
                return
            _kind, reply_tag = msg.payload
            replica = self.replicas[standby]
            last_epoch = replica[-1].epoch if replica else -1
            rank.isend(
                msg.src, (standby, last_epoch, len(replica)),
                LOG_RECORD_BYTES, tag=reply_tag,
            )

    # -- election --------------------------------------------------------
    def elect(self, coordinator: int, exclude: frozenset = frozenset()):
        """Generator: query live standbys, pick the most caught up.

        Runs on ``coordinator`` (the node whose monitor confirmed the
        head's death).  Candidates answer with ``(last record epoch,
        replica length)``; the winner is the Raft-style maximum, ties
        broken toward the lowest node id for determinism.  Returns
        ``(winner, votes)`` or ``None`` when no candidate is left.
        """
        live = [
            s for s in self.standbys
            if s not in exclude and not self.events.node_failed(s)
        ]
        if not live:
            return None
        rank = self.comm.rank(coordinator)
        reply_tag = _REPLY_TAG_BASE + next(self._reply_seq)
        votes: dict[int, tuple[int, int]] = {}
        remote = []
        for s in live:
            if s == coordinator:
                # The coordinator is itself a standby: read locally.
                replica = self.replicas[s]
                votes[s] = (
                    replica[-1].epoch if replica else -1, len(replica)
                )
            else:
                rank.isend(s, ("state?", reply_tag), LOG_RECORD_BYTES,
                           tag=ELECT_TAG)
                remote.append(s)
        for s in remote:
            req = rank.irecv(src=s, tag=reply_tag)
            yield self.events.race_failure([req.event], [s])
            if req.test():
                node, last_epoch, count = req.event.value.payload
                votes[node] = (last_epoch, count)
            else:
                req.cancel()  # the candidate died mid-election
        if not votes:
            return None
        winner = max(votes, key=lambda s: (votes[s][0], votes[s][1], -s))
        return winner, votes

    def announce(self, coordinator: int, new_head: int,
                 live_nodes: list[int]):
        """Generator: publish the election outcome to every live node.

        Completion of the (reliable) sends is the acknowledgement; the
        announcement is what re-roots the workers' notion of the head
        in real deployments — here its cost is what matters, since
        simulated workers address no one by name.
        """
        rank = self.comm.rank(coordinator)
        reqs = [
            rank.isend(n, ("new-head", new_head), LOG_RECORD_BYTES,
                       tag=ANNOUNCE_TAG)
            for n in live_nodes if n != coordinator
        ]
        for req in reqs:
            yield from req.wait()

    def take_over(self, coordinator: int, exclude: frozenset = frozenset()):
        """Generator: the standby takeover after the head's death.

        ``coordinator`` elects a successor among the standbys not in
        ``exclude``, announces it to every live node, the head log
        adopts the winner's replica under a new epoch, and replication
        re-roots at the winner.  Returns ``(winner, elected_at)``, or
        ``None`` when no standby is left to elect.
        """
        election = yield from self.elect(coordinator, exclude)
        if election is None:
            return None
        winner, votes = election
        elected_at = self.sim.now
        yield from self.announce(coordinator, winner, [
            n for n in range(self.events.cluster.num_nodes)
            if not self.events.node_failed(n)
        ])
        self.log.adopt(self.replicas[winner], self.log.epoch + 1)
        self.set_head(winner, votes)
        return winner, elected_at

    def replay(self):
        """Generator: the elected head replays its adopted replica into
        fresh control state, CPU work charged per record."""
        cost = len(self.log.records) * LOG_REPLAY_UNIT_COST
        if cost:
            yield self.sim.timeout(cost)

    def set_head(self, new_head: int, votes: dict[int, tuple[int, int]]) -> None:
        """Re-root replication at the elected head.

        Surviving standbys keep replicating from the new head; their
        delivery counters restart from their reported replica lengths,
        clamped to the adopted log (a longer stale tail is truncated by
        the receivers' conflict handling when new-epoch records land).
        """
        self.head = new_head
        self.standbys = [
            s for s in self.standbys
            if s != new_head and not self.events.node_failed(s)
        ]
        self.acked = {}
        for s in self.standbys:
            _ep, count = votes.get(s, (-1, 0))
            self.acked[s] = min(count, len(self.log.records))

    # -- wakeup plumbing -------------------------------------------------
    def _wait_more(self):
        if self._more is None or self._more.triggered:
            self._more = self.sim.event("headlog-more")
        return self._more

    def _wait_progress(self):
        if self._prog is None or self._prog.triggered:
            self._prog = self.sim.event("headlog-progress")
        return self._prog

    def _notify_progress(self) -> None:
        if self._prog is not None and not self._prog.triggered:
            self._prog.succeed()
