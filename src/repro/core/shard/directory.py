"""Shard ownership: who owns each task and buffer of the graph.

The sharded control plane partitions the *control* of the task graph
across K shard managers.  The :class:`ShardDirectory` is the pure
(clock-free, deterministic) assignment underneath it: every task and
every buffer has exactly one owning shard, computed once before the
simulation starts, by a :class:`ConsistentHashPolicy`: a classic
consistent-hash ring with virtual nodes, keyed on the task's affinity
key.  The hash is SHA-based (``repro.util.rng`` style), *not* Python's
randomized ``hash()``, so ownership is stable across processes and
seeds.

Affinity keys come from ``task.meta["affinity"]`` (the Task Bench port
tags every task with its grid point), falling back to the task id.
Keying on affinity — not on the task id — keeps each logical chain
(every generation of one stencil point) on one shard, so the only
cross-shard dependences are the graph's true neighbor edges.

§4.4 adaptation rules override the ring where semantics demand it:
``CLASSICAL`` and ``target exit data`` tasks run against host memory
and belong to shard 0 (whose manager is the host node); a ``target
enter data`` task follows its first non-data consumer, exactly like
:meth:`~repro.core.scheduler.base.Scheduler.pin_special_tasks` co-
locates them at node level.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Hashable

from repro.omp.task import Task, TaskKind
from repro.omp.taskgraph import TaskGraph


def stable_hash(key: Hashable, salt: str = "") -> int:
    """A process-stable 64-bit hash (Python's ``hash()`` is randomized)."""
    blob = f"{salt}\x1f{key!r}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class ConsistentHashPolicy:
    """Consistent hashing with ``replicas`` virtual points per shard.

    Adding or removing one shard remaps only ~1/K of the key space —
    the property elastic re-sharding would rely on.
    """

    def __init__(self, num_shards: int, replicas: int = 64):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.num_shards = num_shards
        points = []
        for shard in range(num_shards):
            for v in range(replicas):
                points.append((stable_hash(f"s{shard}v{v}", "ring"), shard))
        points.sort()
        self._ring = [p for p, _s in points]
        self._owner = [s for _p, s in points]

    def shard_of(self, key: Hashable) -> int:
        h = stable_hash(key, "key")
        i = bisect_right(self._ring, h) % len(self._ring)
        return self._owner[i]


class ShardDirectory:
    """Task ownership across K shards, computed eagerly.

    ``owner_of(task_id)`` is an O(1) dict lookup during the run; the
    cross-shard edge set (the dependences the lease/notify protocol
    must cover) is precomputed too.
    """

    def __init__(self, graph: TaskGraph, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.graph = graph
        self.num_shards = num_shards
        self.policy = ConsistentHashPolicy(num_shards)

        self._task_owner: dict[int, int] = {}
        for task in graph.tasks():
            self._task_owner[task.task_id] = self._assign(task)
        # Enter-data tasks follow their first non-data consumer so the
        # staging work is controlled by the shard that will use it.
        for task in graph.tasks():
            if task.kind != TaskKind.TARGET_ENTER_DATA:
                continue
            owner = 0
            for succ in graph._succ[task.task_id].values():
                if not succ.kind.is_data_movement:
                    owner = self._task_owner[succ.task_id]
                    break
            self._task_owner[task.task_id] = owner

        #: Dependence edges whose endpoints live on different shards:
        #: ``(producer_id, consumer_id, producer_shard, consumer_shard)``.
        self.cross_edges: list[tuple[int, int, int, int]] = []
        for pred, succ in graph.edges():
            sp = self._task_owner[pred.task_id]
            sc = self._task_owner[succ.task_id]
            if sp != sc:
                self.cross_edges.append(
                    (pred.task_id, succ.task_id, sp, sc)
                )

    # ------------------------------------------------------------------
    def _key(self, task: Task) -> Hashable:
        affinity = task.meta.get("affinity")
        return affinity if affinity is not None else task.task_id

    def _assign(self, task: Task) -> int:
        # Host-memory tasks belong to the host shard regardless of key.
        if task.kind in (TaskKind.CLASSICAL, TaskKind.TARGET_EXIT_DATA):
            return 0
        return self.policy.shard_of(self._key(task))

    # ------------------------------------------------------------------
    def owner_of(self, task_id: int) -> int:
        return self._task_owner[task_id]

    def tasks_of(self, shard: int) -> list[Task]:
        """The shard's tasks, in program order."""
        return [
            t for t in self.graph.tasks()
            if self._task_owner[t.task_id] == shard
        ]

    def subgraph(self, shard: int) -> TaskGraph:
        """The shard-local task graph: owned tasks, intra-shard edges.

        This is what the shard's private scheduler instance sees; the
        cross-shard edges it cannot see are exactly the ones the
        lease/notify protocol serializes at runtime.
        """
        sub = TaskGraph()
        for task in self.tasks_of(shard):
            sub.add_task(task)
        for pred, succ in self.graph.edges():
            if (
                self._task_owner[pred.task_id] == shard
                and self._task_owner[succ.task_id] == shard
            ):
                sub.add_edge(pred, succ)
        return sub

    def lease_needs(self) -> dict[int, set[int]]:
        """Per consumer shard: the remote producer task ids it must
        subscribe to (one lease per (shard, producer), not per edge)."""
        needs: dict[int, set[int]] = {
            s: set() for s in range(self.num_shards)
        }
        for pid, _cid, _sp, sc in self.cross_edges:
            needs[sc].add(pid)
        return needs

    def stats(self) -> dict[str, float]:
        sizes = [len(self.tasks_of(s)) for s in range(self.num_shards)]
        total = max(sum(sizes), 1)
        return {
            "shards": float(self.num_shards),
            "tasks": float(sum(sizes)),
            "cross_edges": float(len(self.cross_edges)),
            "largest_shard_frac": max(sizes) / total,
        }
