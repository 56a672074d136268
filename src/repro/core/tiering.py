"""Tiered data plane: device → host → remote, with pluggable eviction.

PR 4 gave each worker node hard device-memory capacity accounting
(:mod:`repro.core.memory`); until this module, crossing the line was
fatal.  The tiered store turns overflow into *graceful degradation*,
the classic cache-tiering story:

* **Tier 0 — device**: the worker's mapped-buffer table, bounded by
  ``OMPCConfig.device_memory_bytes``.
* **Tier 1 — host**: the head node's buffer image.  Dirty sole copies
  (the INOUT/out results of §4.3's coherency protocol) are *spilled*
  there on eviction — write-behind — so no bytes are ever lost.
* **Tier 2 — remote**: any other node still holding a valid replica.
  Clean replicas are simply dropped; a future consumer re-fetches them
  read-through from wherever the directory says the bytes live, over
  the reliable transport.

The head plans evictions before it plans allocations, so a worker's
:class:`~repro.core.memory.DeviceMemory` never actually overflows: the
:class:`MemoryDirector` mirrors every node's residency *conservatively*
(bytes are charged when the head commits to materializing them, and
released only once the physical DELETE completed), picks victims
through a pluggable :class:`EvictionPolicy`, and pins buffers used by
in-flight kernels so they are never victims.  Only a working set that
cannot fit even after evicting everything unpinned raises a clean,
task-attributed :class:`~repro.core.memory.DeviceMemoryError`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.memory import DeviceMemoryError
from repro.omp.task import Buffer, Task, TaskKind


@dataclass(frozen=True)
class Eviction:
    """One planned eviction of a buffer from a node's device memory.

    ``spill`` distinguishes the two tiers the bytes land in: a dirty
    sole copy must be written behind to the host before the device
    entry may be dropped; a clean replica is simply dropped (another
    valid copy survives elsewhere).
    """

    buffer: Buffer
    node: int
    spill: bool


@dataclass(frozen=True)
class Victim:
    """A candidate handed to an :class:`EvictionPolicy` for ranking."""

    buffer: Buffer
    nbytes: float
    #: Logical LRU clock of the buffer's last use on this node.
    last_use: int
    #: True when this node holds the only valid copy (eviction spills).
    dirty: bool


class MemoryWait(Exception):
    """Internal: not enough free space *yet*, but in-flight evictions
    and/or other frames' pinned bytes cover the shortfall — the caller
    should release its pins, wait for a release, and re-plan."""


class EvictionPolicy(abc.ABC):
    """Orders eviction candidates; the cheapest-to-evict come first."""

    name = "policy"

    @abc.abstractmethod
    def order(self, candidates: list[Victim]) -> list[Victim]:
        """Victims in eviction order (first evicted first)."""


class LRUPolicy(EvictionPolicy):
    """Evict the least-recently-used buffer first (classic LRU)."""

    name = "lru"

    def order(self, candidates: list[Victim]) -> list[Victim]:
        return sorted(
            candidates, key=lambda v: (v.last_use, v.buffer.buffer_id)
        )


class CostAwarePolicy(EvictionPolicy):
    """Evict the cheapest buffer to bring back first.

    The price of evicting a buffer is what it costs to need it again:
    the re-fetch transfer of its bytes, plus — for dirty copies — the
    write-behind spill that must happen first.  Clean, small replicas
    go before large dirty results; ties fall back to LRU order.
    """

    name = "cost"

    def __init__(self, dirty_penalty: float = 2.0):
        if dirty_penalty < 1.0:
            raise ValueError("dirty_penalty must be >= 1.0")
        self.dirty_penalty = dirty_penalty

    def order(self, candidates: list[Victim]) -> list[Victim]:
        def price(v: Victim) -> float:
            return v.nbytes * (self.dirty_penalty if v.dirty else 1.0)

        return sorted(
            candidates,
            key=lambda v: (price(v), v.last_use, v.buffer.buffer_id),
        )


#: Registered policy names for ``OMPCConfig.eviction_policy``.
POLICIES = ("none", "lru", "cost")


def make_policy(name: str) -> EvictionPolicy:
    """The :class:`EvictionPolicy` for a config name (``lru``/``cost``)."""
    if name == "lru":
        return LRUPolicy()
    if name == "cost":
        return CostAwarePolicy()
    raise ValueError(f"unknown eviction policy {name!r} (use one of "
                     f"{[p for p in POLICIES if p != 'none']})")


@dataclass
class _NodeMem:
    """The head's conservative mirror of one node's device residency."""

    #: Buffers the head has committed to the node (bid → Buffer).
    holdings: dict[int, Buffer] = field(default_factory=dict)
    #: Sum of holding sizes (charged eagerly, released lazily).
    resident: float = 0.0
    #: Victims whose physical eviction is still in flight (bid → bytes).
    evicting: dict[int, float] = field(default_factory=dict)
    #: Logical LRU clock per buffer.
    last_use: dict[int, int] = field(default_factory=dict)


class MemoryDirector:
    """Head-side capacity accounting, pinning, and eviction planning.

    One director serves every worker node of a run.  All bookkeeping is
    plain synchronous Python — planning never yields, so enabling
    tiering with unlimited capacity leaves the event stream bit
    identical to the un-tiered kernel.
    """

    def __init__(
        self,
        capacities: dict[int, float],
        policy: EvictionPolicy,
        capacity_fn=None,
    ):
        for node, cap in capacities.items():
            if cap <= 0:
                raise ValueError(f"node {node}: capacity must be > 0")
        self.capacities = dict(capacities)
        self.policy = policy
        #: Optional ``fn(node) -> bytes`` for time-varying capacity
        #: (the MemoryPressure fault arm shrinks it mid-run).
        self.capacity_fn = capacity_fn
        self._nodes: dict[int, _NodeMem] = {
            node: _NodeMem() for node in capacities
        }
        #: Global per-buffer pin counts: a pinned buffer is in use by an
        #: in-flight task frame (as kernel input/output or as the source
        #: of an in-flight transfer) and is never an eviction victim.
        self._pins: dict[int, int] = {}
        self._tick = 0

    # -- queries -----------------------------------------------------------
    def manages(self, node: int) -> bool:
        return node in self._nodes

    def capacity(self, node: int) -> float:
        """The node's *effective* capacity right now."""
        base = self.capacities[node]
        if self.capacity_fn is not None:
            return min(base, self.capacity_fn(node, base))
        return base

    def resident(self, node: int) -> float:
        return self._nodes[node].resident

    def holdings(self, node: int) -> dict[int, Buffer]:
        return dict(self._nodes[node].holdings)

    def pinned(self, buffer_id: int) -> bool:
        return self._pins.get(buffer_id, 0) > 0

    # -- pinning -----------------------------------------------------------
    def pin(self, buffer_ids) -> None:
        for bid in buffer_ids:
            self._pins[bid] = self._pins.get(bid, 0) + 1

    def unpin(self, buffer_ids) -> None:
        for bid in buffer_ids:
            count = self._pins.get(bid, 0) - 1
            if count <= 0:
                self._pins.pop(bid, None)
            else:
                self._pins[bid] = count

    # -- residency bookkeeping --------------------------------------------
    def touch(self, node: int, buffer_ids) -> None:
        """Advance the LRU clock for buffers a task is about to use."""
        view = self._nodes.get(node)
        if view is None:
            return
        self._tick += 1
        for bid in buffer_ids:
            if bid in view.holdings:
                view.last_use[bid] = self._tick

    def charge(self, node: int, buffer: Buffer) -> bool:
        """Account ``buffer`` as resident on ``node`` (before the event).

        Idempotent; returns True when the entry is new.  Charging is
        *eager* — at the moment the head commits to materializing the
        bytes — so concurrent planners see each other's reservations.
        """
        view = self._nodes.get(node)
        if view is None:
            return False
        bid = buffer.buffer_id
        if bid in view.holdings:
            return False
        view.holdings[bid] = buffer
        view.resident += buffer.nbytes
        self._tick += 1
        view.last_use[bid] = self._tick
        return True

    def release(self, node: int, buffer_id: int) -> None:
        """Account a completed physical DELETE (lazy, conservative)."""
        view = self._nodes.get(node)
        if view is None:
            return
        buf = view.holdings.pop(buffer_id, None)
        if buf is not None:
            view.resident -= buf.nbytes
        view.evicting.pop(buffer_id, None)
        view.last_use.pop(buffer_id, None)

    def settle(self, node: int, buffer_id: int) -> None:
        """End an in-flight eviction, landed (already released) or
        given up (its copy stays charged and may be a victim again)."""
        view = self._nodes.get(node)
        if view is not None:
            view.evicting.pop(buffer_id, None)

    def forget_node(self, node: int) -> None:
        """Drop all accounting for a crashed node (its memory is gone)."""
        view = self._nodes.get(node)
        if view is None:
            return
        view.holdings.clear()
        view.evicting.clear()
        view.last_use.clear()
        view.resident = 0.0

    # -- eviction planning -------------------------------------------------
    def plan(
        self,
        task: Task,
        node: int,
        incoming: list[Buffer],
        sole_copy_fn,
    ) -> list[Eviction]:
        """Make room on ``node`` for ``incoming``; charge the newcomers.

        Returns the evictions the caller must perform (physically)
        before materializing the incoming buffers.  Raises
        :class:`MemoryWait` when in-flight evictions will free enough
        space (wait and re-plan), and a task-attributed
        :class:`~repro.core.memory.DeviceMemoryError` when the working
        set cannot fit even after evicting everything unpinned.
        """
        view = self._nodes[node]
        cap = self.capacity(node)
        seen: set[int] = set()
        new: list[Buffer] = []
        for buf in incoming:
            bid = buf.buffer_id
            if bid not in view.holdings and bid not in seen:
                seen.add(bid)
                new.append(buf)
        need = sum(b.nbytes for b in new)
        free = cap - view.resident
        evictions: list[Eviction] = []
        if need > free:
            candidates = [
                Victim(
                    buffer=buf,
                    nbytes=buf.nbytes,
                    last_use=view.last_use.get(bid, 0),
                    dirty=sole_copy_fn(buf, node),
                )
                for bid, buf in view.holdings.items()
                if bid not in view.evicting
                and not self.pinned(bid)
                and bid not in seen
            ]
            for victim in self.policy.order(candidates):
                if need <= free:
                    break
                free += victim.nbytes
                evictions.append(
                    Eviction(victim.buffer, node, spill=victim.dirty)
                )
            if need > free:
                # A target's own resident dependencies are its working
                # set, not other frames' pins: no wait can free them.
                own = {
                    bid: view.holdings[bid]
                    for bid in sorted({d.buffer.buffer_id for d in task.deps})
                    if bid in view.holdings
                } if task.kind == TaskKind.TARGET else {}
                in_flight = sum(view.evicting.values())
                pinned_bytes = sum(
                    b.nbytes
                    for bid, b in view.holdings.items()
                    if self.pinned(bid)
                    and bid not in seen
                    and bid not in own
                    and bid not in view.evicting
                )
                # Blocked by transient state — in-flight evictions or
                # other frames' pins — not by the working set itself:
                # the caller backs off (releasing its own pins) and
                # re-plans once something lands or unpins.  Only a solo
                # working set that cannot fit is fatal.
                if need <= free + in_flight + pinned_bytes:
                    raise MemoryWait
                def listed(pairs):
                    shown = ", ".join(
                        f"{name}:{nbytes:.0f}B" for name, nbytes in pairs[:8]
                    )
                    if len(pairs) > 8:
                        shown += f", … +{len(pairs) - 8} more"
                    return shown

                resident = sorted(
                    (b.name, b.nbytes) for b in view.holdings.values()
                )
                wanted = sorted((b.name, b.nbytes) for b in new)
                wanted += sorted((b.name, b.nbytes) for b in own.values())
                need += sum(b.nbytes for b in own.values())
                raise DeviceMemoryError(
                    f"task {task.name} (id {task.task_id}): working set of "
                    f"{need:.0f} B ([{listed(wanted)}]) cannot fit on node "
                    f"{node} even after evicting every unpinned buffer "
                    f"(effective capacity {cap:.0f} B, "
                    f"{view.resident:.0f} B resident, "
                    f"{pinned_bytes:.0f} B pinned by in-flight tasks; "
                    f"resident set: [{listed(resident)}])"
                )
            for ev in evictions:
                view.evicting[ev.buffer.buffer_id] = ev.buffer.nbytes
        for buf in new:
            self.charge(node, buf)
        return evictions
