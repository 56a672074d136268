"""Space-shared cluster partitioning: virtual sub-clusters over one machine.

A multi-tenant workload manager (see :mod:`repro.jobs`) carves one
physical :class:`~repro.cluster.machine.Cluster` into disjoint node
partitions and hands each admitted job its own *view* of the machine.
A :class:`ClusterView` renumbers a subset of physical nodes as virtual
nodes ``0..k-1`` (virtual node 0 is the job's private head node) while
sharing the physical simulator clock, CPU/NIC resources, and fabric:

* compute contention is physical — a view's node *is* the physical
  node's CPU/GPU resources, so nothing else can double-book them while
  the partition is held;
* network contention is physical too — transfers issued through a view
  serialize on the shared NICs and fluid fair-share engine, so jobs in
  different partitions still fight over the fabric like real tenants;
* everything *stateful at the software layer* is private: each view
  owns its own observer and byte counters, and
  the runtime built on top of it owns its own MPI world (communicator
  and tag space) and device-memory tables.

The :class:`NodePool` below is the allocator the job manager draws
partitions from; it is deliberately simple (lowest-free-id first) so
allocation is a pure function of the request sequence — seeded
workloads replay to identical placements.
"""

from __future__ import annotations

from repro.cluster.machine import Cluster, ClusterSpec
from repro.cluster.node import Node
from repro.analysis.hooks import NULL_ANALYSIS
from repro.obs.observer import NullObserver


class PartitionError(Exception):
    """Invalid partition request (overlap, unknown node, exhausted pool)."""


class _NodeView:
    """A physical node seen under a virtual id.

    Shares the physical node's resources (``cpu``, ``gpus``)
    so occupancy is accounted on the real hardware, but reports the
    virtual ``node_id`` the job's runtime schedules against.
    """

    __slots__ = ("_node", "node_id", "physical_id", "sim", "spec",
                 "cpu", "gpus")

    def __init__(self, node: Node, virtual_id: int):
        self._node = node
        self.node_id = virtual_id
        self.physical_id = node.node_id
        self.sim = node.sim
        self.spec = node.spec
        self.cpu = node.cpu
        self.gpus = node.gpus

    def compute_time(self, nominal_seconds: float) -> float:
        return self._node.compute_time(nominal_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NodeView v{self.node_id}=phys{self.physical_id} "
            f"cores={self.spec.cores}>"
        )


class _FaultsView:
    """Virtual-id adapter over the physical cluster's ActiveFaults."""

    __slots__ = ("_faults", "_map")

    def __init__(self, faults, mapping: tuple[int, ...]):
        self._faults = faults
        self._map = mapping

    @property
    def plan(self):
        return self._faults.plan

    @property
    def dropped_messages(self) -> int:
        return self._faults.dropped_messages

    def drops(self, src: int, dst: int) -> bool:
        return self._faults.drops(self._map[src], self._map[dst])

    def latency_factor(self, src: int, dst: int, now: float) -> float:
        return self._faults.latency_factor(self._map[src], self._map[dst], now)

    def bandwidth_factor(self, src: int, dst: int, now: float) -> float:
        return self._faults.bandwidth_factor(
            self._map[src], self._map[dst], now
        )

    def hold_until(self, src: int, dst: int, now: float) -> float:
        return self._faults.hold_until(self._map[src], self._map[dst], now)

    def compute_rate(self, node: int, now: float) -> float:
        return self._faults.compute_rate(self._map[node], now)

    def stretched(self, node: int, start: float, duration: float) -> float:
        return self._faults.stretched(self._map[node], start, duration)

    def capacity_factor(self, node: int, now: float) -> float:
        return self._faults.capacity_factor(self._map[node], now)

    def fetch_fails(self, node: int, now: float) -> bool:
        return self._faults.fetch_fails(self._map[node], now)


class _NetworkView:
    """The shared fabric addressed by virtual node ids.

    Transfers delegate to the physical network (so they contend with
    every other partition's traffic on the real NICs), while byte and
    message totals are tallied per view — the per-job numbers a
    multi-tenant run reports.
    """

    def __init__(self, network, mapping: tuple[int, ...], obs):
        self._net = network
        self._map = mapping
        self.spec = network.spec
        #: The owning view's observer.
        self.obs = obs
        #: Bytes/messages moved by *this view's* traffic only.
        self.total_bytes = 0
        self.total_messages = 0

    @property
    def faults(self):
        faults = self._net.faults
        if faults is None:
            return None
        return _FaultsView(faults, self._map)

    def _physical(self, node: int) -> int:
        if not 0 <= node < len(self._map):
            raise ValueError(
                f"node {node} out of range [0, {len(self._map)})"
            )
        return self._map[node]

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        return self._net.transfer_time(
            self._physical(src), self._physical(dst), nbytes
        )

    def start_transfer(self, src: int, dst: int, nbytes: float,
                       delay: float = 0.0):
        """Start a timed transfer between two virtual nodes ``delay``
        seconds from now; the returned event fires on arrival."""
        psrc, pdst = self._physical(src), self._physical(dst)
        done = self._net.start_transfer(psrc, pdst, nbytes, delay)
        obs = self.obs
        if obs.enabled:
            obs.gauge_add(f"link.{src}->{dst}", 1, node=src)

        def arrived(_ev):
            if obs.enabled:
                obs.gauge_add(f"link.{src}->{dst}", -1, node=src)
                obs.count(f"link.{src}->{dst}.bytes", nbytes)
            if psrc != pdst:
                self.total_bytes += int(nbytes)
                self.total_messages += 1

        done.callbacks.append(arrived)
        return done


class ClusterView:
    """A disjoint slice of a physical cluster, renumbered from zero.

    Quacks like a :class:`~repro.cluster.machine.Cluster` for every
    consumer in the runtime stack (MPI world, event system, scheduler,
    heartbeat ring, fault-tolerant runtime): virtual node 0 is the
    partition's head, virtual nodes ``1..k-1`` its workers.
    """

    def __init__(self, cluster: Cluster, node_ids, name: str = ""):
        ids = tuple(int(n) for n in node_ids)
        if not ids:
            raise PartitionError("a partition needs at least one node")
        if len(set(ids)) != len(ids):
            raise PartitionError(f"duplicate nodes in partition {ids}")
        for node_id in ids:
            if not 0 <= node_id < cluster.num_nodes:
                raise PartitionError(
                    f"node {node_id} not in cluster of {cluster.num_nodes}"
                )
        self.physical = cluster
        self.node_ids = ids
        self.name = name
        self.sim = cluster.sim
        #: A spec consistent with the slice (heterogeneity preserved).
        self.spec = ClusterSpec(
            num_nodes=len(ids),
            node=cluster.spec.node,
            network=cluster.spec.network,
            node_overrides=tuple(
                (virt, cluster.spec.spec_for(phys))
                for virt, phys in enumerate(ids)
                if cluster.spec.spec_for(phys) is not cluster.spec.node
            ),
        )
        self.nodes = [
            _NodeView(cluster.nodes[phys], virt)
            for virt, phys in enumerate(ids)
        ]
        #: Per-view observer: a job's counters and spans do not bleed
        #: into other tenants' runs.
        self.obs = NullObserver(self.sim)
        self.network = _NetworkView(cluster.network, ids, self.obs)
        self.analysis = NULL_ANALYSIS

    # -- Cluster interface -------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def head(self) -> _NodeView:
        return self.nodes[0]

    @property
    def workers(self) -> list[_NodeView]:
        return self.nodes[1:]

    def node(self, node_id: int) -> _NodeView:
        return self.nodes[node_id]

    @property
    def faults(self):
        return self.network.faults

    def install_observer(self, obs) -> None:
        """Attach an observer to this view only (not the physical machine).

        Like ``Cluster.install_observer``: the counters recorded so far
        carry over, and it must run before MPI worlds or runtimes are
        built on the view.
        """
        obs.counters = self.obs.counters
        self.obs = self.network.obs = obs

    def install_analysis(self, analysis) -> None:
        """Attach an analysis to this view only (not the physical machine)."""
        self.analysis = analysis

    def physical_id(self, node_id: int) -> int:
        """The physical node behind a virtual id."""
        return self.node_ids[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClusterView {self.name!r} nodes={self.node_ids}>"


def shard_reserved(head_shards: int) -> tuple[int, ...]:
    """Reserved node ids for a sharded control plane.

    A run with ``head_shards == K`` pins its shard managers on nodes
    ``0..K-1`` (node 0 stays the host shard), exactly like the job
    manager reserving node 0 for itself.  Pass the result as
    ``NodePool(cluster, reserved=shard_reserved(k))`` so jobs never land
    on a manager node.
    """
    if head_shards < 1:
        raise PartitionError(f"head_shards must be >= 1, got {head_shards}")
    return tuple(range(head_shards))


class NodePool:
    """Allocator of disjoint node partitions on one physical cluster.

    ``reserved`` nodes (by default just physical node 0, where the job
    manager itself runs) are never handed to jobs.  Crashed nodes are
    :meth:`retire`\\ d permanently — the pool shrinks, exactly like a
    production cluster draining a broken machine.
    """

    def __init__(self, cluster: Cluster, reserved=(0,)):
        self.cluster = cluster
        self.reserved = frozenset(int(n) for n in reserved)
        for node_id in self.reserved:
            if not 0 <= node_id < cluster.num_nodes:
                raise PartitionError(f"reserved node {node_id} not in cluster")
        self._free = sorted(
            n for n in range(cluster.num_nodes) if n not in self.reserved
        )
        self._held: dict[int, str] = {}
        self._retired: set[int] = set()

    # -- capacity ----------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Schedulable nodes: free + held (retired ones are gone)."""
        return len(self._free) + len(self._held)

    @property
    def potential_capacity(self) -> int:
        """Nodes the pool could ever schedule.

        For the static pool this equals :attr:`capacity`; an elastic
        pool (see :class:`ElasticNodePool`) also counts parked nodes an
        autoscaler may still bring online, so the job manager does not
        fail a queued job that a future scale-up could satisfy.
        """
        return self.capacity

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def held_count(self) -> int:
        return len(self._held)

    def free_nodes(self) -> list[int]:
        return list(self._free)

    def holder_of(self, node_id: int) -> str | None:
        return self._held.get(node_id)

    # -- allocation ----------------------------------------------------------
    def allocate(self, count: int, holder: str = "") -> tuple[int, ...]:
        """Claim the ``count`` lowest-id free nodes for ``holder``.

        Deterministic by construction: the same request sequence always
        yields the same partitions.
        """
        if count < 1:
            raise PartitionError("partition size must be >= 1")
        if count > len(self._free):
            raise PartitionError(
                f"requested {count} nodes, only {len(self._free)} free"
            )
        taken = tuple(self._free[:count])
        del self._free[:count]
        for node_id in taken:
            self._held[node_id] = holder
        return taken

    def release(self, node_ids) -> None:
        """Return held nodes to the pool (retired nodes stay retired)."""
        for node_id in node_ids:
            if node_id in self._retired:
                self._held.pop(node_id, None)
                continue
            if node_id not in self._held:
                raise PartitionError(f"node {node_id} is not held")
            del self._held[node_id]
            self._free.append(node_id)
        self._free.sort()

    def retire(self, node_id: int) -> None:
        """Remove a node from service permanently (crash/drain)."""
        if node_id in self._retired:
            return
        self._retired.add(node_id)
        if node_id in self._free:
            self._free.remove(node_id)
        # A held node is dropped from the pool when its job releases it.


class ElasticNodePool(NodePool):
    """A node pool whose schedulable size an autoscaler grows and shrinks.

    The physical cluster is built at its *maximum* size; nodes beyond
    ``initial_online`` start *offline* (parked, consuming nothing,
    invisible to the allocator).  The autoscaling controller moves nodes
    between three states:

    offline
        Parked.  Not allocatable, not counted in :attr:`capacity`, but
        counted in :attr:`potential_capacity` — a queued job that fits
        the potential pool is kept queued instead of failed.
    warming
        A scale-up was decided but the node is still booting (warm-up
        cost).  Allocatable only once warm-up completes.
    online
        In the free list, exactly like a static pool's nodes.

    Scale-down only ever takes *free* nodes (jobs are never evicted by
    the autoscaler — preemption is a separate, priority-driven
    mechanism), and takes the highest-ids first so the lowest-first
    allocator keeps packing the stable low end of the pool.  All
    transitions are pure functions of the request sequence, so seeded
    runs replay identically.
    """

    def __init__(self, cluster: Cluster, reserved=(0,),
                 initial_online: int | None = None):
        super().__init__(cluster, reserved=reserved)
        total = len(self._free)
        if initial_online is None:
            initial_online = total
        if not 1 <= initial_online <= total:
            raise PartitionError(
                f"initial_online must be in [1, {total}], "
                f"got {initial_online}"
            )
        #: Parked nodes, highest ids first off the free list.
        self._offline: list[int] = sorted(self._free[initial_online:])
        del self._free[initial_online:]
        self._warming: set[int] = set()

    # -- capacity ----------------------------------------------------------
    @property
    def potential_capacity(self) -> int:
        """Free + held + parked + warming (everything not retired)."""
        return self.capacity + len(self._offline) + len(self._warming)

    @property
    def offline_count(self) -> int:
        return len(self._offline)

    @property
    def warming_count(self) -> int:
        return len(self._warming)

    # -- autoscaler transitions --------------------------------------------
    def begin_warmup(self, count: int) -> tuple[int, ...]:
        """Pull up to ``count`` parked nodes into the warming state.

        Returns the node ids actually taken (lowest parked ids first;
        possibly fewer than requested, possibly empty).
        """
        count = min(count, len(self._offline))
        taken = tuple(self._offline[:count])
        del self._offline[:count]
        self._warming.update(taken)
        return taken

    def complete_warmup(self, node_ids) -> None:
        """Warm-up finished: the nodes join the free list."""
        for node_id in node_ids:
            if node_id not in self._warming:
                raise PartitionError(f"node {node_id} is not warming")
            self._warming.discard(node_id)
            if node_id in self._retired:
                continue  # retired while booting: never joins
            self._free.append(node_id)
        self._free.sort()

    def take_offline(self, count: int) -> tuple[int, ...]:
        """Park up to ``count`` *free* nodes (highest ids first).

        Held nodes are never touched; returns the ids actually parked.
        """
        count = min(count, len(self._free))
        if count <= 0:
            return ()
        taken = tuple(self._free[-count:])
        del self._free[-count:]
        self._offline.extend(taken)
        self._offline.sort()
        return taken

    def retire(self, node_id: int) -> None:
        super().retire(node_id)
        if node_id in self._offline:
            self._offline.remove(node_id)
        # A warming node is dropped when its warm-up completes.
