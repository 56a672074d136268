"""OMPC runtime configuration and calibrated overhead constants.

Every value a caller varies lives here, each annotated with the paper
observation it reproduces (Fig. 7a for the runtime-intrinsic overheads,
§6.1/§7 for the structural parameters).  Values that shape the runtime
but that no caller varies are constants of the module that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import MICROSECOND, MILLISECOND


@dataclass(frozen=True)
class OMPCConfig:
    """Tunable parameters of the OMPC runtime.

    Structural parameters
    ---------------------
    head_threads
        OpenMP threads available on the head node.  LLVM's libomptarget
        blocks one thread per in-flight ``target nowait`` region (§7),
        so this bounds concurrent offloaded tasks — the root cause of
        the paper's scalability knee at 32–64 nodes.  The evaluation
        cluster exposes 48 hardware threads per CPU; 48 is the default.
    forwarding_enabled
        When True (default, the paper's design) buffer copies move
        worker-to-worker; when False every move routes through the head
        node (ablation B).
    broadcast_events
        Enable the §7 one-to-many broadcast-event extension (ablation E).

    Failure detection
    -----------------
    gossip / gossip_interval
        Which configuration the one failure detector
        (:class:`~repro.core.gossip.FailureDetector`) runs: the §3.1
        heartbeat ring (the default), or SWIM gossip with one probe per
        node every ``gossip_interval``.  Its windows, timeouts, fan-out
        and seed are constants of :mod:`repro.core.gossip`.

    Calibrated overheads (Fig. 7a)
    -------------------------------
    startup_time
        Process start → gate-thread creation.  Chosen with
        ``shutdown_time`` so the constant runtime overhead "fluctuates
        around 25 ms" with an ~4.7 ms interval after the first event.
    shutdown_time
        Gate-thread destruction → process end.
    first_event_interval
        The ~4.7 ms pause observed at the head node right after the
        first event (one-time lazy initialization of the event system).
    event_origin_overhead / event_handler_overhead
        Software time to create an origin event (collect arguments,
        pick tag/communicator) and to handle a destination event.
    task_creation_overhead
        Control-thread cost to outline and enqueue one task.
    schedule_unit_cost
        HEFT is O(e·p) (§4.4); total scheduling time is
        ``edges × nodes × schedule_unit_cost``.

    Fixed shape
    -----------
    Values no caller varies are module constants next to their reader:
    the handler pool, communicator pool, page and control-message sizes
    in :mod:`repro.core.events`; the commit-log record size, lag bound
    and replay cost in :mod:`repro.core.headlog`; the fetch back-off in
    :mod:`repro.core.runtime`.
    """

    # -- structural -------------------------------------------------------
    #: Enable the unified observability layer (repro.obs): lifecycle
    #: spans, message flows, and utilization gauges collected on an
    #: Observer exposed as ``OMPCRunResult.obs``.  Instrumentation reads
    #: the clock but never advances it, so tracing is zero-cost in
    #: simulated time; off by default to keep untraced runs lean.
    trace: bool = False
    #: Enable the correctness subsystem (repro.analysis): static lint of
    #: the program, vector-clock race detection over actual buffer
    #: accesses, and MPI request/message auditing, reported as
    #: ``OMPCRunResult.analysis``.  Hooks are plain calls that never
    #: yield, so analysis has zero simulated-time cost and leaves
    #: makespan/network counters bit-identical; off by default.
    analysis: bool = False
    head_threads: int = 48
    forwarding_enabled: bool = True
    broadcast_events: bool = False
    #: Write-detection mechanism (§7): ``"dependencies"`` trusts the
    #: ``depend`` clauses (the paper's current design, which forces every
    #: written buffer into the dependence list); ``"page_protect"``
    #: implements the proposed alternative — device allocations are
    #: write-protected and the runtime marks regions dirty by
    #: intercepting the first write to each page, at
    #: ``page_fault_overhead`` per touched page.
    write_detection: str = "dependencies"
    page_fault_overhead: float = 0.3e-6
    #: Per-node device-memory capacity in bytes; 0 means unlimited (the
    #: historical behavior).  With a finite capacity, mapping more
    #: buffer bytes than fit on a node raises ``DeviceMemoryError`` —
    #: essential once several jobs partition one cluster and none may
    #: assume it owns infinite device memory.
    device_memory_bytes: float = 0.0
    #: Tiered-store eviction policy (repro.core.tiering).  ``"none"``
    #: keeps the PR 4 behavior — overflow is a fatal
    #: ``DeviceMemoryError``.  ``"lru"`` / ``"cost"`` turn overflow into
    #: graceful degradation: dirty sole copies spill device→host
    #: (write-behind), clean replicas are dropped, and evicted buffers
    #: are re-fetched read-through when needed again.  Requires a finite
    #: ``device_memory_bytes`` (rejected otherwise).
    eviction_policy: str = "none"
    #: Read-through re-fetch retry budget: how many times a failed fetch
    #: of an evicted buffer is retried (exponential backoff) before the
    #: run gives up.  Fetches only fail under fault plans with a
    #: ``MemoryPressure`` arm carrying ``fetch_fail_prob > 0``.
    mem_fetch_retries: int = 4

    # -- transient-fault tolerance (repro.core.faultmodel extension) --------
    #: Head-side checkpoint period for written buffers; 0 disables
    #: checkpointing (the seed behavior: lineage-only recovery, which
    #: cannot rebuild in-place/INOUT producers).
    checkpoint_interval: float = 0.0
    #: Speculative re-dispatch threshold: a running target task whose
    #: elapsed time exceeds ``straggler_factor`` times its cost estimate
    #: gets a backup attempt on a second node (first finisher wins).
    #: 0 disables speculation.  Only tasks whose writes are all pure
    #: ``out`` dependences are eligible (double execution is idempotent).
    straggler_factor: float = 0.0

    # -- sharded control plane (repro.core.shard extension) -----------------
    #: Number of head shards the control plane is partitioned across.
    #: 1 (the default) is the paper's single-head runtime — the event
    #: stream stays bit-identical to the historical kernel.  With K > 1
    #: nodes ``0..K-1`` become shard-manager nodes, each owning a
    #: consistent-hash slice of the task graph with its own scheduler
    #: instance and ``head_threads`` dispatch slots (the §7 knee is per
    #: shard), and cross-shard dependences resolve through
    #: lease/subscription messages between managers.
    head_shards: int = 1
    #: Run the failure detector (repro.core.gossip) in its SWIM gossip
    #: configuration instead of the §3.1 heartbeat ring.  Off by
    #: default; sharded runs with failures require it — the ring's
    #: confirm step assumes a single head.  The detector's other
    #: parameters are constants of repro.core.gossip.
    gossip: bool = False
    #: Gossip protocol period (one probe per node per period).
    gossip_interval: float = 1.0 * MILLISECOND

    # -- head failover (repro.core.headlog extension) -----------------------
    #: Standby workers replicating the head's commit log (nodes
    #: ``1..head_standbys``, clamped to the worker count).  0 disables
    #: replication entirely (the seed behavior: a head crash is fatal).
    head_standbys: int = 0

    # -- calibrated overheads ------------------------------------------------
    startup_time: float = 12.0 * MILLISECOND
    shutdown_time: float = 8.0 * MILLISECOND
    first_event_interval: float = 4.7 * MILLISECOND
    event_origin_overhead: float = 20.0 * MICROSECOND
    event_handler_overhead: float = 20.0 * MICROSECOND
    task_creation_overhead: float = 2.0 * MICROSECOND
    schedule_unit_cost: float = 50.0e-9

    def __post_init__(self) -> None:
        if self.head_threads < 1:
            raise ValueError("head_threads must be >= 1")
        if self.write_detection not in ("dependencies", "page_protect"):
            raise ValueError(
                "write_detection must be 'dependencies' or 'page_protect'"
            )
        if self.page_fault_overhead < 0:
            raise ValueError("page_fault_overhead must be >= 0")
        if self.device_memory_bytes < 0:
            raise ValueError("device_memory_bytes must be >= 0 (0 = unlimited)")
        if self.eviction_policy not in ("none", "lru", "cost"):
            raise ValueError(
                "eviction_policy must be 'none', 'lru', or 'cost'"
            )
        if self.eviction_policy != "none" and self.device_memory_bytes <= 0:
            raise ValueError(
                f"eviction_policy={self.eviction_policy!r} needs "
                "device_memory_bytes > 0: every runtime (OMPCRuntime, "
                "FaultTolerantRuntime, ShardedRuntime) arms the tiered "
                "store only on a finite device, so the policy would be "
                "ignored"
            )
        if self.mem_fetch_retries < 0:
            raise ValueError("mem_fetch_retries must be >= 0")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0 (0 = off)")
        if self.straggler_factor < 0:
            raise ValueError("straggler_factor must be >= 0 (0 = off)")
        if self.head_shards < 1:
            raise ValueError("head_shards must be >= 1")
        if self.gossip_interval <= 0:
            raise ValueError("gossip_interval must be > 0")
        if self.head_standbys < 0:
            raise ValueError("head_standbys must be >= 0 (0 = off)")
        for field_name in (
            "startup_time",
            "shutdown_time",
            "first_event_interval",
            "event_origin_overhead",
            "event_handler_overhead",
            "task_creation_overhead",
            "schedule_unit_cost",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
