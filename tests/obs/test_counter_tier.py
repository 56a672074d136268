"""The always-on counter tier: ``result.counters``, pinned exactly.

Every run records its counters on the cluster's one observer, traced or
not.  These scenarios (one per control plane) pin the exact
``result.counters`` dicts, so a counter that is dropped, renamed or
double-counted fails here, and check that tracing does not change them.

``BASE_*`` holds the runtime and event-system counters; ``ADDED_*``
holds the heartbeat and gossip health counters, which reach
``result.counters`` because the observer's counter tier is always on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.jobscmd import (
    OVERLOAD_NODES,
    overload_elastic_config,
    overload_trace,
)
from repro.cluster import Cluster, ClusterSpec
from repro.core import (
    FaultPlan,
    FaultTolerantRuntime,
    LinkLoss,
    NodeFailure,
    OMPCConfig,
    OMPCRuntime,
)
from repro.jobs import ElasticJobManager, JobState
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_out
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

KB = 1024


def _taskbench(width: int, steps: int):
    spec = TaskBenchSpec(width, steps, Pattern.STENCIL_1D,
                         KernelSpec.from_duration(1e-3),
                         output_bytes=64 * KB)
    return build_omp_program(spec)


def _stencil(width: int = 8, steps: int = 4, nbytes: int = 64 * KB):
    """A double-buffered stencil with real payloads (FT re-executes)."""
    prog = OmpProgram("counter-tier")
    bufs = [
        [prog.buffer(nbytes, data=np.zeros(4), name=f"p{q}g{g}")
         for g in range(2)]
        for q in range(width)
    ]
    for step in range(steps):
        for point in range(width):
            reads = [bufs[q][(step - 1) % 2]
                     for q in (point - 1, point, point + 1)
                     if step and 0 <= q < width]

            def fn(*arrays, c=float(step + point)):
                *ins, out = arrays
                np.copyto(out, 0.5 * (c + sum(ins)))

            prog.target(
                fn,
                depend=[depend_in(b) for b in reads]
                + [depend_out(bufs[point][step % 2])],
                cost=1e-3, name=f"t{step}p{point}",
            )
    prog.target_exit_data(*(bufs[q][(steps - 1) % 2] for q in range(width)))
    return prog


def plain(trace: bool) -> dict:
    runtime = OMPCRuntime(ClusterSpec(num_nodes=5), OMPCConfig(trace=trace))
    return runtime.run(_taskbench(8, 4)).counters


def fault_tolerant(trace: bool) -> dict:
    cfg = OMPCConfig(trace=trace, head_standbys=2,
                     device_memory_bytes=16 * 64 * KB,
                     eviction_policy="lru")
    runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=6), cfg)
    return runtime.run(
        _stencil(),
        failures=[NodeFailure(time=0.006, node=0)],
        fault_plan=FaultPlan(seed=3, losses=[LinkLoss(probability=0.01)]),
    ).counters


def sharded(trace: bool) -> dict:
    cfg = OMPCConfig(trace=trace, head_shards=4, gossip=True)
    runtime = OMPCRuntime(ClusterSpec(num_nodes=16), cfg)
    return runtime.run(_taskbench(16, 3)).counters


def overload(trace: bool) -> tuple[dict, dict]:
    """The quick 1x overload day: (manager counters, summed job counters)."""
    manager = ElasticJobManager(
        Cluster(ClusterSpec(num_nodes=OVERLOAD_NODES)),
        policy="backfill",
        elastic=overload_elastic_config(),
        default_config=OMPCConfig(trace=trace),
    )
    report = manager.run(overload_trace(load=1.0, quick=True))
    jobs: dict[str, float] = {}
    for job in manager.jobs:
        if job.state is JobState.COMPLETED:
            for key, value in job.result.counters.items():
                jobs[key] = jobs.get(key, 0) + value
    return dict(report.counters), jobs


BASE_PLAIN = {
    "ompc.bytes_exchanged": 1179648.0,
    "ompc.events.alloc": 16.0,
    "ompc.events.delete": 12.0,
    "ompc.events.exchange_dst": 18.0,
    "ompc.events.exchange_src": 18.0,
    "ompc.events.execute": 32.0,
    "ompc.notifications": 96.0,
}

BASE_FT = {
    "faults.dropped_messages": 14,
    "ft.head_failovers": 1.0,
    "mem.miss": 63.0,
    "ompc.bytes_exchanged": 3801088.0,
    "ompc.bytes_retrieved": 589824.0,
    "ompc.bytes_submitted": 327680.0,
    "ompc.events.alloc": 32.0,
    "ompc.events.exchange_dst": 58.0,
    "ompc.events.exchange_src": 58.0,
    "ompc.events.execute": 33.0,
    "ompc.events.retrieve": 9.0,
    "ompc.events.submit": 5.0,
    "ompc.exec_dedup_hits": 1.0,
    "ompc.node_failures": 1.0,
    "ompc.notifications": 195.0,
}
ADDED_FT = {
    "hb.detections": 1.0,
    "hb.missed_windows": 3.0,
    "hb.suspect_reports": 1.0,
}

BASE_SHARD = {
    "ompc.bytes_exchanged": 2883584.0,
    "ompc.events.alloc": 32.0,
    "ompc.events.delete": 22.0,
    "ompc.events.exchange_dst": 44.0,
    "ompc.events.exchange_src": 44.0,
    "ompc.events.execute": 48.0,
    "ompc.notifications": 190.0,
    "shard.cross_edges": 36.0,
    "shard.dispatches": 48.0,
    "shard.forwards": 32.0,
    "shard.leases": 32.0,
}
ADDED_SHARD = {
    "gossip.pings": 144.0,
    "gossip.rounds": 8.0,
}

OVERLOAD_MANAGER = {
    "jobs.backfilled": 4.0,
    "jobs.cluster_exhausted": 2.0,
    "jobs.completed": 16.0,
    "jobs.dead_letter.failures": 2.0,
    "jobs.dead_lettered": 2.0,
    "jobs.preempted": 2.0,
    "jobs.preemptions_issued": 2.0,
    "jobs.requeued": 4.0,
    "jobs.scale_down": 3.0,
    "jobs.scale_up": 5.0,
    "jobs.started": 22.0,
    "jobs.submitted": 18.0,
}
OVERLOAD_JOBS = {
    "ompc.bytes_exchanged": 0.0,
    "ompc.events.alloc": 104.0,
    "ompc.events.delete": 38.0,
    "ompc.events.exchange_dst": 110.0,
    "ompc.events.exchange_src": 110.0,
    "ompc.events.execute": 130.0,
    "ompc.notifications": 492.0,
}


@pytest.mark.parametrize("scenario,expected", [
    (plain, BASE_PLAIN),
    (fault_tolerant, {**BASE_FT, **ADDED_FT}),
    (sharded, {**BASE_SHARD, **ADDED_SHARD}),
    (overload, (OVERLOAD_MANAGER, OVERLOAD_JOBS)),
], ids=["plain", "fault-tolerant", "sharded-gossip", "overload"])
def test_counters_pinned_and_independent_of_tracing(scenario, expected):
    untraced = scenario(trace=False)
    assert untraced == expected
    assert scenario(trace=True) == untraced


def test_traced_tier_stays_out_of_result_counters():
    runtime = OMPCRuntime(ClusterSpec(num_nodes=5), OMPCConfig(trace=True))
    res = runtime.run(_taskbench(8, 4))
    recorded = res.obs.counters
    # The observer holds the per-link byte totals, the first-event
    # interval and the transport tallies; result.counters does not.
    assert any(key.startswith("link.") for key in recorded)
    assert recorded["ompc.first_event_interval"] > 0
    assert "mpi.transport.drops" in recorded
    assert res.counters == BASE_PLAIN
