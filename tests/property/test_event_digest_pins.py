"""Absolute event-stream pins for every control plane.

The other digest tests compare two kernels, or two configs, inside one
commit: a change that renames, reorders or adds an event in *both*
sides of such a pair passes them.  This table pins the stream itself.
Each scenario records the SHA-256 over every processed event's
``(time, priority, name)``, the simulated makespan and the simulator's
final sequence number (``sim._seq``, which counts every scheduled
event).  A refactor of the runtimes' control code must leave every row
unchanged; a deliberate behaviour change re-pins the affected rows in
the same change and says why.

The values do not depend on ``PYTHONHASHSEED`` or on which tests ran
before: no runtime iterates a container ordered by string hash or by
object identity on a path that reaches the clock.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core import (
    FaultPlan,
    FaultTolerantRuntime,
    LinkDegradation,
    LinkLoss,
    MemoryPressure,
    NodeFailure,
    NodeStall,
)
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.core.shard import ShardedRuntime
from repro.jobs import JobManager, PoissonWorkload
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

from tests.core.test_broadcast_integration import BASE, one_to_many_program
from tests.core.test_faults import FAST, shots_program
from tests.obs.test_counter_tier import _stencil
from tests.property.test_kernel_digest import _tap_all_sims
from tests.property.test_memory_properties import KB, pipeline_program

BANDWIDTH = 100e9 / 8.0


def _taskbench(width: int, steps: int, pattern=Pattern.STENCIL_1D):
    spec = TaskBenchSpec.with_ccr(
        width, steps, pattern, KernelSpec.paper_50ms(), 1.0, BANDWIDTH
    )
    return build_omp_program(spec)


def _plain(nodes: int, program, cfg: OMPCConfig):
    def scenario():
        runtime = OMPCRuntime(ClusterSpec(num_nodes=nodes), cfg)
        res = runtime.run(program())
        return res.makespan, runtime.last_cluster.sim._seq

    return scenario


def _fig5(pattern=Pattern.STENCIL_1D, **cfg):
    return _plain(4, lambda: _taskbench(8, 4, pattern), OMPCConfig(**cfg))


def _sharded(shards: int, nodes: int, **cfg):
    return _plain(nodes, lambda: _taskbench(2 * nodes, 3),
                  OMPCConfig(head_shards=shards, **cfg))


def _broadcast():
    return _plain(7, lambda: one_to_many_program()[0],
                  OMPCConfig(broadcast_events=True, **BASE))


def _tiered():
    cap = max(2 * KB, 0.25 * 8 * 2 * KB)
    return _plain(3, lambda: pipeline_program()[0],
                  OMPCConfig(device_memory_bytes=cap, eviction_policy="lru"))


def _shard_failover():
    def scenario():
        cfg = OMPCConfig(head_shards=4, gossip=True, head_standbys=1)
        runtime = ShardedRuntime(ClusterSpec(num_nodes=16), cfg,
                                 inject_failures=((0.08, 2),))
        res = runtime.run(_taskbench(16, 4))
        assert res.counters["shard.failovers"] == 1
        return res.makespan, runtime.last_cluster.sim._seq

    return scenario


def _ft_head_kill():
    def scenario():
        cfg = OMPCConfig(head_standbys=2, device_memory_bytes=16 * 64 * KB,
                         eviction_policy="lru")
        runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=6), cfg)
        res = runtime.run(
            _stencil(),
            failures=[NodeFailure(time=0.006, node=0)],
            fault_plan=FaultPlan(seed=3, losses=[LinkLoss(probability=0.01)]),
        )
        return res.makespan, runtime.last_cluster.sim._seq

    return scenario


def _ft(nodes: int, program, cfg: OMPCConfig, check=None, **run_kwargs):
    """A :class:`FaultTolerantRuntime` scenario; ``check(result)`` asserts
    the run exercised the machinery the row is there to pin."""
    def scenario():
        runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=nodes), cfg)
        res = runtime.run(program(), **run_kwargs)
        if check is not None:
            assert check(res), res
        return res.makespan, runtime.last_cluster.sim._seq

    return scenario


def _lineage_program():
    """A sole-copy producer whose node (node 1) dies before its consumer
    runs: the consumer re-executes the producer."""
    prog = OmpProgram()
    a = prog.buffer(64, data=np.zeros(8), name="a")
    b = prog.buffer(64, data=np.zeros(8), name="b")
    gate = prog.buffer(8, name="gate")

    def produce(x):
        x[:] = 1.0

    prog.target(fn=produce, depend=[depend_out(a)], cost=0.02,
                name="producer")
    prog.task(depend=[depend_out(gate)], cost=0.2, name="delay")
    prog.target(
        fn=lambda x, _g, y: np.copyto(y, x * 10.0),
        depend=[depend_in(a), depend_in(gate), depend_out(b)],
        cost=0.02, name="consumer",
    )
    prog.target_exit_data(a, b)
    return prog


def _inplace_chains():
    """INOUT chains: only checkpoints can rebuild a lost link."""
    prog = OmpProgram("inplace-chains")
    bufs = []
    for i in range(6):
        buf = prog.buffer(256 * 8, data=np.zeros(256), name=f"chain{i}")
        bufs.append(buf)
        prog.target_enter_data(buf)
        for step in range(3):
            prog.target(
                fn=lambda x, k=i: np.add(x, k + 1.0, out=x),
                depend=[depend_inout(buf)],
                cost=0.08, name=f"chain{i}.step{step}",
            )
    prog.target_exit_data(*bufs)
    return prog


def _pressure_program(n: int = 10):
    """Staged inputs dirtied in place, then reduced: twice one device."""
    prog = OmpProgram("pressure-demo")
    bufs = [prog.buffer(4 * KB, data=np.zeros(64), name=f"in{i}")
            for i in range(n)]
    outs = [prog.buffer(4 * KB, data=np.zeros(64), name=f"out{i}")
            for i in range(n)]
    prog.target_enter_data(*bufs)
    for i, b in enumerate(bufs):
        prog.target(
            fn=lambda x, k=i: np.add(x, k + 1.0, out=x),
            depend=[depend_inout(b)], cost=0.002, name=f"dirty{i}",
        )
    for i, (b, o) in enumerate(zip(bufs, outs)):
        prog.target(
            fn=lambda x, y: np.copyto(y, 3.0 * x),
            depend=[depend_in(b), depend_out(o)],
            cost=0.002, name=f"reduce{i}",
        )
    prog.target_exit_data(*outs)
    return prog


PRESSURE = OMPCConfig(device_memory_bytes=20 * KB, eviction_policy="lru",
                      trace=True)


def _overload():
    from repro.bench.jobscmd import run_overload

    def scenario():
        manager, report = run_overload("backfill", load=1.0, quick=True)
        return report.horizon, manager.sim._seq

    return scenario


def _jobs_backfill():
    """Eight Poisson jobs under the backfill policy on 17 nodes."""
    def scenario():
        workload = PoissonWorkload(
            seed=7, jobs=8, mean_interarrival=0.01, large=(8, 12),
            large_fraction=0.35, steps=(3, 6), task_seconds=(0.02, 0.08),
        ).generate()
        manager = JobManager(Cluster(ClusterSpec(num_nodes=17)),
                             policy="backfill")
        report = manager.run(workload)
        return report.horizon, manager.sim._seq

    return scenario


SCENARIOS = {
    "plain-stencil_1d": _fig5(),
    "plain-fft": _fig5(Pattern.FFT),
    "plain-all_to_all": _fig5(Pattern.ALL_TO_ALL),
    "no-forwarding": _fig5(forwarding_enabled=False),
    "page-protect": _fig5(write_detection="page_protect"),
    "broadcast": _broadcast(),
    "tiered-lru-0.25": _tiered(),
    "trace-analysis": _fig5(trace=True, analysis=True),
    "shards-2": _sharded(2, 8),
    "shards-2-trace-analysis": _sharded(2, 8, trace=True, analysis=True),
    "shards-4": _sharded(4, 16),
    "shards-4-gossip": _sharded(4, 16, gossip=True),
    "shards-4-failover": _shard_failover(),
    "ft-head-kill": _ft_head_kill(),
    "ft-clean-trace-analysis": _ft(
        6, _stencil, OMPCConfig(trace=True, analysis=True)),
    "ft-worker-kill-lineage": _ft(
        4, _lineage_program, FAST,
        check=lambda r: r.reexecuted_tasks >= 1,
        failures=[NodeFailure(time=0.1, node=1)]),
    "ft-checkpoint-lossy": _ft(
        7, _inplace_chains, OMPCConfig(checkpoint_interval=0.05),
        check=lambda r: r.checkpoint_restores >= 1,
        failures=[NodeFailure(time=0.150, node=4)],
        fault_plan=FaultPlan(
            seed=17, losses=[LinkLoss(probability=0.02)],
            degradations=[LinkDegradation(
                start=0.0, end=1.0, latency_factor=4.0,
                bandwidth_factor=0.5, dst=3)],
        )),
    "ft-speculation": _ft(
        5, lambda: shots_program(cost=0.05)[0],
        dataclasses.replace(FAST, straggler_factor=3.0),
        check=lambda r: r.speculative_attempts >= 1,
        fault_plan=FaultPlan(seed=1, stalls=[
            NodeStall(node=1, start=0.0, end=10.0, factor=0.05)])),
    "ft-gossip-worker-kill": _ft(
        4, lambda: shots_program(num_shots=6, cost=0.2)[0],
        OMPCConfig(gossip=True), check=lambda r: r.failures == [2],
        failures=[NodeFailure(time=0.1, node=2)]),
    "ft-pressure-crash": _ft(
        4, _pressure_program, PRESSURE,
        check=lambda r: r.counters["mem.spill_bytes"] > 0,
        failures=[NodeFailure(time=0.004, node=2)]),
    "ft-pressure-flaky": _ft(
        4, _pressure_program,
        dataclasses.replace(PRESSURE, mem_fetch_retries=50),
        check=lambda r: r.counters["mem.fetch_retries"] > 0,
        fault_plan=FaultPlan(seed=11, pressures=[MemoryPressure(
            node=1, start=0.0, capacity_factor=0.5, fetch_fail_prob=0.5)])),
    "overload-1x": _overload(),
    # The four quick cells of the BENCH_kernel.json record are
    # plain-stencil_1d, overload-1x and the two rows below; their event
    # counts and makespans equal the recorded ones.
    "perf-fig5-n8": _plain(8, lambda: _taskbench(16, 4), OMPCConfig()),
    "perf-jobs-backfill": _jobs_backfill(),
}

#: scenario -> (sha256 of the event stream, makespan, sim._seq)
PINS: dict[str, tuple[str, float, int]] = {
    "broadcast": (
        "991272c0226df9ff26a26f0cb121ef7f4d957d4f56b73a2ac5642d248184370b",
        0.07051929503999999, 404),
    "ft-checkpoint-lossy": (
        "7c9d3055857a8034cc625c264a3242402b7b37dd7ddd60e43ed4aa7842cb6e2c",
        0.33075534591999983, 9450),
    "ft-clean-trace-analysis": (
        "2efd811b526aee00edd60d3892945ee4d57a0db75e768e3642721abbcb415cb8",
        0.030161916640000105, 4467),
    "ft-gossip-worker-kill": (
        "aa24bec51fef80faff56dfb1bc8bc245372d1d4a9448012679608ad9242e1f54",
        0.3204011824000001, 10174),
    "ft-head-kill": (
        "80aee5fd931e55eae9618a36dd6e732dc20334cdf59080353c8548910e2fad9f",
        0.03783528640000007, 6317),
    "ft-pressure-crash": (
        "77e6a693b1c2a6d3d26a0acd4fb8bde5757bfe71d49aadc59161b6c707025cac",
        0.03642886448000011, 2342),
    "ft-pressure-flaky": (
        "53f00f8acb251440ea4e26a31d5ebabd6d9060b1f46c0eaf2a62907b525f48b4",
        0.047115960160000095, 2463),
    "ft-speculation": (
        "52f03f64fb651ff531039d47bcb9ebf622a0f87fafd56f947576e6d914ed4571",
        0.20004917855999949, 4130),
    "ft-worker-kill-lineage": (
        "c81cd33d2f8166f5b0bcc62dc3479221964c9d0f3b7ab3e03e81d48c8c900e40",
        0.2400431305599994, 3488),
    "no-forwarding": (
        "68068e550cc04c9bcada6525da767a12086a077ef74d70f623287303666e6462",
        0.6570094899636348, 1335),
    "overload-1x": (
        "5ef707318155251eee2b82fa49acb994a93d8948cd4869d19f72cdcb92dc89c8",
        0.7364163033272895, 12101),
    "page-protect": (
        "154f7a0dfb02865b798c86c1b602b88d2cf2cea2241a22cf07749e665effeaf2",
        0.39624977325090904, 1352),
    "perf-fig5-n8": (
        "8d4039a0b7f2be55d49c14e692249641c55e1d809ac77f740aec72097862240b",
        0.342454686159532, 2869),
    "perf-jobs-backfill": (
        "0a2ac0c6e7226ea9118f666b8cc62680dc8c3fcfdc6c26166492eb32ed78ca26",
        0.5492255911809469, 4361),
    "plain-all_to_all": (
        "1fe737a840f16ccf62a14cd1345a61318c1002d0e43d08687877a4371e292dc6",
        0.8713520714681041, 4308),
    "plain-fft": (
        "dab64965700f486d23c889ff4a43fd18f93c906ddf72a276c4a5b884a2945b73",
        0.36422924803199985, 1414),
    "plain-stencil_1d": (
        "c8f0380899489af8f63153490537dfb3ea932313cbe57f7e1ff99cee46929639",
        0.3296665732509088, 1320),
    "shards-2": (
        "cf960d13f5244259d77d05aa37f0373e9602697264f33206f5ab65b8d0c7d596",
        0.3784844204660868, 2644),
    "shards-2-trace-analysis": (
        "cf960d13f5244259d77d05aa37f0373e9602697264f33206f5ab65b8d0c7d596",
        0.3784844204660868, 2644),
    "shards-4": (
        "f013006f34076fbf5e7b2daa0e8c44471cadbb9d84c17dbcaa66f96e084985a3",
        0.48687027518737735, 6329),
    "shards-4-failover": (
        "22de2379efdf92d9f7fd31f0c85181118058dfd98a934f46f3845b6bd7454343",
        0.4750482282762884, 66057),
    "shards-4-gossip": (
        "f6960c1e228f4a3702fae0c9a4ab5b717e40f117d61089ff9c1b3f895f0d0054",
        0.48613855458140964, 72160),
    "tiered-lru-0.25": (
        "3cd70a247e5c9071df92ab3d295abc8dd7a02ee309340b98d798edd4cf9fd3db",
        0.02792534752000014, 1745),
    "trace-analysis": (
        "c8f0380899489af8f63153490537dfb3ea932313cbe57f7e1ff99cee46929639",
        0.3296665732509088, 1320),
}


def _measure(scenario) -> tuple[str, float, int]:
    digest = hashlib.sha256()
    with _tap_all_sims(digest):
        makespan, seq = scenario()
    return digest.hexdigest(), makespan, seq


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_pinned(name):
    assert _measure(SCENARIOS[name]) == PINS[name]


def test_pins_cover_every_scenario():
    assert set(PINS) == set(SCENARIOS)


def main(argv: list[str]) -> int:
    """Print the ``PINS`` entries of the named rows (all rows when none
    is named), measured on the current tree and ready to paste.  A
    comment under each entry gives the pinned makespan and event count
    and the change, to check each re-pin's root cause against."""
    names = argv or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}")
        return 2
    for name in names:
        digest, makespan, seq = _measure(SCENARIOS[name])
        print(f'    "{name}": (\n        "{digest}",\n'
              f"        {makespan!r}, {seq}),")
        if name not in PINS:
            continue  # a new row: nothing pinned to compare with
        _, was_makespan, was_seq = PINS[name]
        moved = (f"{makespan - was_makespan:+.6g} s"
                 if makespan != was_makespan else "same")
        print(f"    # was {was_makespan!r} s / {was_seq} events: "
              f"makespan {moved}, {seq - was_seq:+d} events")
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
