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
        "72a42fada91b03b3eedad38bb5450fed168ff543e117b0a7e0827d9f9cd8f02f",
        0.07051929503999999, 241),
    "ft-checkpoint-lossy": (
        "1f5d0b62d7531d742bc4e594781420fd792d19508712bc0a5edae2c02de003d7",
        0.33075534591999983, 9198),
    "ft-clean-trace-analysis": (
        "6ce01cf9852784113cf4d6220992191d15045164e4b1f76d8c6903802f95511b",
        0.030161916640000105, 3819),
    "ft-gossip-worker-kill": (
        "7c0b63882c15a81372031b32ec78a3de73b1ad850748febc5038701447cc5ca0",
        0.3204011824000001, 10028),
    "ft-head-kill": (
        "0b808bbf4563a957f801807fa4f8c1337b89b186eb890ad00e7001c66051ea9e",
        0.03783528640000007, 5801),
    "ft-pressure-crash": (
        "7e79f56cf13d90688d078b4f15552b41210cbafceb51696126c5cbfe5b284c0d",
        0.03642886448000011, 2047),
    "ft-pressure-flaky": (
        "c310eea5cebad173f314c0e020178478d46206beadd410129ec165be73cf2e93",
        0.047115960160000095, 2177),
    "ft-speculation": (
        "5727780ff5602f4f43c2d4711bdcf024ad3328ec9e65d548a4323a1b6e9f622f",
        0.20004917855999949, 3990),
    "ft-worker-kill-lineage": (
        "ddcb2e51fc951b8dd3eaa58405430df459d3db4a007fd65fd15296d2929130fb",
        0.2400431305599994, 3397),
    "no-forwarding": (
        "d63e14d56b35819c9a193e28977e73c8d79e9f8c61d1b691f6c8b9aea72d71ba",
        0.6570094899636348, 1075),
    "overload-1x": (
        "6353bcb587954a81c4880c8aef24e5a82f262c4be12374dc39eb7230fa194737",
        0.7364163033272895, 9450),
    "page-protect": (
        "2aefaebb4e2d628e073fccc20bb83b2962ef53651c64b8c00d39aac614703639",
        0.39624977325090904, 1095),
    "perf-fig5-n8": (
        "45592e48a1f2e334d80dcfafce90b2448ce1b2247b5df7b4bc021980d99947b0",
        0.342454686159532, 2288),
    "perf-jobs-backfill": (
        "8386512393ab3ce3b68f01ac252d3777b7f6d89960a62e4835ff6a79c1ed09aa",
        0.5492255911809469, 3303),
    "plain-all_to_all": (
        "aa17c8a7e400c61996f0c34a9df3118ab2ffba925c12e5a9aaa572b6044aa8ec",
        0.8713520714681041, 3781),
    "plain-fft": (
        "e38d919d878fd4fc3e5fe95e57da0ecf1cf8c6497acc39cba8ab53a098a606d9",
        0.36422924803199985, 1148),
    "plain-stencil_1d": (
        "0e36b6ad89d8c2b1299474a1205aacde3083edfdc00319854213832ea94aa62f",
        0.3296665732509088, 1063),
    "shards-2": (
        "39a3c6e2ed6d0190351be0091b5b1e3783c16598f1998368a81d82ffa61704c8",
        0.3784844204660868, 2168),
    "shards-2-trace-analysis": (
        "39a3c6e2ed6d0190351be0091b5b1e3783c16598f1998368a81d82ffa61704c8",
        0.3784844204660868, 2168),
    "shards-4": (
        "0c42a8907d950778fc1e9e7261e959e80039ed94d2d9ba7e9d780bf51ffa7c3c",
        0.48687027518737735, 5329),
    "shards-4-failover": (
        "c9cee7abaf5efc35e7a49639298c593311504820304c96cd100461993052d0c6",
        0.4750482282762884, 65202),
    "shards-4-gossip": (
        "42c99aa47b7b7f3f9d9a9b10b54644bfaadcce343cd8aa1fc3c61998cc1d0cf9",
        0.48613855458140964, 71160),
    "tiered-lru-0.25": (
        "c23be78dcf3da35b3ddf152724ebea7b1a2f3796eb672cfdacf447f89afd8e69",
        0.02792534752000014, 1490),
    "trace-analysis": (
        "0e36b6ad89d8c2b1299474a1205aacde3083edfdc00319854213832ea94aa62f",
        0.3296665732509088, 1063),
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
