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

import hashlib

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core import FaultPlan, FaultTolerantRuntime, LinkLoss, NodeFailure
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.core.shard import ShardedRuntime
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

from tests.core.test_broadcast_integration import BASE, one_to_many_program
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


def _overload():
    from repro.bench.jobscmd import run_overload

    def scenario():
        manager, report = run_overload("backfill", load=1.0, quick=True)
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
    "overload-1x": _overload(),
}

#: scenario -> (sha256 of the event stream, makespan, sim._seq)
PINS: dict[str, tuple[str, float, int]] = {
    "broadcast": (
        "991272c0226df9ff26a26f0cb121ef7f4d957d4f56b73a2ac5642d248184370b",
        0.07051929503999999, 404),
    "ft-head-kill": (
        "5866f4ef86b4447f9dc1e1a893ef87756c2fce03060a17ada4d20be4c3006144",
        0.038290908480000094, 6547),
    "no-forwarding": (
        "68068e550cc04c9bcada6525da767a12086a077ef74d70f623287303666e6462",
        0.6570094899636348, 1335),
    "overload-1x": (
        "10b3319d400e5427f2a811b97fdcea08c9198203076db1cc47ccc9dfac95ceb6",
        0.7364163033272895, 12745),
    "page-protect": (
        "154f7a0dfb02865b798c86c1b602b88d2cf2cea2241a22cf07749e665effeaf2",
        0.39624977325090904, 1352),
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
        "d11232dd6e89a0a630c0dc1d7891b0fa64a8545ce007040f6b36805f6711a6e5",
        0.4750482282762884, 66139),
    "shards-4-gossip": (
        "0ac5607fc1c014a3246ed5b651cdd657a0bf150054ef95bf4b6742d27a6b0ce1",
        0.48613855458140964, 72209),
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
