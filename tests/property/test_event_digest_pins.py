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
        "9613ecdd2f6a45c44153a53139415391e01818007b36285459b22bddc484c63f",
        0.07051929503999999, 800),
    "ft-head-kill": (
        "556c0817554b6a34b187f1e404fc6b27256730ea3b5987a09fcbbdd609a1850b",
        0.038290908480000094, 15214),
    "no-forwarding": (
        "b00cb657291ac5a679b132754b66bcb16842730e5c7dda6df16d3cbecfaf6fb5",
        0.657009489963636, 2830),
    "overload-1x": (
        "de46255b6f85d83862dcaa1504ba38c9c104954011752619fb43d5adb9b6d731",
        0.7364163033272895, 25373),
    "page-protect": (
        "eedaad2734678b7087d3c9f4bec1619b3ceaa61078b6f52359fab31685567452",
        0.396249773250909, 2677),
    "plain-all_to_all": (
        "c28d44611f9daafe90cdfcfa67a03a244b71950e85d66ff9555a8b98d8f69ff6",
        0.8713520714681041, 9320),
    "plain-fft": (
        "fe25b57108c846283b5f83459768e8507a0efc5ed602f7616c2aead9a47b94d9",
        0.36422924803199985, 2867),
    "plain-stencil_1d": (
        "e625f6049820c3f8492a966553e7c0e43ba6da94ca178d61fd1f8c0b7cd8c94b",
        0.3296665732509088, 2646),
    "shards-2": (
        "39650248bacf03075dc24834cb97ac727dcccb0f37838f964c9d0c90b569cbfe",
        0.3784844204660868, 5687),
    "shards-2-trace-analysis": (
        "39650248bacf03075dc24834cb97ac727dcccb0f37838f964c9d0c90b569cbfe",
        0.3784844204660868, 5687),
    "shards-4": (
        "18377c241dbc4bc7fd897ef6c2f99e0ee0db986ce589a005f5a5ffcc8bfabdf4",
        0.4868702751873774, 13733),
    "shards-4-failover": (
        "0e929f48bbeab204b018e2a35ee48ec5504a9dc65dac1ef6db235292ac1caf9f",
        0.4750482282762879, 178485),
    "shards-4-gossip": (
        "2f1b8cd03ad6a310f7e6209582f50fc97beaf32139aaceb3adedb94cd116c066",
        0.48613855458141, 193346),
    "tiered-lru-0.25": (
        "6c8d7583db49f0e57698a43b69c02a7fc460e1f0f012eb5fb02dce64a4b5027c",
        0.02792534752000014, 3166),
    "trace-analysis": (
        "e625f6049820c3f8492a966553e7c0e43ba6da94ca178d61fd1f8c0b7cd8c94b",
        0.3296665732509088, 2646),
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
