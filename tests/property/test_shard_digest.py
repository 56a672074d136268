"""Sharded control plane digest properties.

Two bit-identity promises guard the sharded plane (repro.core.shard):

* ``head_shards == 1`` *is* the classic runtime.  The delegation guard
  in :meth:`OMPCRuntime.launch` never imports the sharded modules for a
  single-shard config, so an explicit ``head_shards=1, gossip=False``
  run must produce the exact event stream of a default-config run —
  same SHA-256 over every processed ``(time, priority, name)``.

* The sharded plane itself rides the optimized simulator kernel.  A
  multi-shard run must be bit-identical to the same run on the
  reference heap/linear-scan kernel of ``tests/reference_kernel.py``
  — this also pins
  the ``MatchStore`` per-tag FIFO (ANY_SOURCE-by-tag matching), which
  the shard lease/notify traffic exercises hard.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

from tests.property.test_kernel_digest import _run_traced, _tap_all_sims

BANDWIDTH = 100e9 / 8.0


def _scenario(nodes: int, steps: int, config: OMPCConfig,
              pattern: Pattern = Pattern.STENCIL_1D):
    spec = TaskBenchSpec.with_ccr(
        2 * nodes, steps, pattern, KernelSpec.paper_50ms(), 1.0, BANDWIDTH
    )

    def scenario():
        runtime = OMPCRuntime(ClusterSpec(num_nodes=nodes), config)
        res = runtime.run(build_omp_program(spec))
        cluster = runtime.last_cluster
        net = cluster.network
        return (
            res.makespan,
            net.total_bytes,
            net.total_messages,
            cluster.sim._seq,
        )

    return scenario


def _digest_of(scenario) -> tuple[str, object]:
    digest = hashlib.sha256()
    with _tap_all_sims(digest):
        result = scenario()
    return digest.hexdigest(), result


def test_single_shard_bit_identical_to_default():
    """head_shards=1 must never reach the sharded code path."""
    base_digest, base_result = _digest_of(
        _scenario(4, 4, OMPCConfig())
    )
    one_digest, one_result = _digest_of(
        _scenario(4, 4, OMPCConfig(head_shards=1, gossip=False))
    )
    assert one_digest == base_digest, (
        "an explicit head_shards=1 config changed the event stream of "
        "the classic single-head runtime"
    )
    assert one_result == base_result


def test_single_shard_never_imports_sharded_plane():
    import repro.core.runtime as rt_mod

    runtime = OMPCRuntime(ClusterSpec(num_nodes=4),
                          OMPCConfig(head_shards=1))
    spec = TaskBenchSpec.with_ccr(
        8, 2, Pattern.STENCIL_1D, KernelSpec.paper_50ms(), 1.0, BANDWIDTH
    )
    runtime.run(build_omp_program(spec))
    assert runtime._sharded is None
    assert rt_mod is not None  # the import guard lives in launch()


@pytest.mark.parametrize("shards,nodes", [(2, 8), (4, 16)])
def test_sharded_run_fast_vs_reference_bit_identical(shards, nodes):
    cfg = OMPCConfig(head_shards=shards)
    fast_digest, fast_result = _run_traced(
        _scenario(nodes, 3, cfg), fastpath=True
    )
    ref_digest, ref_result = _run_traced(
        _scenario(nodes, 3, cfg), fastpath=False
    )
    assert fast_digest == ref_digest, (
        "optimized kernel reordered the sharded plane's event stream"
    )
    assert fast_result == ref_result


def test_sharded_run_is_deterministic():
    cfg = OMPCConfig(head_shards=4, gossip=True)
    first = _digest_of(_scenario(16, 3, cfg))
    second = _digest_of(_scenario(16, 3, cfg))
    assert first == second
