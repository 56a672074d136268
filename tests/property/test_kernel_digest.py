"""Fast-path kernel equivalence: bit-identical event streams.

The simulator's optimized structures (the two-lane event queue and the
slotted MPI match tables) promise an *exactly* identical execution to
the reference heap/linear-scan kernel of ``tests/reference_kernel.py``
— same events, processed at the same times, with the same priorities,
in the same total order, producing the same results.

These tests enforce that promise with an event-order digest: a SHA-256
over every processed event's ``(time, priority, name)``, captured via
``sim._event_tap``.  Any reordering — even of two same-time events —
changes the digest.  Scenarios cover the Fig. 5 workload shape, several
Task Bench dependence patterns, observer/analysis hooks on and off, and
the multi-tenant overload day.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.sim.core import Simulator
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

from tests.reference_kernel import kernel

BANDWIDTH = 100e9 / 8.0


@contextmanager
def _tap_all_sims(digest: "hashlib._Hash"):
    """Attach an event-order tap to every Simulator built in the block.

    Runtimes construct their simulator internally, so the tap is
    installed by wrapping ``Simulator.__init__`` for the duration.
    """
    orig = Simulator.__init__

    def tapped(self, *args, **kwargs):
        orig(self, *args, **kwargs)

        def tap(t, priority, event, _d=digest, _p=struct.pack):
            _d.update(_p("<dI", t, priority))
            _d.update(event.name.encode())

        self._event_tap = tap

    Simulator.__init__ = tapped
    try:
        yield
    finally:
        Simulator.__init__ = orig


def _run_traced(scenario, fastpath: bool):
    """Run ``scenario()`` on the production kernel (``fastpath``) or the
    reference one; return (digest, result)."""
    digest = hashlib.sha256()
    with kernel(fastpath), _tap_all_sims(digest):
        result = scenario()
    return digest.hexdigest(), result


def _assert_equivalent(scenario):
    fast_digest, fast_result = _run_traced(scenario, fastpath=True)
    ref_digest, ref_result = _run_traced(scenario, fastpath=False)
    assert fast_digest == ref_digest, (
        "optimized kernel reordered the event stream"
    )
    assert fast_result == ref_result


def _fig5_scenario(pattern: Pattern, nodes: int, steps: int,
                   trace: bool = False, analysis: bool = False):
    spec = TaskBenchSpec.with_ccr(
        2 * nodes, steps, pattern, KernelSpec.paper_50ms(), 1.0, BANDWIDTH
    )

    def scenario():
        runtime = OMPCRuntime(
            ClusterSpec(num_nodes=nodes),
            OMPCConfig(trace=trace, analysis=analysis),
        )
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


@pytest.mark.parametrize("pattern", [
    Pattern.STENCIL_1D,
    Pattern.FFT,
    Pattern.TREE,
    Pattern.ALL_TO_ALL,
    Pattern.SPREAD,
])
def test_taskbench_patterns_bit_identical(pattern):
    _assert_equivalent(_fig5_scenario(pattern, nodes=4, steps=4))


def test_fig5_shape_bit_identical_with_hooks_off_and_on():
    # Hooks off: the no-op fast path (zero observer/analysis calls).
    _assert_equivalent(_fig5_scenario(Pattern.STENCIL_1D, 4, 4))
    # Hooks on: every span/counter emitted, same event stream.
    _assert_equivalent(
        _fig5_scenario(Pattern.STENCIL_1D, 4, 4, trace=True, analysis=True)
    )


def test_overload_day_bit_identical():
    from repro.bench.jobscmd import overload_counts, run_overload

    def scenario():
        manager, report = run_overload("backfill", load=1.0, quick=True)
        counts = overload_counts(manager, report)
        return counts, report.horizon, manager.sim._seq

    _assert_equivalent(scenario)

