"""Tests for the §7 broadcast-event extension wired into the runtime."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import OMPCConfig, OMPCRuntime
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_out

from tests.test_util import ZERO_OVERHEADS as BASE


def one_to_many_program(consumers=6, nbytes=64_000_000):
    """One read-only model consumed by `consumers` independent tasks."""
    prog = OmpProgram()
    model = np.zeros(8)
    model_buf = prog.buffer(nbytes, data=model, name="model")
    prog.target_enter_data(model_buf)
    outputs = []
    for i in range(consumers):
        out = np.zeros(8)
        outputs.append(out)
        buf = prog.buffer(out.nbytes, data=out, name=f"o{i}")
        prog.target(
            fn=lambda m, o: np.copyto(o, m + 1.0),
            depend=[depend_in(model_buf), depend_out(buf)],
            cost=0.05,
            name=f"consumer{i}",
        )
    return prog, outputs


class TestBroadcastIntegration:
    def test_broadcast_replaces_exchanges(self):
        prog, _ = one_to_many_program()
        cfg = OMPCConfig(broadcast_events=True, **BASE)
        res = OMPCRuntime(ClusterSpec(num_nodes=7), cfg).run(prog)
        assert res.counters.get("ompc.events.broadcast", 0) >= 5
        # No per-consumer head-orchestrated exchanges remain.
        assert res.counters.get("ompc.events.exchange_dst", 0) == 0

    def test_results_identical_with_and_without(self):
        prog1, out1 = one_to_many_program(nbytes=1000)
        OMPCRuntime(
            ClusterSpec(num_nodes=7), OMPCConfig(broadcast_events=False, **BASE)
        ).run(prog1)
        prog2, out2 = one_to_many_program(nbytes=1000)
        OMPCRuntime(
            ClusterSpec(num_nodes=7), OMPCConfig(broadcast_events=True, **BASE)
        ).run(prog2)
        for a, b in zip(out1, out2):
            np.testing.assert_allclose(a, b)
            np.testing.assert_allclose(a, np.ones(8))

    def test_broadcast_faster_for_large_fanout(self):
        prog1, _ = one_to_many_program(consumers=12)
        off = OMPCRuntime(
            ClusterSpec(num_nodes=13), OMPCConfig(broadcast_events=False, **BASE)
        ).run(prog1)
        prog2, _ = one_to_many_program(consumers=12)
        on = OMPCRuntime(
            ClusterSpec(num_nodes=13), OMPCConfig(broadcast_events=True, **BASE)
        ).run(prog2)
        assert on.makespan < off.makespan

    def test_written_buffers_never_broadcast(self):
        # A buffer that any task writes must go through normal coherency.
        prog = OmpProgram()
        shared = prog.buffer(1_000_000, name="shared")
        prog.target_enter_data(shared)
        from repro.omp.task import depend_inout

        prog.target(depend=[depend_inout(shared)], cost=0.01, name="writer")
        for i in range(3):
            prog.target(depend=[depend_in(shared)], cost=0.01, name=f"r{i}")
        cfg = OMPCConfig(broadcast_events=True, **BASE)
        res = OMPCRuntime(ClusterSpec(num_nodes=5), cfg).run(prog)
        assert res.counters.get("ompc.events.broadcast", 0) == 0

    def test_disabled_by_default(self):
        prog, _ = one_to_many_program(nbytes=1000)
        res = OMPCRuntime(ClusterSpec(num_nodes=7)).run(prog)
        assert res.counters.get("ompc.events.broadcast", 0) == 0
