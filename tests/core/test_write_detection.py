"""Tests for the §7 page-protection write-detection extension."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import OMPCConfig, OMPCRuntime
from repro.core.scheduler import RoundRobinScheduler
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out

from tests.test_util import ZERO_OVERHEADS as BASE
DETECT = OMPCConfig(write_detection="page_protect", **BASE)
DECLARE = OMPCConfig(write_detection="dependencies", **BASE)


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            OMPCConfig(write_detection="magic")
        with pytest.raises(ValueError):
            OMPCConfig(page_fault_overhead=-1.0)


class TestDetection:
    def test_results_match_declared_mode(self):
        def build():
            prog = OmpProgram()
            data = np.zeros(1000)
            A = prog.buffer(data.nbytes, data=data, name="A")
            prog.target_enter_data(A)
            prog.target(fn=lambda a: np.add(a, 1, out=a),
                        depend=[depend_inout(A)], cost=0.01)
            prog.target(fn=lambda a: np.multiply(a, 2, out=a),
                        depend=[depend_inout(A)], cost=0.01)
            prog.target_exit_data(A)
            return prog, data

        p1, d1 = build()
        OMPCRuntime(ClusterSpec(num_nodes=3), DECLARE).run(p1)
        p2, d2 = build()
        OMPCRuntime(ClusterSpec(num_nodes=3), DETECT).run(p2)
        np.testing.assert_allclose(d1, d2)
        np.testing.assert_allclose(d2, np.full(1000, 2.0))

    def test_artificial_dependence_not_invalidated(self):
        """§7's motivating case: a dummy inout used purely to order
        tasks.  With declared semantics the runtime would needlessly
        invalidate replicas; page-protect sees no actual write and keeps
        the buffer replicated."""
        prog = OmpProgram()
        token = np.zeros(4)
        tok = prog.buffer(token.nbytes, data=token, name="token")
        prog.target_enter_data(tok)
        # Three "ordered" tasks that never touch the token's contents —
        # the inout is only there to serialize them.
        for i in range(3):
            prog.target(fn=lambda t: None, depend=[depend_inout(tok)],
                        cost=0.01, name=f"step{i}")
        rt = OMPCRuntime(
            ClusterSpec(num_nodes=4), DETECT, scheduler=RoundRobinScheduler()
        )
        res = rt.run(prog)
        # No invalidations: no DELETE events for the token replicas.
        assert res.counters.get("ompc.events.delete", 0) == 0
        # Under declared semantics the same program invalidates twice.
        prog2 = OmpProgram()
        tok2 = prog2.buffer(token.nbytes, data=np.zeros(4), name="token")
        prog2.target_enter_data(tok2)
        for i in range(3):
            prog2.target(fn=lambda t: None, depend=[depend_inout(tok2)],
                         cost=0.01, name=f"step{i}")
        res2 = OMPCRuntime(
            ClusterSpec(num_nodes=4), DECLARE, scheduler=RoundRobinScheduler()
        ).run(prog2)
        assert res2.counters.get("ompc.events.delete", 0) >= 1

    def test_page_fault_overhead_charged(self):
        prog = OmpProgram()
        data = np.zeros(400_000)  # ~3.2 MB -> ~780 pages
        A = prog.buffer(data.nbytes, data=data, name="A")
        prog.target_enter_data(A)
        prog.target(fn=lambda a: np.add(a, 1, out=a),
                    depend=[depend_inout(A)], cost=0.001)
        cfg = OMPCConfig(
            write_detection="page_protect", page_fault_overhead=1e-5, **BASE
        )
        rt = OMPCRuntime(ClusterSpec(num_nodes=2), cfg)
        res = rt.run(prog)
        faults = res.counters.get("ompc.page_faults", 0)
        assert faults == int(data.nbytes // 4096)
        # ~780 pages x 10us = ~7.8 ms visible in the makespan.
        assert res.makespan > faults * 1e-5

    def test_timing_only_tasks_fall_back_to_declared(self):
        prog = OmpProgram()
        A = prog.buffer(1_000_000, name="A")  # no real payload
        prog.target_enter_data(A)
        prog.target(depend=[depend_inout(A)], cost=0.01, name="w1")
        prog.target(depend=[depend_inout(A)], cost=0.01, name="w2")
        res = OMPCRuntime(
            ClusterSpec(num_nodes=3), DETECT, scheduler=RoundRobinScheduler()
        ).run(prog)
        # Declared-intent fallback: w1's copy is invalidated when w2
        # (on another node) writes.
        assert res.counters.get("ompc.events.exchange_dst", 0) == 1

    def test_undeclared_write_detected_and_kept_coherent(self):
        """A task that writes MORE than it declared: detection catches
        it and later readers see the new value from the right node."""
        prog = OmpProgram()
        data = np.zeros(8)
        A = prog.buffer(data.nbytes, data=data, name="A")
        token = prog.buffer(8, data=np.zeros(1), name="token")
        prog.target_enter_data(A)
        # Orders through a dummy token (§7's "artificial data
        # dependencies to order the execution of tasks") and declares
        # only IN on A — yet actually writes A.
        prog.target(
            fn=lambda a, t: (np.add(a, 5.0, out=a), None)[1],
            depend=[depend_in(A), depend_inout(token)],
            cost=0.01, name="sneaky",
        )
        out = np.zeros(8)
        C = prog.buffer(out.nbytes, data=out, name="C")
        prog.target(
            fn=lambda a, t, c: np.copyto(c, a),
            depend=[depend_in(A), depend_inout(token), depend_out(C)],
            cost=0.01, name="reader",
        )
        prog.target_exit_data(C)
        OMPCRuntime(
            ClusterSpec(num_nodes=4), DETECT, scheduler=RoundRobinScheduler()
        ).run(prog)
        np.testing.assert_allclose(out, np.full(8, 5.0))
