"""Observer unit tests plus end-to-end tracing through the OMPC stack."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import OMPCConfig, OMPCRuntime
from repro.obs import NullObserver, Observer
from repro.omp import OmpProgram
from repro.omp.task import depend_inout


class FakeSim:
    def __init__(self):
        self.now = 0.0


class TestObserver:
    def test_begin_end_records_span_at_sim_times(self):
        sim = FakeSim()
        obs = Observer(sim)
        open_span = obs.begin("task", "t", 1, task_id=7)
        sim.now = 2.5
        span = obs.end(open_span, extra=1)
        assert (span.start, span.end, span.node) == (0.0, 2.5, 1)
        assert dict(span.args) == {"task_id": 7, "extra": 1}

    def test_end_of_none_is_noop(self):
        obs = Observer(FakeSim())
        assert obs.end(None) is None
        assert obs.spans == []

    def test_instant_has_zero_duration(self):
        sim = FakeSim()
        sim.now = 3.0
        obs = Observer(sim)
        span = obs.instant("mpi", "recv", 2)
        assert span.start == span.end == 3.0

    def test_flow_ids_are_unique_and_positive(self):
        obs = Observer(FakeSim())
        ids = {obs.new_flow() for _ in range(10)}
        assert len(ids) == 10
        assert all(i > 0 for i in ids)

    def test_find_filters(self):
        obs = Observer(FakeSim())
        obs.span("task", "a", 0, 0.0, 1.0)
        obs.span("mpi", "a", 1, 0.0, 1.0)
        assert len(list(obs.find(cat="task"))) == 1
        assert len(list(obs.find(node=1))) == 1
        assert len(list(obs.find(name="a"))) == 2

    def test_null_observer_is_inert(self):
        obs = NullObserver(FakeSim())
        assert obs.enabled is False
        assert obs.begin("task", "t", 0) is None
        assert obs.end(None) is None
        obs.instant("task", "t", 0)
        obs.gauge_add("g", 1.0)
        assert obs.new_flow() == 0
        assert list(obs.find()) == []
        assert obs.categories() == set()
        assert obs.metrics.gauges == {}
        # Only the counter tier records.
        obs.count("n", 2.0)
        assert obs.counters == {"n": 2.0}


def two_task_program():
    prog = OmpProgram("traced")
    data = np.zeros(64)
    buf = prog.buffer(nbytes=data.nbytes, data=data, name="A")
    prog.target_enter_data(buf)
    prog.target(fn=None, depend=[depend_inout(buf)], cost=0.01, name="foo")
    prog.target(fn=None, depend=[depend_inout(buf)], cost=0.01, name="bar")
    prog.target_exit_data(buf)
    return prog


class TestTracedRun:
    def run_traced(self, **cfg_kwargs):
        cfg = OMPCConfig(trace=True, **cfg_kwargs)
        runtime = OMPCRuntime(ClusterSpec(num_nodes=3), cfg)
        result = runtime.run(two_task_program())
        return runtime, result

    def test_untraced_run_has_no_observer(self):
        runtime = OMPCRuntime(ClusterSpec(num_nodes=3))
        result = runtime.run(two_task_program())
        assert result.obs is None
        obs = runtime.last_cluster.obs
        assert obs.enabled is False
        assert obs.spans == [] and obs.metrics.gauges == {}
        assert result.counters == obs.snapshot()

    def test_traced_run_exposes_observer_with_all_categories(self):
        _runtime, result = self.run_traced()
        assert result.obs is not None
        assert {"task", "sched", "data", "mpi", "ompc"} <= result.obs.categories()

    def test_task_lifecycle_spans_present(self):
        _runtime, result = self.run_traced()
        for phase in ("wait-slot", "fetch", "execute", "commit"):
            assert any(result.obs.find("task", f"foo:{phase}")), phase
        # The worker-side kernel span lives on the assigned node.
        kernels = list(result.obs.find("task", "foo:kernel"))
        assert kernels and all(s.node != 0 for s in kernels)

    def test_sched_phase_spans_match_config(self):
        _runtime, result = self.run_traced()
        (startup,) = result.obs.find("sched", "startup")
        assert startup.duration == pytest.approx(OMPCConfig().startup_time)
        assert any(result.obs.find("sched", "heft"))
        assert any(result.obs.find("sched", "shutdown"))

    def test_message_flows_pair_up(self):
        _runtime, result = self.run_traced()
        sends = {
            s.flow_id for s in result.obs.find("mpi")
            if s.flow_phase == "s"
        }
        recvs = {
            s.flow_id for s in result.obs.find("mpi")
            if s.flow_phase == "f"
        }
        assert sends and sends == recvs

    def test_tracing_does_not_change_simulated_time(self):
        runtime = OMPCRuntime(ClusterSpec(num_nodes=3))
        baseline = runtime.run(two_task_program())
        _runtime, traced = self.run_traced()
        assert traced.makespan == pytest.approx(baseline.makespan)

    def test_gauges_cover_links_cpu_queues_and_head_slots(self):
        _runtime, result = self.run_traced()
        gauges = result.obs.metrics.gauges
        assert "head.inflight" in gauges
        assert any(name.startswith("link.") for name in gauges)
        assert any(name.endswith(".cpu_busy") for name in gauges)
        assert any(name.endswith(".evq") for name in gauges)
        assert gauges["head.inflight"].maximum() >= 1

    def test_transport_counters_copied_into_observer(self):
        _runtime, result = self.run_traced()
        counters = result.obs.counters
        assert "mpi.transport.drops" in counters
        assert any(name.startswith("ompc.events.") for name in counters)
