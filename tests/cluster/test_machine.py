"""Tests for cluster assembly and heterogeneity overrides."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.obs import Observer, to_chrome_trace


class TestClusterSpec:
    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)

    def test_override_out_of_range(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=2, node_overrides=((5, NodeSpec()),))

    def test_spec_for_override(self):
        fast = NodeSpec(cores=1, threads=1, speed=4.0)
        spec = ClusterSpec(num_nodes=3, node_overrides=((1, fast),))
        assert spec.spec_for(1).speed == 4.0
        assert spec.spec_for(0).speed == 1.0


class TestCluster:
    def test_builds_all_nodes(self):
        cluster = Cluster(ClusterSpec(num_nodes=5))
        assert cluster.num_nodes == 5
        assert len(cluster.nodes) == 5
        assert cluster.network.num_nodes == 5

    def test_head_and_workers(self):
        cluster = Cluster(ClusterSpec(num_nodes=4))
        assert cluster.head.node_id == 0
        assert [w.node_id for w in cluster.workers] == [1, 2, 3]

    def test_shared_simulator(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        assert cluster.nodes[0].sim is cluster.sim
        assert cluster.network.sim is cluster.sim
        assert cluster.obs.sim is cluster.sim

    def test_heterogeneous_nodes(self):
        spec = ClusterSpec(
            num_nodes=2,
            node_overrides=((1, NodeSpec(cores=1, threads=1, speed=3.0)),),
        )
        cluster = Cluster(spec)
        assert cluster.node(1).compute_time(3.0) == 1.0
        assert cluster.node(0).compute_time(3.0) == 3.0


class TestTraceRecorder:
    """The cluster's one recorder: its observer."""

    def _traced(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        cluster.install_observer(Observer(cluster.sim))
        return cluster, cluster.obs

    def test_span_recording(self):
        cluster, obs = self._traced()
        sim = cluster.sim

        def proc():
            open_span = obs.begin("sched", "startup", 0)
            yield sim.timeout(2.0)
            obs.end(open_span)

        sim.process(proc())
        sim.run()
        (span,) = obs.find("sched", "startup")
        assert span.duration == 2.0

    def test_counters(self):
        cluster = Cluster(ClusterSpec(num_nodes=1))
        assert not cluster.obs.enabled  # counters need no tracing
        cluster.obs.count("events")
        cluster.obs.count("events", 2)
        assert cluster.obs.counters["events"] == 3
        # A traced observer installed later takes the counts over.
        cluster.install_observer(Observer(cluster.sim))
        cluster.obs.count("events")
        assert cluster.obs.counters == {"events": 4}
        assert cluster.network.obs is cluster.obs

    def test_invalid_span_rejected(self):
        _cluster, obs = self._traced()
        with pytest.raises(ValueError):
            obs.span("x", "y", 0, start=2.0, end=1.0)

    def test_chrome_trace_export(self):
        import json

        _cluster, obs = self._traced()
        obs.span("sched", "startup", 0, 0.0, 0.012)
        obs.span("task", "foo", 1, 0.012, 0.062)
        events = to_chrome_trace(obs)
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"startup", "foo"}
        startup = next(e for e in spans if e["name"] == "startup")
        assert startup["ts"] == 0.0
        assert startup["dur"] == pytest.approx(12_000.0)
        # Distinct nodes map to distinct pids.
        assert len({e["pid"] for e in spans}) == 2
        json.dumps(events)  # must be serializable

    def test_chrome_trace_concurrent_spans_get_distinct_lanes(self):
        _cluster, obs = self._traced()
        obs.span("task", "a", 0, 0.0, 2.0)
        obs.span("task", "b", 0, 1.0, 3.0)
        obs.span("task", "c", 0, 2.5, 4.0)
        spans = {e["name"]: e for e in to_chrome_trace(obs) if e["ph"] == "X"}
        assert spans["a"]["tid"] != spans["b"]["tid"]
        # c starts after a ends, so it reuses a freed lane.
        assert spans["c"]["tid"] == spans["a"]["tid"]
        # All on the same process (one node).
        assert len({e["pid"] for e in spans.values()}) == 1
