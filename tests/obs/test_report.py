"""Unit tests for the utilization summary and its text rendering."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.obs import format_utilization, utilization_summary
from repro.obs.observer import Observer


class FakeSim:
    def __init__(self):
        self.now = 0.0


def make(num_nodes=3):
    cluster = Cluster(ClusterSpec(num_nodes=num_nodes))
    sim = FakeSim()
    return cluster, sim, Observer(sim)


class TestUtilizationSummary:
    def test_link_usage_from_gauge_and_byte_counter(self):
        cluster, sim, obs = make()
        obs.gauge_add("link.1->2", 1, node=1)  # busy on [0, 4)
        sim.now = 4.0
        obs.gauge_add("link.1->2", -1, node=1)
        obs.count("link.1->2.bytes", 1000.0)
        report = utilization_summary(obs, cluster, makespan=8.0)
        (link,) = report.links
        assert (link.src, link.dst) == (1, 2)
        assert link.nbytes == 1000.0
        assert link.busy_fraction == pytest.approx(0.5)
        bandwidth = cluster.network.spec.bandwidth
        assert link.occupancy == pytest.approx(1000.0 / (8.0 * bandwidth))
        # Byte counters fold into links, not the counter listing.
        assert "link.1->2.bytes" not in report.counters

    def test_node_core_occupancy(self):
        cluster, sim, obs = make()
        cores = cluster.node(1).spec.cores
        obs.gauge_add("node1.cpu_busy", cores, node=1)  # all busy [0, 5)
        sim.now = 5.0
        obs.gauge_add("node1.cpu_busy", -cores, node=1)
        report = utilization_summary(obs, cluster, makespan=10.0)
        (node,) = report.nodes
        assert node.node == 1
        assert node.avg_busy == pytest.approx(cores / 2)
        assert node.occupancy == pytest.approx(0.5)

    def test_head_inflight_and_queue_depths(self):
        cluster, sim, obs = make()
        obs.gauge_add("head.inflight", 3)
        obs.gauge_add("node2.evq", 2, node=2)
        sim.now = 10.0
        report = utilization_summary(obs, cluster, makespan=10.0, head_threads=48)
        assert report.head_inflight_max == 3
        assert report.head_threads == 48
        assert report.queues == [(2, pytest.approx(2.0), 2.0)]

    def test_zero_makespan_falls_back_to_span_extent(self):
        cluster, _sim, obs = make()
        obs.span("task", "t", 0, 0.0, 4.0)
        obs.gauge_add("head.inflight", 1)
        report = utilization_summary(obs, cluster, makespan=0.0)
        assert report.head_inflight_avg == pytest.approx(1.0)


class TestFormatUtilization:
    def test_renders_all_sections(self):
        cluster, sim, obs = make()
        obs.gauge_add("link.1->2", 1, node=1)
        obs.count("link.1->2.bytes", 2048.0)
        obs.gauge_add("node1.cpu_busy", 4, node=1)
        obs.gauge_add("node1.evq", 1, node=1)
        obs.gauge_add("head.inflight", 2)
        obs.count("ompc.events.execute", 5)
        sim.now = 1.0
        report = utilization_summary(obs, cluster, makespan=1.0, head_threads=48)
        text = format_utilization(report)
        assert text.startswith("== utilization (makespan 1000.000 ms) ==")
        assert "1->2" in text and "2.0 KiB" in text
        assert "node1" in text
        assert "head in-flight slots: avg 2.00, max 2 of 48" in text
        assert "event queue node1" in text
        assert "ompc.events.execute = 5" in text
        assert "heartbeat health" not in text  # no hb.* counters folded

    def test_heartbeat_health_line(self):
        cluster, sim, obs = make()
        obs.gauge_add("head.inflight", 1)
        obs.count("hb.missed_windows", 7)
        obs.count("hb.suspect_reports", 3)
        obs.count("hb.suspicions_cleared", 2)
        obs.count("hb.false_positives", 1)
        obs.count("hb.detections", 1)
        sim.now = 1.0
        report = utilization_summary(obs, cluster, makespan=1.0)
        text = format_utilization(report)
        assert (
            "heartbeat health: 7 missed windows, 3 suspicions "
            "(2 cleared, 1 false positives), 1 confirmed detections"
        ) in text

    def test_heartbeat_health_line_for_gossip_runs(self):
        # Both detector configurations count under hb.*, so a gossip
        # run reports its health on the same line as a ring run.
        from repro.core import FaultTolerantRuntime, NodeFailure, OMPCConfig

        from tests.core.test_faults import shots_program

        runtime = FaultTolerantRuntime(
            ClusterSpec(num_nodes=4), OMPCConfig(gossip=True, trace=True)
        )
        res = runtime.run(shots_program(num_shots=6, cost=0.2)[0],
                          failures=[NodeFailure(time=0.1, node=2)])
        report = utilization_summary(res.obs, runtime.last_cluster,
                                     makespan=res.makespan)
        text = format_utilization(report)
        missed = res.counters["hb.missed_windows"]
        assert missed == res.missed_heartbeat_windows > 0
        assert (
            f"heartbeat health: {missed:.0f} missed windows, "
        ) in text
        assert "1 confirmed detections" in text
