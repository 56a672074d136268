"""Absolute pins of what the failure detector decides, and when.

The event-digest pins (``test_event_digest_pins.py``) hash every
processed event, so any change to how the detector is *driven* — more or
fewer timer events, callbacks instead of processes — re-pins them.
This table pins what must survive such a change: every detection
``(dead, by, at)``, the suspect → confirm outcomes, the raw missed
windows, each head failover's detection and election times, the gossip
round count, and the makespan.  Each scenario exercises one path of the
detector in one of its two configurations (the §3.1 heartbeat ring or
SWIM gossip, chosen by ``OMPCConfig.gossip``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core import (
    FaultPlan,
    FaultTolerantRuntime,
    LinkLoss,
    NodeFailure,
    NodeHang,
)
from repro.core.config import OMPCConfig
from repro.core.shard import ShardedRuntime

from tests.core.test_faults import FAST, shots_program
from tests.property.test_event_digest_pins import _taskbench


def _ft(nodes: int, cfg: OMPCConfig, **run_kwargs):
    def scenario():
        runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=nodes), cfg)
        res = runtime.run(shots_program(num_shots=6, cost=0.02)[0],
                          **run_kwargs)
        return {
            "makespan": res.makespan,
            "detections": res.detections,
            "suspicions_cleared": res.suspicions_cleared,
            "false_positives": res.false_positive_detections,
            "missed_windows": res.missed_heartbeat_windows,
            "failovers": [(f.detection_time, f.election_time)
                          for f in res.failovers],
            "rounds": res.counters.get("gossip.rounds", 0),
        }

    return scenario


def _sharded_manager_kill():
    def scenario():
        cfg = OMPCConfig(head_shards=4, gossip=True, head_standbys=1)
        runtime = ShardedRuntime(ClusterSpec(num_nodes=16), cfg,
                                 inject_failures=((0.08, 2),))
        res = runtime.run(_taskbench(16, 4))
        return {
            "makespan": res.makespan,
            "detections": res.detections,
            "failovers": res.counters["shard.failovers"],
            "rounds": res.gossip_rounds,
        }

    return scenario


SCENARIOS = {
    "ring-worker-kill": _ft(
        5, FAST, failures=[NodeFailure(time=0.01, node=2)]),
    "ring-head-kill": _ft(
        6, dataclasses.replace(FAST, head_standbys=2),
        failures=[NodeFailure(time=0.015, node=0)]),
    "ring-lossy-cleared": _ft(
        5, FAST,
        fault_plan=FaultPlan(seed=5, losses=[LinkLoss(probability=0.4)])),
    "ring-hung-alive": _ft(
        5, FAST,
        fault_plan=FaultPlan(seed=1, hangs=[
            NodeHang(node=3, start=0.02, duration=0.0065)])),
    "ring-hung-false-positive": _ft(
        5, FAST,
        fault_plan=FaultPlan(seed=1, hangs=[
            NodeHang(node=3, start=0.02, duration=0.0072)])),
    "gossip-worker-kill": _ft(
        5, dataclasses.replace(FAST, gossip=True),
        failures=[NodeFailure(time=0.01, node=2)]),
    "gossip-shard-manager-kill": _sharded_manager_kill(),
}

PINS = {
    "ring-worker-kill": {
        "makespan": 0.030045229760000045,
        "detections": [(2, 3, 0.017004002560000002)],
        "suspicions_cleared": 0,
        "false_positives": 0,
        "missed_windows": 3,
        "failovers": [],
        "rounds": 0,
    },
    "ring-head-kill": {
        "makespan": 0.023050339840000048,
        "detections": [(0, 1, 0.023006003840000008)],
        "suspicions_cleared": 0,
        "false_positives": 0,
        "missed_windows": 2,
        "failovers": [(0.008006003840000008, 4.010240000004717e-06)],
        "rounds": 0,
    },
    "ring-lossy-cleared": {
        "makespan": 0.05299535334400009,
        "detections": [],
        "suspicions_cleared": 2,
        "false_positives": 0,
        "missed_windows": 16,
        "failovers": [],
        "rounds": 0,
    },
    "ring-hung-alive": {
        "makespan": 0.026559396160000043,
        "detections": [],
        "suspicions_cleared": 2,
        "false_positives": 0,
        "missed_windows": 4,
        "failovers": [],
        "rounds": 0,
    },
    "ring-hung-false-positive": {
        "makespan": 0.047269432000000035,
        "detections": [(3, 4, 0.02700400256000001)],
        "suspicions_cleared": 3,
        "false_positives": 1,
        "missed_windows": 9,
        "failovers": [],
        "rounds": 0,
    },
    "gossip-worker-kill": {
        "makespan": 0.030045229760000045,
        "detections": [(2, 0, 0.014001000800000003)],
        "suspicions_cleared": 0,
        "false_positives": 0,
        "missed_windows": 4,
        "failovers": [],
        "rounds": 30,
    },
    "gossip-shard-manager-kill": {
        "makespan": 0.4750482282762884,
        "detections": [(2, 0, 0.09600200512000007)],
        "failovers": 1,
        "rounds": 455,
    },
}


def test_pins_cover_every_scenario():
    assert set(PINS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_detections_pinned(name):
    assert SCENARIOS[name]() == PINS[name]
