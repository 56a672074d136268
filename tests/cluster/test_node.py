"""Tests for the compute-node model."""

import pytest

from repro.cluster import Node, NodeSpec
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestNodeSpec:
    def test_defaults_match_paper_cluster(self):
        spec = NodeSpec()
        # 2x Cascade Lake 6252: 24 cores / 48 threads each.
        assert spec.cores == 48
        assert spec.threads == 96
        assert spec.speed == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"cores": 4, "threads": 2},
            {"speed": 0.0},
            {"speed": -1.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NodeSpec(**kwargs)


class TestNode:
    def test_compute_time_scales_with_speed(self, sim):
        fast = Node(sim, 0, NodeSpec(cores=1, threads=1, speed=2.0))
        slow = Node(sim, 1, NodeSpec(cores=1, threads=1, speed=0.5))
        assert fast.compute_time(10.0) == 5.0
        assert slow.compute_time(10.0) == 20.0

    def test_negative_compute_rejected(self, sim):
        node = Node(sim, 0, NodeSpec())
        with pytest.raises(ValueError):
            node.compute_time(-1.0)
