"""Unit tests for the observability metrics primitives."""

import pytest

from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.observer import NullObserver


class TestCounter:
    """Counters are plain floats on the observer, always on."""

    def test_starts_at_zero_and_accumulates(self):
        obs = NullObserver(sim=None)
        assert obs.counters["bytes"] == 0.0
        obs.count("bytes")
        obs.count("bytes", 41.0)
        assert obs.counters["bytes"] == 42.0
        assert type(obs.counters["bytes"]) is float


class TestGauge:
    def test_value_before_any_sample_is_zero(self):
        g = Gauge("q")
        assert g.value == 0.0
        assert g.maximum() == 0.0

    def test_set_and_add(self):
        g = Gauge("q")
        g.set(1.0, 3.0)
        g.add(2.0, -1.0)
        assert g.value == 2.0
        assert g.maximum() == 3.0
        assert g.samples == [(1.0, 3.0), (2.0, 2.0)]

    def test_time_average_is_exact_step_integral(self):
        g = Gauge("q")
        g.set(1.0, 2.0)  # 0 on [0,1), 2 on [1,3), 4 on [3,4)
        g.set(3.0, 4.0)
        assert g.time_average(0.0, 4.0) == pytest.approx(
            (0 * 1 + 2 * 2 + 4 * 1) / 4.0
        )

    def test_time_average_clips_to_window(self):
        g = Gauge("q")
        g.set(0.0, 10.0)
        g.set(2.0, 0.0)
        # Window [1, 3]: value 10 on [1,2), 0 on [2,3).
        assert g.time_average(1.0, 3.0) == pytest.approx(5.0)

    def test_time_average_window_before_first_sample(self):
        g = Gauge("q")
        g.set(5.0, 7.0)
        assert g.time_average(0.0, 5.0) == 0.0

    def test_empty_window_is_zero(self):
        g = Gauge("q")
        g.set(0.0, 1.0)
        assert g.time_average(2.0, 2.0) == 0.0
        assert g.busy_fraction(2.0, 2.0) == 0.0

    def test_busy_fraction_counts_above_threshold_time(self):
        g = Gauge("link")
        g.add(1.0, 1.0)
        g.add(2.0, -1.0)  # busy exactly on [1, 2)
        assert g.busy_fraction(0.0, 4.0) == pytest.approx(0.25)

    def test_busy_fraction_threshold(self):
        g = Gauge("depth")
        g.set(0.0, 1.0)
        g.set(1.0, 3.0)
        g.set(2.0, 0.0)
        assert g.busy_fraction(0.0, 4.0, threshold=1.0) == pytest.approx(0.25)

    def test_coincident_samples_last_wins(self):
        g = Gauge("q")
        g.set(1.0, 5.0)
        g.set(1.0, 2.0)
        assert g.value == 2.0
        assert g.time_average(0.0, 2.0) == pytest.approx(1.0)


class TestMetricsRegistry:
    def test_counter_and_gauge_are_get_or_create(self):
        obs = NullObserver(sim=None)
        obs.count("a")
        obs.count("a")
        assert obs.counters == {"a": 2.0}
        reg = MetricsRegistry()
        assert reg.gauge("g", node=2) is reg.gauge("g")
        assert reg.gauge("g").node == 2
