"""Metrics registry: piecewise-constant time-series gauges.

The traced tier's metrics; counters live on the observer itself (see
:mod:`repro.obs.observer`).  All values are recorded against
*simulated* time.  A :class:`Gauge` is sampled at its change points
(event-driven sampling — between samples the value is constant, so
the step function is exact, not an approximation).  The registry
powers the utilization report (:mod:`repro.obs.report`): per-link busy
fractions, per-node core occupancy, head-node in-flight slot usage,
and event-queue depths are all time-averages or threshold fractions
of gauges collected here.
"""

from __future__ import annotations

from collections.abc import Iterator


class Gauge:
    """An exact step function of simulated time.

    ``samples`` holds ``(t, value)`` change points in non-decreasing
    ``t`` order (simulated time never goes backwards).  Before the first
    sample the value is 0.  Several samples at the same instant are
    allowed; the last one wins (the earlier ones span zero time).

    ``node`` attributes the gauge to a cluster node so exporters can
    place its counter track under the right process lane.
    """

    __slots__ = ("name", "node", "samples")

    def __init__(self, name: str, node: int = 0):
        self.name = name
        self.node = node
        self.samples: list[tuple[float, float]] = []

    @property
    def value(self) -> float:
        """The current (most recently set) value."""
        return self.samples[-1][1] if self.samples else 0.0

    def set(self, t: float, value: float) -> None:
        """Record that the gauge changed to ``value`` at time ``t``."""
        self.samples.append((t, float(value)))

    def add(self, t: float, delta: float) -> None:
        """Record a relative change at time ``t``."""
        self.set(t, self.value + delta)

    def maximum(self) -> float:
        """Largest value ever recorded (0 for an empty gauge)."""
        return max((v for _t, v in self.samples), default=0.0)

    def _segments(self, t0: float, t1: float) -> Iterator[tuple[float, float, float]]:
        """Constant-value segments ``(start, end, value)`` clipped to
        ``[t0, t1]``, including the implicit leading 0 segment."""
        if t1 <= t0:
            return
        value = 0.0
        cursor = t0
        for t, v in self.samples:
            if t >= t1:
                break
            if t > cursor:
                yield cursor, t, value
                cursor = t
            value = v
        if cursor < t1:
            yield cursor, t1, value

    def time_average(self, t0: float, t1: float) -> float:
        """Time-weighted mean value over ``[t0, t1]``."""
        if t1 <= t0:
            return 0.0
        total = sum((end - start) * value for start, end, value in self._segments(t0, t1))
        return total / (t1 - t0)

    def busy_fraction(self, t0: float, t1: float, threshold: float = 0.0) -> float:
        """Fraction of ``[t0, t1]`` during which the value exceeds
        ``threshold`` (e.g. "a flow was active on this link")."""
        if t1 <= t0:
            return 0.0
        busy = sum(
            end - start
            for start, end, value in self._segments(t0, t1)
            if value > threshold
        )
        return busy / (t1 - t0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name} value={self.value} samples={len(self.samples)}>"


class MetricsRegistry:
    """Name-indexed gauges, created on first use."""

    def __init__(self):
        self.gauges: dict[str, Gauge] = {}

    def gauge(self, name: str, node: int = 0) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name, node)
        return gauge
