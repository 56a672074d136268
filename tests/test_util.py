"""Tests for shared utilities: units and RNG derivation."""

import numpy as np
import pytest

from repro.core.config import OMPCConfig
from repro.util import (
    GB,
    GIB,
    Gbps,
    KB,
    MB,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    derive_rng,
    fmt_bytes,
    fmt_time,
)

#: The seven calibrated Fig. 7a timing overheads, all zero: the profile
#: of tests that check data movement and compute, not runtime overhead.
ZERO_OVERHEADS = dict(
    startup_time=0.0, shutdown_time=0.0, first_event_interval=0.0,
    event_origin_overhead=0.0, event_handler_overhead=0.0,
    task_creation_overhead=0.0, schedule_unit_cost=0.0,
)
#: An :class:`OMPCConfig` with :data:`ZERO_OVERHEADS` and defaults otherwise.
FAST = OMPCConfig(**ZERO_OVERHEADS)


class TestUnits:
    def test_size_constants(self):
        assert KB == 1_000 and MB == 1_000_000 and GB == 1_000_000_000
        assert GIB == 2**30

    def test_gbps(self):
        assert Gbps(100.0) == pytest.approx(12.5e9)
        assert Gbps(8.0) == pytest.approx(1e9)

    def test_time_constants(self):
        assert NANOSECOND == 1e-9
        assert MICROSECOND == 1e-6
        assert MILLISECOND == 1e-3

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0B"),
            (512, "512B"),
            (2048, "2.0KiB"),
            (5 * 2**20, "5.0MiB"),
            (3 * 2**30, "3.0GiB"),
        ],
    )
    def test_fmt_bytes(self, value, expected):
        assert fmt_bytes(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0s"),
            (5e-9, "5.0ns"),
            (2.5e-6, "2.5us"),
            (0.0047, "4.70ms"),
            (1.5, "1.500s"),
            (180.0, "3.00min"),
        ],
    )
    def test_fmt_time(self, value, expected):
        assert fmt_time(value) == expected


class TestDeriveRng:
    def test_same_inputs_same_stream(self):
        a = derive_rng(7, "component").random(5)
        b = derive_rng(7, "component").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = derive_rng(7, "a").random(5)
        b = derive_rng(7, "b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_different_streams(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(2, "x").random(5)
        assert not np.array_equal(a, b)

    def test_multi_key_derivation(self):
        a = derive_rng(1, "x", "y").random(3)
        b = derive_rng(1, "xy").random(3)
        assert not np.array_equal(a, b)  # key boundaries matter
