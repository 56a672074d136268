"""Shared utilities: unit helpers and deterministic RNG plumbing."""

from repro.util.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    Gbps,
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    fmt_bytes,
    fmt_time,
)
from repro.util.rng import derive_rng

__all__ = [
    "GB",
    "GIB",
    "Gbps",
    "KB",
    "KIB",
    "MB",
    "MIB",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "derive_rng",
    "fmt_bytes",
    "fmt_time",
]
