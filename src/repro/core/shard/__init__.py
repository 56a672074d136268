"""Sharded control plane: multi-head task-graph ownership.

See :mod:`repro.core.shard.plane` for the architecture overview.
"""

from repro.core.shard.directory import (
    ConsistentHashPolicy,
    ShardDirectory,
    stable_hash,
)
from repro.core.shard.messages import LEASE_TAG, NOTIFY_TAG
from repro.core.shard.plane import (
    ShardedRuntime,
    ShardPlaneError,
)
from repro.core.shard.report import ShardRunResult, ShardStats

__all__ = [
    "ConsistentHashPolicy",
    "LEASE_TAG",
    "NOTIFY_TAG",
    "ShardDirectory",
    "ShardPlaneError",
    "ShardRunResult",
    "ShardStats",
    "ShardedRuntime",
    "stable_hash",
]
