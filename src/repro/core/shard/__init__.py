"""Sharded control plane: multi-head task-graph ownership.

See :mod:`repro.core.shard.plane` for the architecture overview.
"""

from repro.core.shard.directory import (
    BlockPolicy,
    ConsistentHashPolicy,
    PartitionPolicy,
    ShardDirectory,
    make_partition_policy,
    stable_hash,
)
from repro.core.shard.messages import LEASE_TAG, NOTIFY_TAG
from repro.core.shard.plane import (
    ShardedRuntime,
    ShardPlaneError,
)
from repro.core.shard.report import ShardRunResult, ShardStats

__all__ = [
    "BlockPolicy",
    "ConsistentHashPolicy",
    "LEASE_TAG",
    "NOTIFY_TAG",
    "PartitionPolicy",
    "ShardDirectory",
    "ShardPlaneError",
    "ShardRunResult",
    "ShardStats",
    "ShardedRuntime",
    "make_partition_policy",
    "stable_hash",
]
