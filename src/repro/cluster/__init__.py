"""Simulated HPC cluster: nodes, network, and machine assembly.

This models the evaluation platform of the paper (§6.1): up to 64 nodes,
each with 2× Intel Cascade Lake 6252 (48 cores / 96 threads per node in
total; the paper reports 24 cores/48 threads per CPU), 384 GB RAM, and a
100 Gb/s InfiniBand interconnect driven through up to 64 MPICH Virtual
Communication Interfaces (VCIs).
"""

from repro.cluster.machine import Cluster, ClusterSpec
from repro.cluster.network import Network, NetworkSpec, Nic
from repro.cluster.node import Node, NodeSpec
from repro.cluster.partition import (
    ClusterView,
    NodePool,
    PartitionError,
    shard_reserved,
)

__all__ = [
    "Cluster",
    "ClusterSpec",
    "ClusterView",
    "Network",
    "NetworkSpec",
    "Nic",
    "Node",
    "NodePool",
    "NodeSpec",
    "PartitionError",
    "shard_reserved",
]
