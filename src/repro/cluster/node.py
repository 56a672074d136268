"""Compute-node model: cores, relative speed, and accelerators."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.core import Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node.

    ``speed`` is a relative compute-rate multiplier: a task whose nominal
    cost is ``t`` seconds takes ``t / speed`` seconds on this node.  The
    paper's cluster is homogeneous (speed 1.0 everywhere), but HEFT is a
    heterogeneous-cluster algorithm, so the model supports per-node
    speeds and the scheduler tests exercise them.

    ``accelerators`` models node-local GPUs for the §7 second-level-
    offloading extension: a nested target region runs
    ``accelerator_speed`` times faster than a *single core* at nominal
    speed (the same baseline task costs are expressed in), after staging
    its buffers over PCIe at ``pcie_bandwidth``/``pcie_latency``.  The
    default of 200 puts one GPU at ~4x the throughput of the node's 48
    cores, a typical ratio for bandwidth-bound HPC kernels.
    """

    cores: int = 48
    threads: int = 96
    speed: float = 1.0
    accelerators: int = 0
    accelerator_speed: float = 200.0
    pcie_bandwidth: float = 16e9
    pcie_latency: float = 10e-6

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.threads < self.cores:
            raise ValueError("threads must be >= cores")
        if self.speed <= 0:
            raise ValueError("speed must be > 0")
        if self.accelerators < 0:
            raise ValueError("accelerators must be >= 0")
        if self.accelerator_speed <= 0:
            raise ValueError("accelerator_speed must be > 0")
        if self.pcie_bandwidth <= 0 or self.pcie_latency < 0:
            raise ValueError("pcie parameters must be positive")


class Node:
    """A live node inside a running simulation."""

    def __init__(self, sim: Simulator, node_id: int, spec: NodeSpec):
        self.sim = sim
        self.node_id = node_id
        self.spec = spec
        #: Hardware execution contexts: one slot per SMT thread.
        self.cpu = Resource(sim, capacity=spec.threads, name=f"node{node_id}.cpu")
        #: Node-local accelerators (None when the node has no GPUs).
        self.gpus = (
            Resource(sim, capacity=spec.accelerators, name=f"node{node_id}.gpu")
            if spec.accelerators > 0
            else None
        )

    def compute_time(self, nominal_seconds: float) -> float:
        """Wall time this node needs for a nominally-costed computation."""
        if nominal_seconds < 0:
            raise ValueError("nominal_seconds must be >= 0")
        return nominal_seconds / self.spec.speed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} cores={self.spec.cores} speed={self.spec.speed}>"
