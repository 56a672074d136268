"""Cluster assembly: one simulator + nodes + network + observer.

A :class:`Cluster` is the complete simulated machine handed to a
runtime.  By convention (matching the paper's Fig. 1) node 0 is the
*head node* and nodes 1..N are *worker nodes* when the OMPC runtime is
in charge; the comparator runtimes treat all nodes as peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.network import Network, NetworkSpec
from repro.cluster.node import Node, NodeSpec
from repro.analysis.hooks import NULL_ANALYSIS
from repro.obs.observer import NullObserver
from repro.sim.core import Simulator


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a whole cluster.

    ``num_nodes`` counts every node, head included.  ``node`` applies to
    all nodes unless ``node_overrides`` maps specific node ids to their
    own spec (used by heterogeneity tests for HEFT).
    """

    num_nodes: int = 2
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    node_overrides: tuple = ()  # tuple of (node_id, NodeSpec)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        for node_id, _spec in self.node_overrides:
            if not 0 <= node_id < self.num_nodes:
                raise ValueError(f"override for nonexistent node {node_id}")

    def spec_for(self, node_id: int) -> NodeSpec:
        for nid, spec in self.node_overrides:
            if nid == node_id:
                return spec
        return self.node


class Cluster:
    """A live simulated cluster."""

    def __init__(self, spec: ClusterSpec | None = None, sim: Simulator | None = None):
        self.spec = spec or ClusterSpec()
        self.sim = sim or Simulator()
        self.nodes = [
            Node(self.sim, i, self.spec.spec_for(i))
            for i in range(self.spec.num_nodes)
        ]
        self.network = Network(self.sim, self.spec.num_nodes, self.spec.network)
        #: The run's one recorder (see :mod:`repro.obs`): counters only
        #: unless a traced runtime installs a full observer via
        #: :meth:`install_observer`.
        self.obs = NullObserver(self.sim)
        self.network.obs = self.obs
        #: Correctness-analysis sink (see :mod:`repro.analysis`): the
        #: no-op analysis unless a runtime installs a recording one via
        #: :meth:`install_analysis`.
        self.analysis = NULL_ANALYSIS
        #: Transient-fault state installed by ``FaultPlan.install`` (see
        #: :mod:`repro.core.faultmodel`); ``None`` means a clean machine.
        self.faults = None

    def install_observer(self, obs) -> None:
        """Attach an :class:`~repro.obs.observer.Observer` to every layer.

        The new observer takes over the counters recorded so far.  Must
        run before MPI worlds or runtimes are built on this cluster —
        they capture ``cluster.obs`` at construction time.
        """
        obs.counters = self.obs.counters
        self.obs = self.network.obs = obs

    def install_analysis(self, analysis) -> None:
        """Attach a :class:`~repro.analysis.hooks.Analysis`.

        Like :meth:`install_observer`, must run before MPI worlds or
        event systems are built — they capture ``cluster.analysis`` at
        construction time.
        """
        self.analysis = analysis

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    @property
    def head(self) -> Node:
        """The head node (node 0) in head/worker deployments."""
        return self.nodes[0]

    @property
    def workers(self) -> list[Node]:
        """All nodes except the head."""
        return self.nodes[1:]

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cluster nodes={self.num_nodes}>"
