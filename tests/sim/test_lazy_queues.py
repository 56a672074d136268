"""Wait queues allocated on first wait, and the resident footprint.

``Resource`` and bounded ``Store`` allocate their wait queues only when
a request or put first has to wait, so an uncontended run never pays
for them.  These tests hold the FIFO contract across that first
allocation, bound the resident bytes a simulated node costs, and bound
what a finished run still holds through its runtime.
"""

import gc
import tracemalloc

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core import (FaultPlan, FaultTolerantRuntime, LinkLoss,
                        NodeFailure, OMPCConfig)
from repro.core.events import NUM_COMMS, EventSystem
from repro.mpi import MpiWorld
from repro.sim import Resource, Simulator, Store

from tests.obs.test_counter_tier import KB, _stencil

#: tracemalloc bytes per node of a cluster with a started event system,
#: measured on Python 3.11.  Eager wait queues cost about 3 kB more.
MEASURED_BYTES_PER_NODE = 3_941
#: The same once the first instant has run: an idle node holds its
#: device-memory table, its slot pools and its gate's posted receive,
#: and nothing the start of the simulation allocates.
MEASURED_IDLE_BYTES_PER_NODE = 3_941
#: 30 % headroom, since CI runs Python 3.10–3.12.
BUDGET_BYTES_PER_NODE = 1.3 * MEASURED_BYTES_PER_NODE
IDLE_BUDGET_BYTES_PER_NODE = 1.3 * MEASURED_IDLE_BYTES_PER_NODE
#: tracemalloc bytes per node that a finished run adds to a started
#: event system, when every node took an event on every event-system
#: communicator (as on the 1,024-node benchmark), measured on Python
#: 3.11: sequence numbers and flow names per node pair, no match store.
#: Keeping one ``Rank`` per (communicator, rank) and one queue name per
#: (rank, communicator) raised it to 2,601.
MEASURED_TRAFFIC_BYTES_PER_NODE = 1_869
TRAFFIC_BUDGET_BYTES_PER_NODE = 1.3 * MEASURED_TRAFFIC_BYTES_PER_NODE
#: tracemalloc bytes a finished head-kill run (the quick ``resilient``
#: shape) still holds through its runtime, measured on Python 3.11:
#: the cluster, its network and fault plan, no process and no head
#: state.  Leaving the run's services suspended held 755 kB.
MEASURED_FINISHED_RUN_BYTES = 90_196
FINISHED_RUN_BUDGET_BYTES = 1.3 * MEASURED_FINISHED_RUN_BYTES


@pytest.fixture
def sim():
    return Simulator()


class TestResourceQueue:
    def test_queue_length_is_zero_before_the_first_wait(self, sim):
        res = Resource(sim, capacity=1)
        assert res.queue_length == 0
        res.request()
        assert res.queue_length == 0
        res.request()
        assert res.queue_length == 1

    def test_cancel_on_a_never_contended_resource_is_false(self, sim):
        res = Resource(sim, capacity=1)
        assert res.cancel(sim.event()) is False
        granted = res.request()
        assert res.cancel(granted) is False
        assert res.in_use == 1

    def test_fifo_across_first_contention_drain_and_recontention(self, sim):
        res = Resource(sim, capacity=2)
        order, probes = [], []

        def user(uid, start):
            yield sim.timeout(start)
            yield res.request()
            order.append((uid, sim.now))
            yield sim.timeout(1.0)
            res.release()

        def probe(at):
            yield sim.timeout(at)
            probes.append((at, res.queue_length))

        # Uncontended grants, then two contended bursts with a drain
        # between them.
        for uid, start in [("a", 0.0), ("b", 2.0)]:
            sim.process(user(uid, start))
        for uid in "cdefg":
            sim.process(user(uid, 5.0))
        for uid in "hijk":
            sim.process(user(uid, 20.0))
        for at in (1.5, 5.5, 6.5, 10.0, 20.5):
            sim.process(probe(at))
        sim.run()
        assert order == [
            ("a", 0.0), ("b", 2.0),
            ("c", 5.0), ("d", 5.0), ("e", 6.0), ("f", 6.0), ("g", 7.0),
            ("h", 20.0), ("i", 20.0), ("j", 21.0), ("k", 21.0),
        ]
        assert probes == [(1.5, 0), (5.5, 3), (6.5, 1), (10.0, 0),
                          (20.5, 2)]
        assert res.in_use == 0


class TestStorePutters:
    def test_bounded_store_admits_blocked_putters_in_fifo_order(self, sim):
        store = Store(sim, capacity=2)
        accepted, got = [], []

        def putter(item):
            yield store.put(item)
            accepted.append((item, sim.now))

        def getter():
            for _ in range(6):
                yield sim.timeout(1.0)
                got.append((yield store.get()))

        for item in "abcdef":
            sim.process(putter(item))
        sim.process(getter())
        sim.run()
        assert got == list("abcdef")
        assert accepted == [("a", 0.0), ("b", 0.0), ("c", 1.0),
                            ("d", 2.0), ("e", 3.0), ("f", 4.0)]
        assert len(store) == 0


def test_per_node_footprint_stays_within_budget():
    nodes = 256
    tracemalloc.start()
    try:
        cluster = Cluster(ClusterSpec(num_nodes=nodes))
        events = EventSystem(cluster, MpiWorld(cluster), OMPCConfig())
        events.start()
        used, _ = tracemalloc.get_traced_memory()
        cluster.sim.run(until=0.0)
        idle, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used / nodes < BUDGET_BYTES_PER_NODE, used / nodes
    assert idle / nodes < IDLE_BUDGET_BYTES_PER_NODE, idle / nodes


def test_per_node_footprint_after_traffic_stays_within_budget():
    nodes = 256
    gc.collect()
    tracemalloc.start()
    try:
        cluster = Cluster(ClusterSpec(num_nodes=nodes))
        events = EventSystem(cluster, MpiWorld(cluster), OMPCConfig())
        events.start()
        cluster.sim.run(until=0.0)
        gc.collect()
        started, _ = tracemalloc.get_traced_memory()

        def origin():
            # Tags are drawn in order, so each node's NUM_COMMS events
            # cover every data communicator; notifications use the
            # control one.
            for node in range(nodes):
                for buffer_id in range(NUM_COMMS // 2):
                    yield from events.alloc(node, buffer_id)
                    yield from events.delete(node, buffer_id)

        cluster.sim.process(origin())
        cluster.sim.run()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The only match stores left hold the gates' standing receives.
    control = events.control.comm_id
    assert set(events.mpi._queues) == {(n, control) for n in range(nodes)}
    per_node = (held - started) / nodes
    assert per_node < TRAFFIC_BUDGET_BYTES_PER_NODE, per_node


def _resilient_run():
    """A 16x8 stencil on 9 nodes with two head standbys, checkpoints,
    a tiered device store, 1 % link loss and a head kill mid-run."""
    runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=9), OMPCConfig(
        head_standbys=2, checkpoint_interval=0.004,
        device_memory_bytes=12 * 64 * KB, eviction_policy="lru"))
    res = runtime.run(
        _stencil(16, 8), failures=[NodeFailure(time=0.01, node=0)],
        fault_plan=FaultPlan(seed=1, losses=[LinkLoss(probability=0.01)]))
    assert res.head_failovers == 1 and res.checkpoints_taken > 0
    return runtime


def test_finished_run_holds_within_budget():
    _resilient_run()  # first use of lazily imported modules
    gc.collect()
    tracemalloc.start()
    try:
        runtime = _resilient_run()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runtime.last_cluster is not None
    assert held < FINISHED_RUN_BUDGET_BYTES, held
