"""Tests for the distributed event system (Fig. 3 flow)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, NetworkSpec, NodeSpec
from repro.core.config import OMPCConfig
from repro.core.events import EVENT_HANDLERS, EventSystem, _binomial_tree
from repro.core.runtime import OMPCRuntime
from repro.mpi import MpiWorld
from repro.omp import OmpProgram
from repro.omp.task import Buffer, Task, TaskKind, depend_inout
from repro.sim.errors import Interrupt


def make_system(n=3, **cfg_kwargs):
    cfg_kwargs.setdefault("first_event_interval", 0.0)
    cfg_kwargs.setdefault("event_origin_overhead", 0.0)
    cfg_kwargs.setdefault("event_handler_overhead", 0.0)
    cluster = Cluster(ClusterSpec(num_nodes=n))
    mpi = MpiWorld(cluster, overhead=0.0)
    events = EventSystem(cluster, mpi, OMPCConfig(**cfg_kwargs))
    events.start()
    return cluster, events


def drive(cluster, gen, name="driver"):
    proc = cluster.sim.process(gen, name=name)
    return cluster.sim.run(until=proc)


class TestLifecycle:
    def test_double_start_rejected(self):
        cluster, events = make_system()
        with pytest.raises(RuntimeError):
            events.start()

    def test_origin_before_start_rejected(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        events = EventSystem(cluster, MpiWorld(cluster), OMPCConfig())

        def bad():
            yield from events.alloc(1, 0)

        cluster.sim.process(bad())
        with pytest.raises(RuntimeError, match="not started"):
            cluster.sim.run()

    def test_shutdown_terminates_gates_and_handlers(self):
        cluster, events = make_system()

        def main():
            yield from events.alloc(1, 0)
            yield from events.shutdown()

        drive(cluster, main())
        # After shutdown the heap must drain with no live processes.
        cluster.sim.run(check_deadlock=True)


class TestAllocDelete:
    def test_alloc_creates_entry_on_worker(self):
        cluster, events = make_system()

        def main():
            yield from events.alloc(1, 99)
            yield from events.alloc(2, 99)
            yield from events.delete(2, 99)

        drive(cluster, main())
        assert 99 in events.memories[1]
        assert 99 not in events.memories[2]
        assert cluster.obs.counters["ompc.events.alloc"] == 2
        assert cluster.obs.counters["ompc.events.delete"] == 1


class TestSubmitRetrieve:
    def test_submit_then_retrieve_roundtrip(self):
        cluster, events = make_system()
        payload = [1, 2, 3]

        def main():
            yield from events.submit(1, 5, payload, nbytes=1000)
            back = yield from events.retrieve(1, 5, nbytes=1000)
            return back

        assert drive(cluster, main()) is payload
        assert events.memories[1].read(5) is payload

    def test_submit_charges_transfer_time(self):
        cluster = Cluster(
            ClusterSpec(
                num_nodes=2,
                network=NetworkSpec(latency=0.0, bandwidth=1e6),
            )
        )
        mpi = MpiWorld(cluster, overhead=0.0)
        cfg = OMPCConfig(
            first_event_interval=0.0,
            event_origin_overhead=0.0,
            event_handler_overhead=0.0,
        )
        events = EventSystem(cluster, mpi, cfg)
        events.start()

        def main():
            yield from events.submit(1, 0, None, nbytes=1e6)

        drive(cluster, main())
        # 1 MB at 1 MB/s dominates; control messages add a little more.
        assert cluster.sim.now == pytest.approx(1.0, rel=0.01)


class TestExchange:
    def test_data_flows_worker_to_worker(self):
        cluster, events = make_system(4)
        payload = object()

        def main():
            yield from events.submit(1, 7, payload, nbytes=500)
            yield from events.exchange(1, 3, 7, nbytes=500)

        drive(cluster, main())
        assert events.memories[3].read(7) is payload
        # Source copy is untouched by an exchange (coherency is the
        # data manager's decision, not the event system's).
        assert events.memories[1].read(7) is payload

    def test_exchange_does_not_stage_on_head(self):
        cluster, events = make_system(4)

        def main():
            yield from events.submit(1, 7, "x", nbytes=1000)
            head_rx_before = cluster.network.nics[0].bytes_received
            yield from events.exchange(1, 3, 7, nbytes=1000)
            return head_rx_before

        head_rx_before = drive(cluster, main())
        # Head receives only the small completion, never the payload.
        head_rx_after = cluster.network.nics[0].bytes_received
        assert head_rx_after - head_rx_before < 1000


class TestExecute:
    def test_execute_runs_fn_against_device_memory(self):
        cluster, events = make_system()
        buf = Buffer(nbytes=100, name="A")
        seen = []
        task = Task(
            task_id=0,
            kind=TaskKind.TARGET,
            deps=(depend_inout(buf),),
            cost=0.0,
            fn=lambda a: seen.append(a),
        )

        def main():
            yield from events.submit(1, buf.buffer_id, "payload", buf.nbytes)
            yield from events.execute(1, task)

        drive(cluster, main())
        assert seen == ["payload"]

    def test_execute_charges_compute_cost(self):
        cluster, events = make_system()
        task = Task(task_id=0, kind=TaskKind.TARGET, cost=2.0)

        def main():
            yield from events.execute(1, task)

        drive(cluster, main())
        assert cluster.sim.now == pytest.approx(2.0, rel=0.01)

    def test_execute_with_intra_node_threads(self):
        cluster, events = make_system()
        task = Task(
            task_id=0, kind=TaskKind.TARGET, cost=8.0, meta={"omp_threads": 4}
        )

        def main():
            yield from events.execute(1, task)

        drive(cluster, main())
        assert cluster.sim.now == pytest.approx(2.0, rel=0.01)

    def test_missing_buffer_surfaces_as_error(self):
        from repro.core.memory import DeviceMemoryError

        cluster, events = make_system()
        buf = Buffer(nbytes=100)
        task = Task(
            task_id=0,
            kind=TaskKind.TARGET,
            deps=(depend_inout(buf),),
            fn=lambda a: None,
        )

        def main():
            yield from events.execute(1, task)  # no submit first!

        cluster.sim.process(main())
        with pytest.raises(DeviceMemoryError):
            cluster.sim.run()


class TestHandlerPool:
    def test_queued_events_start_when_slots_free(self):
        # Two EXECUTEs more than the node has handler slots, all issued
        # at once: the fifth waits for the first completion, then runs,
        # and the sixth follows it.
        cluster, events = make_system(2)
        sim = cluster.sim
        ran, done = {}, {}

        def execute(i):
            task = Task(task_id=i, kind=TaskKind.TARGET, cost=1.0,
                        fn=lambda: ran.setdefault(i, sim.now))
            yield from events.execute(1, task)
            done[i] = sim.now

        def probe():
            yield sim.timeout(0.5)
            pool = events._pools[1]
            return pool.in_use, pool.queue_length

        for i in range(EVENT_HANDLERS + 2):
            sim.process(execute(i))
        slots = sim.process(probe())
        sim.run()
        assert slots.value == (EVENT_HANDLERS, 2)
        # Kernels ran in arrival order (``ran`` keeps call order among
        # equal times); the fifth started when the first slot freed
        # (its completion landed at the origin).
        assert sorted(ran, key=ran.get) == list(range(EVENT_HANDLERS + 2))
        first_free = min(done[i] for i in range(EVENT_HANDLERS))
        assert ran[EVENT_HANDLERS] == pytest.approx(first_free + 1.0,
                                                    rel=1e-12)
        assert events._pools == {}  # an idle node keeps no pool

    def test_handler_overhead_charged_once_per_event(self):
        # Each of these events waits for nothing but its handler, so the
        # overhead adds to the makespan once per event.
        def makespan(overhead):
            cluster, events = make_system(2, event_handler_overhead=overhead)

            def main():
                yield from events.alloc(1, 0, payload="x")
                yield from events.retrieve(1, 0, nbytes=100)
                yield from events.delete(1, 0)

            drive(cluster, main())
            return cluster.sim.now

        assert makespan(1e-3) - makespan(0.0) == pytest.approx(3e-3)

    def test_kill_mid_submit_sends_and_writes_nothing(self):
        # 1 MB at 1 MB/s: the data lands a second after the notification.
        cluster = Cluster(ClusterSpec(
            num_nodes=2, network=NetworkSpec(latency=0.0, bandwidth=1e6)))
        mpi = MpiWorld(cluster, overhead=0.0)
        events = EventSystem(cluster, mpi, OMPCConfig(
            first_event_interval=0.0, event_origin_overhead=0.0,
            event_handler_overhead=0.0))
        events.start()
        sim = cluster.sim
        submit = sim.process(events.submit(1, 7, "payload", nbytes=1e6))
        race = events.race_failure([submit], [1])
        noticed = []
        race.callbacks.append(lambda _ev: noticed.append(sim.now))

        def kill():
            yield sim.timeout(0.5)
            # Notified and waiting for its data: the chain is live.
            assert list(events._pools[1].chains)
            events.fail_node(1)

        sim.process(kill())
        sim.run()
        assert noticed == [0.5]
        assert not submit.triggered  # no completion ever came back
        assert cluster.network.nics[1].bytes_sent == 0
        # The data landed after the wipe and was not written.
        assert cluster.network.nics[1].bytes_received > 1e6
        assert len(events.memories[1]) == 0
        assert cluster.obs.counters.get("ompc.events.submit", 0) == 0


class TestInterruptedExecute:
    @pytest.mark.parametrize("node, device", [
        (NodeSpec(accelerators=1, accelerator_speed=1.0), "gpu"),
        (NodeSpec(cores=1, threads=1), "cpu"),
    ], ids=["gpu", "cpu"])
    def test_queued_slot_request_withdrawn(self, node, device):
        """A handler interrupted while it waits for a worker slot
        withdraws its request, so the slot is free for the next tenant
        of the node."""
        # Three independent one-second targets on the one worker: one
        # holds its slot and two queue behind it when the run is cut.
        prog = OmpProgram()
        for i in range(3):
            buf = prog.buffer(64, data=np.zeros(8), name=f"A{i}")
            prog.target(depend=[depend_inout(buf)], cost=1.0, device=device,
                        name=f"k{i}")
        runtime = OMPCRuntime(ClusterSpec(num_nodes=2, node=node),
                              OMPCConfig())
        main, _finish = runtime.launch(prog)
        sim = main.sim

        def preempt():
            yield sim.timeout(0.1)
            main.interrupt("preempted")

        def watch():
            try:
                yield main
            except Interrupt:
                pass

        sim.process(preempt())
        sim.process(watch())
        sim.run()
        worker = runtime.last_cluster.node(1)
        slots = worker.gpus if device == "gpu" else worker.cpu
        assert (slots.in_use, slots.queue_length) == (0, 0)


class TestBroadcast:
    def test_all_destinations_receive(self):
        cluster, events = make_system(6)
        payload = {"model": 1}

        def main():
            yield from events.submit(1, 3, payload, nbytes=100)
            yield from events.broadcast(1, [2, 3, 4, 5], 3, nbytes=100)

        drive(cluster, main())
        for node in (2, 3, 4, 5):
            assert events.memories[node].read(3) is payload

    def test_empty_destination_list_is_noop(self):
        cluster, events = make_system()

        def main():
            yield from events.broadcast(1, [], 3, nbytes=100)

        drive(cluster, main())
        assert cluster.obs.counters.get("ompc.bytes_broadcast", 0) == 0


class TestBinomialTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16])
    def test_tree_spans_all_participants(self, n):
        participants = list(range(10, 10 + n))
        tree = _binomial_tree(participants)
        assert set(tree) == set(participants)
        # Exactly one root; every non-root reachable from it.
        roots = [p for p, (parent, _c) in tree.items() if parent is None]
        assert roots == [participants[0]]
        reached = set()
        frontier = [participants[0]]
        while frontier:
            node = frontier.pop()
            reached.add(node)
            frontier.extend(tree[node][1])
        assert reached == set(participants)

    def test_children_parent_consistency(self):
        tree = _binomial_tree(list(range(9)))
        for node, (_parent, children) in tree.items():
            for child in children:
                assert tree[child][0] == node


class TestTagIsolation:
    def test_concurrent_events_use_distinct_tags(self):
        cluster, events = make_system(4)

        def main():
            procs = [
                cluster.sim.process(
                    events.submit(node, node, f"p{node}", nbytes=100)
                )
                for node in (1, 2, 3)
            ]
            from repro.sim.primitives import AllOf

            yield AllOf(cluster.sim, procs)

        drive(cluster, main())
        for node in (1, 2, 3):
            assert events.memories[node].read(node) == f"p{node}"
        assert events.tags.allocated == 3

    def test_first_event_interval_charged_once(self):
        cluster, events = make_system(2, first_event_interval=0.0047)

        def main():
            yield from events.alloc(1, 0)
            yield from events.alloc(1, 1)

        drive(cluster, main())
        # Untraced, the always-on counter still measures it (once).
        charged = cluster.obs.counters["ompc.first_event_interval"]
        assert charged == pytest.approx(0.0047)
