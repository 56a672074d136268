"""The callback-chain event system against the generator reference.

:mod:`repro.core.events` runs a node's gate as one standing receive and
its handler pool as a slot pool, with every destination half a callback
chain.  The reference in ``tests/reference_events.py`` is the generator
machinery it replaced (a gate process, ``EVENT_HANDLERS`` handler
processes and an event-queue ``Store`` per node).  Both must agree
exactly, for a random sequence of origin operations:

* every operation completes at the same instant with the same return
  value (an operation that touches a killed node never completes, in
  either);
* every kernel runs at the same instant on the same device payloads;
* every node ends with the same device-memory table, versions and
  completion (dedup) table;
* the ``ompc.*`` counters are equal.

Generated cases cover 2–5 nodes, alloc, submit, retrieve, exchange,
broadcast and execute (CPU or GPU, fenced or dedup'd re-issues,
self-dispatch on the origin), issued on a coarse time grid so several
events often share an instant and queue for a node's handler slots,
with and without handler overhead and page-protect write detection, and
an optional worker kill.
"""

from __future__ import annotations

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.core.config import OMPCConfig
from repro.core.events import EventSystem
from repro.mpi import MpiWorld
from repro.omp.task import Buffer, Task, TaskKind, depend_in, depend_inout

from tests.reference_events import reference_events

#: Issue-time grid: coarse enough that same-instant events are common.
TICK = 10e-6
#: Buffers every node holds before the first operation, so every read
#: in a generated case finds its buffer.
BUFFERS = 3
SIZES = st.sampled_from([0.0, 64.0, 4096.0, 1e6])


@st.composite
def operations(draw, nodes: int):
    worker = st.integers(min_value=1, max_value=nodes - 1)
    node = st.integers(min_value=0, max_value=nodes - 1)
    buf = st.integers(min_value=0, max_value=BUFFERS - 1)
    kind = draw(st.sampled_from(
        ["alloc", "submit", "retrieve", "exchange", "broadcast", "execute"]))
    if kind == "exchange" and nodes < 3:
        kind = "submit"
    if kind == "broadcast" and nodes < 3:
        kind = "retrieve"
    op = {"kind": kind, "tick": draw(st.integers(min_value=0, max_value=6)),
          "buf": draw(buf), "nbytes": draw(SIZES)}
    if kind in ("alloc", "submit", "retrieve"):
        op["dst"] = draw(worker)
        op["blank"] = draw(st.booleans())
    elif kind == "exchange":
        src, dst = draw(st.lists(worker, min_size=2, max_size=2,
                                 unique=True))
        op.update(src=src, dst=dst)
    elif kind == "broadcast":
        src, *dsts = draw(st.lists(worker, min_size=2, max_size=nodes - 1,
                                   unique=True))
        op.update(src=src, dsts=dsts)
    else:
        op.update(
            dst=draw(node),
            reads=draw(st.lists(buf, max_size=2, unique=True)),
            cost=draw(st.sampled_from([0.0, 5e-6, 30e-6])),
            gpu=draw(st.booleans()),
            threads=draw(st.sampled_from([1, 2])),
            epoch=draw(st.integers(min_value=0, max_value=2)),
            dedup=draw(st.booleans()),
            # Few task ids, so dedup'd re-issues find earlier runs.
            tid=draw(st.integers(min_value=0, max_value=3)),
        )
    return op


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(min_value=2, max_value=5))
    kill = draw(st.one_of(st.none(), st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=nodes - 1))))
    return dict(
        nodes=nodes,
        handler_overhead=draw(st.sampled_from([0.0, 20e-6])),
        origin_overhead=draw(st.sampled_from([0.0, 5e-6])),
        page_protect=draw(st.booleans()),
        kill=kill,
        ops=draw(st.lists(operations(nodes), min_size=1, max_size=14)),
    )


def _run(case, reference: bool):
    with reference_events() if reference else nullcontext():
        cluster = Cluster(ClusterSpec(
            num_nodes=case["nodes"],
            node=NodeSpec(cores=2, threads=2, accelerators=1),
        ))
        sim = cluster.sim
        cfg = OMPCConfig(
            first_event_interval=0.0,
            event_origin_overhead=case["origin_overhead"],
            event_handler_overhead=case["handler_overhead"],
            write_detection=("page_protect" if case["page_protect"]
                             else "dependencies"),
        )
        events = EventSystem(cluster, MpiWorld(cluster), cfg)
        events.start()
        buffers = [Buffer(nbytes=4096.0, name=f"b{i}") for i in range(BUFFERS)]
        # Buffer ids are global: results name buffers by their index.
        index = {buf.buffer_id: i for i, buf in enumerate(buffers)}
        for mem in events.memories:
            for i, buf in enumerate(buffers):
                mem.alloc(buf.buffer_id, ("init", i), nbytes=buf.nbytes)
        outcomes: dict[int, tuple] = {}
        kernels: list[tuple] = []

        def operation(i, op):
            kind = op["kind"]
            bid = buffers[op["buf"]].buffer_id
            if kind == "alloc":
                payload = None if op["blank"] else ("alloc", i)
                value = yield from events.alloc(op["dst"], bid, payload,
                                                nbytes=op["nbytes"])
            elif kind == "submit":
                value = yield from events.submit(op["dst"], bid, ("sub", i),
                                                 op["nbytes"])
            elif kind == "retrieve":
                value = yield from events.retrieve(op["dst"], bid,
                                                   op["nbytes"])
            elif kind == "exchange":
                value = yield from events.exchange(op["src"], op["dst"], bid,
                                                   op["nbytes"])
            elif kind == "broadcast":
                value = yield from events.broadcast(op["src"], op["dsts"],
                                                    bid, op["nbytes"])
            else:
                def kernel(*args, i=i):
                    kernels.append((sim.now, i, args))

                deps = [depend_in(buffers[b]) for b in op["reads"]]
                deps.append(depend_inout(buffers[op["buf"]]))
                meta = {"omp_threads": op["threads"]}
                if op["gpu"]:
                    meta["device"] = "gpu"
                task = Task(task_id=op["tid"], kind=TaskKind.TARGET,
                            deps=tuple(deps), cost=op["cost"], fn=kernel,
                            meta=meta)
                value = yield from events.execute(
                    op["dst"], task, dedup=op["dedup"], fo_epoch=op["epoch"],
                    outputs=((bid, op["tid"]),))
                if value is not None:  # the buffers detected as written
                    value = tuple(index[b] for b in value)
            outcomes[i] = (sim.now, value)

        for i, op in enumerate(case["ops"]):
            sim.timeout(op["tick"] * TICK).callbacks.append(
                lambda _ev, i=i, op=op: sim.process(operation(i, op)))
        if case["kill"] is not None:
            tick, node = case["kill"]
            sim.timeout(tick * TICK + TICK / 2).callbacks.append(
                lambda _ev: events.fail_node(node))
        sim.run()
        tables = [({index[b]: p for b, p in mem._table.items()},
                   {index[b]: v for b, v in mem.versions.items()},
                   mem.resident_bytes)
                  for mem in events.memories]
        counters = {k: v for k, v in cluster.obs.counters.items()
                    if k.startswith("ompc.")}
        return (outcomes, kernels, tables, events._exec_done,
                events._node_epoch, counters)


@given(scenarios())
@settings(deadline=None, max_examples=150)
def test_events_match_reference(case):
    assert _run(case, reference=False) == _run(case, reference=True)


def test_fifth_execute_on_a_node_queues_in_both():
    # Five simultaneous EXECUTEs on node 1 with one more than the
    # handler slots: the reference and the chains agree on every
    # instant, including the queued fifth.
    ops = [dict(kind="execute", tick=0, buf=0, nbytes=0.0, dst=1, reads=[],
                cost=30e-6, gpu=False, threads=1, epoch=0, dedup=False,
                tid=i)
           for i in range(5)]
    case = dict(nodes=2, handler_overhead=20e-6, origin_overhead=0.0,
                page_protect=False, kill=None, ops=ops)
    new = _run(case, reference=False)
    assert new == _run(case, reference=True)
    outcomes = new[0]
    assert max(outcomes[i][0] for i in range(4)) < outcomes[4][0]


def test_kill_mid_event_matches_reference():
    # A 1 MB submit to node 1 and an execute on node 2; node 1 dies
    # while its data is on the wire.
    ops = [dict(kind="submit", tick=0, buf=0, nbytes=1e6, dst=1,
                blank=False),
           dict(kind="execute", tick=0, buf=1, nbytes=0.0, dst=2, reads=[0],
                cost=5e-6, gpu=True, threads=1, epoch=0, dedup=False,
                tid=0)]
    case = dict(nodes=3, handler_overhead=20e-6, origin_overhead=0.0,
                page_protect=True, kill=(2, 1), ops=ops)
    new = _run(case, reference=False)
    assert new == _run(case, reference=True)
    outcomes, _kernels, tables = new[:3]
    assert 0 not in outcomes and 1 in outcomes
    assert tables[1][0] == {}


def _same_instant_case(allocs):
    # ``allocs`` allocs of buffer 0 on node 1, then a zero-cost CPU
    # execute that reads buffer 0 and a submit that overwrites it, all
    # at tick 0 with 20 µs handler overhead.
    alloc = dict(kind="alloc", tick=0, buf=0, nbytes=0.0, dst=1,
                 blank=False)
    ops = [dict(alloc) for _ in range(allocs)]
    ops.append(dict(kind="execute", tick=0, buf=0, nbytes=0.0, dst=1,
                    reads=[], cost=0.0, gpu=False, threads=1, epoch=0,
                    dedup=False, tid=0))
    ops.append(dict(kind="submit", tick=0, buf=0, nbytes=0.0, dst=1,
                    blank=False))
    return dict(nodes=2, handler_overhead=20e-6, origin_overhead=0.0,
                page_protect=False, kill=None, ops=ops)


def test_free_cpu_slot_is_taken_in_the_same_step():
    # Hypothesis seed 17's shrunk draw.  The execute's handler finds a
    # free CPU slot and runs its zero-cost kernel in the same step, so
    # the kernel reads the alloc's payload, not the submit's that a
    # later handler writes at the same instant.
    case = _same_instant_case(allocs=1)
    new = _run(case, reference=False)
    assert new == _run(case, reference=True)
    assert new[1] == [(new[1][0][0], 1, (("alloc", 0),))]


def test_free_cpu_slot_is_taken_after_queued_handlers():
    # Hypothesis seed 27's shrunk draw: six allocs fill node 1's handler
    # slots, so the execute queues for one; once it runs, it still takes
    # the free CPU slot in the same step.
    case = _same_instant_case(allocs=6)
    new = _run(case, reference=False)
    assert new == _run(case, reference=True)
    assert new[1] == [(new[1][0][0], 6, (("alloc", 5),))]
