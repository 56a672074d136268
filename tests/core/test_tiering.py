"""Tests for the tiered device→host→remote data plane.

Covers the :class:`~repro.core.tiering.MemoryDirector` bookkeeping in
isolation (charging, pinning, policy ordering, MemoryWait vs. the fatal
error), the runtime integration (programs whose working sets exceed
device capacity complete with correct outputs and mem.* counters), the
MemoryPressure fault arm (capacity shrink + fetch-retry loop), and the
task-attributed diagnostics of :class:`DeviceMemoryError`.
"""

import numpy as np
import pytest

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.faultmodel import FaultPlan, MemoryPressure
from repro.core.memory import DeviceMemory, DeviceMemoryError
from repro.core.runtime import OMPCRuntime
from repro.core.tiering import (
    CostAwarePolicy,
    LRUPolicy,
    MemoryDirector,
    MemoryWait,
    Victim,
    make_policy,
)
from repro.omp.api import OmpProgram
from repro.omp.task import Buffer, Task, TaskKind, depend_in, depend_out
from repro.util.units import MILLISECOND

KB = 1024.0


def buf(nbytes, name=""):
    return Buffer(nbytes=nbytes, name=name)


def task(name="t"):
    return Task(task_id=0, kind=TaskKind.TARGET, name=name)


def never_sole(_buf, _node):
    return False


def always_sole(_buf, _node):
    return True


class TestPolicies:
    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("cost"), CostAwarePolicy)
        with pytest.raises(ValueError, match="unknown eviction policy"):
            make_policy("none")
        with pytest.raises(ValueError):
            make_policy("fifo")

    def test_lru_orders_by_last_use(self):
        a, b = buf(KB, "a"), buf(KB, "b")
        victims = [
            Victim(b, KB, last_use=9, dirty=False),
            Victim(a, KB, last_use=1, dirty=False),
        ]
        ordered = LRUPolicy().order(victims)
        assert [v.buffer.name for v in ordered] == ["a", "b"]

    def test_cost_aware_prefers_clean_small(self):
        small_clean = Victim(buf(KB, "sc"), KB, last_use=9, dirty=False)
        large_dirty = Victim(buf(4 * KB, "ld"), 4 * KB, last_use=1,
                             dirty=True)
        ordered = CostAwarePolicy().order([large_dirty, small_clean])
        assert ordered[0].buffer.name == "sc"

    def test_cost_aware_dirty_penalty_validated(self):
        with pytest.raises(ValueError):
            CostAwarePolicy(dirty_penalty=0.5)


class TestMemoryDirector:
    def test_charge_and_release_balance(self):
        d = MemoryDirector({1: 4 * KB}, LRUPolicy())
        a = buf(KB, "a")
        assert d.charge(1, a)
        assert not d.charge(1, a)  # idempotent
        assert d.resident(1) == KB
        d.release(1, a.buffer_id)
        assert d.resident(1) == 0.0
        assert a.buffer_id not in d.holdings(1)

    def test_plan_evicts_lru_first(self):
        d = MemoryDirector({1: 2 * KB}, LRUPolicy())
        a, b, c = buf(KB, "a"), buf(KB, "b"), buf(KB, "c")
        d.charge(1, a)
        d.charge(1, b)
        d.touch(1, [a.buffer_id])  # a is now hotter than b
        evs = d.plan(task(), 1, [c], never_sole)
        assert [e.buffer.name for e in evs] == ["b"]
        assert not evs[0].spill  # clean replica: plain drop
        assert d.resident(1) == 3 * KB  # c charged; b still pending

    def test_sole_copy_spills(self):
        d = MemoryDirector({1: KB}, LRUPolicy())
        a = buf(KB, "a")
        d.charge(1, a)
        evs = d.plan(task(), 1, [buf(KB, "b")], always_sole)
        assert evs[0].spill

    def test_pinned_buffers_never_victims(self):
        d = MemoryDirector({1: 2 * KB}, LRUPolicy())
        a, b = buf(KB, "a"), buf(KB, "b")
        d.charge(1, a)
        d.charge(1, b)
        d.pin([a.buffer_id])
        evs = d.plan(task(), 1, [buf(KB, "c")], never_sole)
        assert [e.buffer.name for e in evs] == ["b"]
        d.unpin([a.buffer_id])
        assert not d.pinned(a.buffer_id)

    def test_pin_refcounts(self):
        d = MemoryDirector({1: KB}, LRUPolicy())
        d.pin([7])
        d.pin([7])
        d.unpin([7])
        assert d.pinned(7)
        d.unpin([7])
        assert not d.pinned(7)

    def test_memory_wait_when_pins_block(self):
        # The shortfall is covered by another frame's pinned bytes:
        # transient blockage, not a fatal overfit.
        d = MemoryDirector({1: 2 * KB}, LRUPolicy())
        a, b = buf(KB, "a"), buf(KB, "b")
        d.charge(1, a)
        d.charge(1, b)
        d.pin([a.buffer_id, b.buffer_id])
        with pytest.raises(MemoryWait):
            d.plan(task(), 1, [buf(2 * KB, "c")], never_sole)

    def test_memory_wait_when_evictions_in_flight(self):
        d = MemoryDirector({1: 2 * KB}, LRUPolicy())
        a = buf(2 * KB, "a")
        d.charge(1, a)
        evs = d.plan(task(), 1, [buf(2 * KB, "b")], never_sole)
        assert [ev.buffer for ev in evs] == [a]
        # A concurrent planner must wait for the in-flight eviction.
        with pytest.raises(MemoryWait):
            d.plan(task(), 1, [buf(KB, "c")], never_sole)

    def test_settled_eviction_is_a_victim_again(self):
        # An abandoned eviction leaves its copy charged; once settled it
        # is no longer in flight, so the next planner may pick it.
        d = MemoryDirector({1: 4 * KB}, LRUPolicy())
        a = buf(2 * KB, "a")
        d.charge(1, a)
        assert [ev.buffer for ev in d.plan(
            task(), 1, [buf(3 * KB, "b")], never_sole)] == [a]
        d.settle(1, a.buffer_id)
        evs = d.plan(task(), 1, [buf(KB, "c")], never_sole)
        assert [ev.buffer for ev in evs] == [a]

    def test_fatal_when_solo_working_set_cannot_fit(self):
        d = MemoryDirector({1: KB}, LRUPolicy())
        with pytest.raises(DeviceMemoryError) as err:
            d.plan(task("huge"), 1, [buf(4 * KB, "w")], never_sole)
        msg = str(err.value)
        assert "task huge" in msg
        assert "4096 B" in msg
        assert "node 1" in msg

    def test_fatal_message_lists_resident_set(self):
        d = MemoryDirector({1: 2 * KB}, LRUPolicy())
        a = buf(KB, "stuck")
        d.charge(1, a)
        d.pin([a.buffer_id])
        with pytest.raises(DeviceMemoryError, match="stuck"):
            # Needs 2.5 KB with only 1 KB ever reclaimable even if the
            # pin lifts: fatal, and the message names the resident set.
            d.plan(task(), 1, [buf(2.5 * KB, "w")], never_sole)

    def test_capacity_fn_shrinks_effective_capacity(self):
        d = MemoryDirector({1: 4 * KB}, LRUPolicy(),
                           capacity_fn=lambda n, base: base * 0.5)
        assert d.capacity(1) == 2 * KB

    def test_forget_node_clears_accounting(self):
        d = MemoryDirector({1: 4 * KB}, LRUPolicy())
        d.charge(1, buf(KB))
        d.forget_node(1)
        assert d.resident(1) == 0.0
        assert d.holdings(1) == {}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoryDirector({1: 0.0}, LRUPolicy())


def chain_program(n=8, nbytes=2 * KB):
    """n independent read→write pairs; working set 2n buffers."""
    prog = OmpProgram("tiering")
    ins = [prog.buffer(nbytes, data=np.zeros(4), name=f"b{i}")
           for i in range(n)]
    outs = [prog.buffer(nbytes, data=np.zeros(4), name=f"o{i}")
            for i in range(n)]
    prog.target_enter_data(*ins)
    for i, (b, o) in enumerate(zip(ins, outs)):
        def fn(x, y, i=i):
            y[:] = x + i + 1
        prog.target(fn, depend=[depend_in(b), depend_out(o)],
                    cost=0.2 * MILLISECOND, name=f"k{i}")
    prog.target_exit_data(*outs)
    return prog, outs


def expected(outs):
    return all((o.data == np.zeros(4) + i + 1).all()
               for i, o in enumerate(outs))


def stencil_program(width=8, steps=4):
    """A double-buffered 1-D stencil with real payloads.

    Neighbouring points read each other's buffers, so clean replicas of
    one buffer sit on several workers at once.  Returns the program,
    the final buffers and their serially evaluated values.
    """
    prog = OmpProgram("stencil")
    bufs = [[prog.buffer(4 * KB, data=np.zeros(4), name=f"p{q}g{g}")
             for g in range(2)] for q in range(width)]
    want = [np.zeros(4)] * width
    for step in range(steps):
        new = []
        for point in range(width):
            qs = [q for q in (point - 1, point, point + 1)
                  if step and 0 <= q < width]

            def fn(*arrays, base=step + point / 8.0):
                *reads, out = arrays
                np.copyto(out, sum(reads, np.full(4, base)) * 0.5)

            prog.target(
                fn,
                depend=[depend_in(bufs[q][(step - 1) % 2]) for q in qs]
                + [depend_out(bufs[point][step % 2])],
                cost=MILLISECOND * (1 + 0.01 * ((7 * step + 3 * point) % 5
                                                - 2)),
                name=f"t{step}p{point}", affinity=point,
            )
            new.append(sum((want[q] for q in qs),
                           np.full(4, step + point / 8.0)) * 0.5)
        want = new
    final = [bufs[q][(steps - 1) % 2] for q in range(width)]
    prog.target_exit_data(*final)
    return prog, final, want


class TestRuntimeIntegration:
    @pytest.mark.parametrize("capacity", [4, 5])
    @pytest.mark.parametrize("ft", [False, True], ids=["plain", "ft"])
    def test_concurrent_drops_keep_a_copy(self, ft, capacity):
        # Planners on two workers pick the two last replicas of one
        # clean buffer as drop victims in the same instant.  The first
        # eviction drops its directory entry before its DELETE, so the
        # second sees the sole copy and spills it instead.
        from repro.core.faults import FaultTolerantRuntime

        cfg = OMPCConfig(device_memory_bytes=capacity * 4 * KB,
                         eviction_policy="lru", trace=True)
        runtime = FaultTolerantRuntime if ft else OMPCRuntime
        rt = runtime(ClusterSpec(num_nodes=5), cfg)
        prog, final, want = stencil_program()
        rt.run(prog)
        for buf, value in zip(final, want):
            assert (buf.data == value).all(), buf.name
        assert rt.last_cluster.obs.counters.get("mem.evict", 0) > 0

    @pytest.mark.parametrize("policy", ["lru", "cost"])
    def test_oversubscribed_run_completes(self, policy):
        # Working set 16 buffers/node-group vs. 4-buffer devices: the
        # pre-tiering runtime died here; the tiered one must finish
        # with byte-identical outputs.
        cfg = OMPCConfig(device_memory_bytes=4 * 2 * KB,
                         eviction_policy=policy, trace=True)
        rt = OMPCRuntime(ClusterSpec(num_nodes=3), cfg)
        prog, outs = chain_program()
        res = rt.run(prog)
        assert expected(outs)
        assert res.makespan > 0
        counters = rt.last_cluster.obs.counters
        assert counters.get("mem.evict", 0) > 0
        assert counters.get("mem.hit", 0) + counters.get("mem.miss", 0) > 0

    def test_outputs_match_unlimited_run(self):
        cfg = OMPCConfig(device_memory_bytes=3 * 2 * KB,
                         eviction_policy="lru")
        rt = OMPCRuntime(ClusterSpec(num_nodes=3), cfg)
        prog, outs = chain_program()
        rt.run(prog)
        limited = [o.data.copy() for o in outs]

        rt2 = OMPCRuntime(ClusterSpec(num_nodes=3), OMPCConfig())
        prog2, outs2 = chain_program()
        rt2.run(prog2)
        for got, ref in zip(limited, (o.data for o in outs2)):
            assert (got == ref).all()

    def test_no_tiering_without_policy(self):
        # device_memory_bytes alone keeps the PR-4 hard-failure mode.
        cfg = OMPCConfig(device_memory_bytes=2 * 2 * KB)
        rt = OMPCRuntime(ClusterSpec(num_nodes=3), cfg)
        prog, _outs = chain_program()
        with pytest.raises(DeviceMemoryError, match="out of device memory"):
            rt.run(prog)

    @pytest.mark.parametrize("ft", [False, True], ids=["plain", "ft"])
    def test_own_resident_reads_count_as_the_working_set(self, ft):
        """``t2`` reads its resident ``z`` and writes a device-sized
        ``y``: its own pin on ``z`` is the blockage, so no wait helps
        and the run fails naming ``t2`` instead of waiting forever."""
        from repro.core.faults import FaultTolerantRuntime
        from tests.property.test_chaos_failover import run_to_horizon

        prog = OmpProgram("own-pins")
        x = prog.buffer(2 * KB, data=np.zeros(4), name="x")
        z = prog.buffer(KB, data=np.zeros(4), name="z")
        y = prog.buffer(4 * KB, data=np.zeros(4), name="y")
        prog.target(lambda a, b: (a.fill(1.0), b.fill(2.0)),
                    depend=[depend_out(x), depend_out(z)],
                    cost=MILLISECOND, name="w")
        prog.target(lambda a, b: np.copyto(b, a + 5.0),
                    depend=[depend_in(z), depend_out(y)],
                    cost=MILLISECOND, name="t2")
        cfg = OMPCConfig(device_memory_bytes=4 * KB, eviction_policy="lru")
        runtime = FaultTolerantRuntime if ft else OMPCRuntime
        with pytest.raises(DeviceMemoryError,
                           match=r"task t2 .*\[y:4096B, z:1024B\]"):
            run_to_horizon(runtime(ClusterSpec(num_nodes=3), cfg), prog)

    def test_fatal_error_names_task_and_buffer(self):
        # A single buffer bigger than the device can never fit.
        cfg = OMPCConfig(device_memory_bytes=KB, eviction_policy="lru")
        rt = OMPCRuntime(ClusterSpec(num_nodes=2), cfg)
        prog = OmpProgram()
        big = prog.buffer(4 * KB, data=np.zeros(4), name="giant")
        out = prog.buffer(4 * KB, data=np.zeros(4), name="out")
        prog.target(lambda x, y: None, depend=[depend_in(big),
                                               depend_out(out)],
                    cost=0.1 * MILLISECOND, name="whale")
        with pytest.raises(DeviceMemoryError, match="whale"):
            rt.run(prog)


class TestMemoryPressureFaults:
    def _run_under_pressure(self, pressure, cfg):
        cluster = Cluster(ClusterSpec(num_nodes=3))
        FaultPlan(seed=7, pressures=[pressure]).install(cluster)
        rt = OMPCRuntime(ClusterSpec(num_nodes=3), cfg)
        prog, outs = chain_program(n=6)
        proc, finish = rt.launch(prog, cluster=cluster)
        cluster.sim.run(until=proc)
        res = finish()
        return res, outs, rt.last_cluster

    def test_capacity_shrink_forces_evictions(self):
        cfg = OMPCConfig(device_memory_bytes=8 * 2 * KB,
                         eviction_policy="lru", trace=True)
        pressure = MemoryPressure(node=1, start=0.0,
                                  capacity_factor=0.25)
        res, outs, cluster = self._run_under_pressure(pressure, cfg)
        assert expected(outs)
        assert cluster.obs.counters.get("mem.evict", 0) > 0

    def test_fetch_failures_retry_with_backoff(self):
        cfg = OMPCConfig(device_memory_bytes=8 * 2 * KB,
                         eviction_policy="lru", trace=True,
                         mem_fetch_retries=50)
        pressure = MemoryPressure(node=1, start=0.0,
                                  fetch_fail_prob=0.5)
        res, outs, cluster = self._run_under_pressure(pressure, cfg)
        assert expected(outs)
        assert cluster.obs.counters.get("mem.fetch_retries", 0) > 0
        assert cluster.faults.fetch_failures > 0

    def test_exhausted_retries_raise(self):
        cfg = OMPCConfig(device_memory_bytes=8 * 2 * KB,
                         eviction_policy="lru", mem_fetch_retries=0)
        pressure = MemoryPressure(node=1, start=0.0, fetch_fail_prob=1.0)
        with pytest.raises(DeviceMemoryError, match="fetch"):
            self._run_under_pressure(pressure, cfg)

    def test_pressure_validation(self):
        with pytest.raises(ValueError):
            MemoryPressure(node=1, start=0.0, capacity_factor=0.0)
        with pytest.raises(ValueError):
            MemoryPressure(node=1, start=0.0, fetch_fail_prob=1.5)
        with pytest.raises(ValueError):
            MemoryPressure(node=1, start=5.0, end=5.0)


class TestFaultTolerantTiering:
    def _ft(self, cfg, **run_kw):
        from repro.core.faults import FaultTolerantRuntime

        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=4), cfg)
        prog, outs = chain_program(n=6)
        res = rt.run(prog, **run_kw)
        return res, outs, rt.last_cluster

    def test_worker_crash_under_pressure(self):
        from repro.core.faults import NodeFailure

        cfg = OMPCConfig(device_memory_bytes=3 * 2 * KB,
                         eviction_policy="lru", trace=True)
        res, outs, cluster = self._ft(
            cfg, failures=[NodeFailure(time=0.3 * MILLISECOND, node=2)],
        )
        assert expected(outs)
        assert res.failures == [2]
        assert cluster.obs.counters.get("mem.evict", 0) > 0

    def test_ft_fetch_failures_retry_with_backoff(self):
        cfg = OMPCConfig(device_memory_bytes=3 * 2 * KB,
                         eviction_policy="lru", trace=True,
                         mem_fetch_retries=50)
        plan = FaultPlan(seed=7, pressures=[
            MemoryPressure(node=1, start=0.0, fetch_fail_prob=0.5),
        ])
        res, outs, cluster = self._ft(cfg, fault_plan=plan)
        assert expected(outs)
        assert cluster.obs.counters.get("mem.fetch_retries", 0) > 0
        assert cluster.faults.fetch_failures > 0

    def test_kill_mid_spill_ends(self):
        """Worker 1 dies while the head spills one of its dirty victims.

        The spill retrieve and the delete race the victim node's death,
        so the ``reduce8`` frame gives up on the dead node instead of
        waiting for a reply that never comes.  The run ends before the
        horizon: byte-exact, or with a typed error when the lost value
        had no other copy.
        """
        from repro.core.faults import (
            FaultTolerantRuntime,
            NodeFailure,
            RecoveryError,
        )
        from tests.property.test_chaos_failover import run_to_horizon
        from tests.property.test_event_digest_pins import _pressure_program

        cfg = OMPCConfig(device_memory_bytes=20 * KB, eviction_policy="lru")
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg)
        prog = _pressure_program()
        outs = prog.tasks[-1].buffers
        try:
            run_to_horizon(rt, prog, failures=[
                NodeFailure(time=10.5 * MILLISECOND, node=1)])
        except RecoveryError as err:
            assert "in0" in str(err)
            return
        for i, out in enumerate(outs):
            assert (out.data == 3.0 * (i + 1)).all(), out.name

    @pytest.mark.parametrize("node,at_ms", [
        (1, 12.5), (2, 12.5), (3, 10.5), (3, 11.5),
    ])
    def test_kill_ends_exact_or_typed(self, node, at_ms):
        """Kills that left a frame waiting on a dead node's reply (an
        exit-data retrieve or a stale-copy DELETE): the run ends
        byte-exact, or with a :class:`RecoveryError` for a lost
        in-place value."""
        from repro.core.faults import (
            FaultTolerantRuntime,
            NodeFailure,
            RecoveryError,
        )
        from tests.property.test_chaos_failover import run_to_horizon
        from tests.property.test_event_digest_pins import _pressure_program

        cfg = OMPCConfig(device_memory_bytes=20 * KB, eviction_policy="lru")
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg)
        prog = _pressure_program()
        outs = prog.tasks[-1].buffers
        try:
            run_to_horizon(rt, prog, failures=[
                NodeFailure(time=at_ms * MILLISECOND, node=node)])
        except RecoveryError:
            return
        for i, out in enumerate(outs):
            assert (out.data == 3.0 * (i + 1)).all(), out.name

    @pytest.mark.parametrize("node,at_ms", [(1, 1.25), (2, 4.0)])
    def test_unlanded_fetch_is_evicted_without_a_read(self, node, at_ms):
        """A fetch whose source dies before it lands fails its frame and
        leaves the destination charged for bytes it never got.  When a
        planner evicts that charge, the eviction neither spills nor
        reads it: it only deletes (a no-op on the device)."""
        from repro.core.faults import (
            FaultTolerantRuntime,
            NodeFailure,
            RecoveryError,
        )
        from tests.property.test_chaos_failover import run_to_horizon

        cfg = OMPCConfig(device_memory_bytes=4 * 4 * KB,
                         eviction_policy="lru")
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg)
        prog, final, want = stencil_program()
        try:
            run_to_horizon(rt, prog, failures=[
                NodeFailure(time=at_ms * MILLISECOND, node=node)])
        except RecoveryError:
            return
        for buf, value in zip(final, want):
            assert (buf.data == value).all(), buf.name

    def test_reader_waits_for_a_lineage_rebuild(self):
        """Worker 1 dies while writers' outputs are lost and re-executed.
        A reader of ``x_i`` must not trust the location the re-execution
        lists before its kernel wrote: it waits for the rebuild, so no
        kernel reads a buffer its node no longer holds."""
        from repro.core.faults import FaultTolerantRuntime, NodeFailure
        from tests.property.test_chaos_failover import run_to_horizon

        prog = OmpProgram("fan-out")
        xs = [prog.buffer(KB, data=np.zeros(4), name=f"x{i}")
              for i in range(6)]
        for i, x in enumerate(xs):
            prog.target(lambda a, v=i + 1.0: a.fill(v),
                        depend=[depend_out(x)], cost=MILLISECOND,
                        name=f"w{i}")
        ys = []
        for i, x in enumerate(xs):
            for j in range(3):
                y = prog.buffer(KB, data=np.zeros(4), name=f"y{i}_{j}")
                prog.target(lambda a, b, k=j + 1.0: np.copyto(b, a * k),
                            depend=[depend_in(x), depend_out(y)],
                            cost=MILLISECOND, name=f"r{i}_{j}")
                ys.append((y, (i + 1.0) * (j + 1.0)))
        prog.target_exit_data(*(y for y, _ in ys))
        cfg = OMPCConfig(device_memory_bytes=8 * KB, eviction_policy="lru")
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg)
        res = run_to_horizon(rt, prog, failures=[
            NodeFailure(time=1.2 * MILLISECOND, node=1)])
        assert res.reexecuted_tasks > 0
        for y, value in ys:
            assert (y.data == value).all(), y.name

    @pytest.mark.parametrize("capacity_kb", [5, 6])
    def test_exit_data_races_no_spill(self, capacity_kb):
        """An exit data and a planner that wants its buffer as a victim.

        ``w`` writes ``x`` and ``z`` on one worker; ``exit-x`` and
        ``t2`` become ready together.  ``t2`` needs room on that worker
        and ``x`` is its LRU victim, dirty, so a spill would race the
        exit's retrieve of ``x``.  The exit waits out in-flight
        evictions and pins ``x`` until its worker copy is deleted, so
        ``t2`` waits for that delete instead of spilling a copy the
        exit is dropping.
        """
        from repro.core.faults import FaultTolerantRuntime
        from tests.property.test_chaos_failover import run_to_horizon

        prog = OmpProgram("exit-race")
        x = prog.buffer(2 * KB, data=np.zeros(4), name="x")
        z = prog.buffer(KB, data=np.zeros(4), name="z")
        y = prog.buffer(4 * KB, data=np.zeros(4), name="y")
        prog.target(lambda a, b: (a.fill(1.0), b.fill(2.0)),
                    depend=[depend_out(x), depend_out(z)],
                    cost=MILLISECOND, name="w")
        prog.target_exit_data(x, name="exit-x")
        prog.target(lambda a, b: np.copyto(b, a + 5.0),
                    depend=[depend_in(z), depend_out(y)],
                    cost=MILLISECOND, name="t2")
        prog.target_exit_data(y, z, name="exit-yz")
        cfg = OMPCConfig(device_memory_bytes=capacity_kb * KB,
                         eviction_policy="lru")
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=3), cfg)
        run_to_horizon(rt, prog)
        assert (x.data == 1.0).all()
        assert (y.data == 7.0).all()
        assert (z.data == 2.0).all()

    def test_ft_exhausted_retries_raise(self):
        cfg = OMPCConfig(device_memory_bytes=3 * 2 * KB,
                         eviction_policy="lru", mem_fetch_retries=0)
        plan = FaultPlan(seed=7, pressures=[
            MemoryPressure(node=1, start=0.0, fetch_fail_prob=1.0),
        ])
        with pytest.raises(DeviceMemoryError, match="fetch"):
            self._ft(cfg, fault_plan=plan)


class TestConfigValidation:
    def test_policy_names(self):
        OMPCConfig(device_memory_bytes=KB, eviction_policy="lru")
        OMPCConfig(device_memory_bytes=KB, eviction_policy="cost")
        with pytest.raises(ValueError):
            OMPCConfig(device_memory_bytes=KB, eviction_policy="mru")

    def test_policy_needs_capacity(self):
        # Without a finite device the tiered store never arms, so a
        # policy would be silently ignored.
        with pytest.raises(ValueError, match="device_memory_bytes > 0"):
            OMPCConfig(eviction_policy="lru")
        OMPCConfig(device_memory_bytes=KB)  # capacity alone is fine

    def test_retry_bounds(self):
        with pytest.raises(ValueError):
            OMPCConfig(mem_fetch_retries=-1)


class TestDeviceMemoryDiagnostics:
    def test_alloc_error_names_buffer_task_and_resident_set(self):
        mem = DeviceMemory(2, capacity_bytes=KB)
        mem.alloc(1, nbytes=KB, label="A", owner="setup")
        with pytest.raises(DeviceMemoryError) as err:
            mem.alloc(2, nbytes=KB, label="B", owner="kern7")
        msg = str(err.value)
        assert "node 2" in msg
        assert "out of device memory" in msg
        assert "B" in msg and "kern7" in msg
        assert "A" in msg  # resident set listed
