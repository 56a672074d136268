"""Property tests for the tiered data plane.

Three invariants from the tiering design:

1. **Capacity**: a worker's physical device table never exceeds its
   configured capacity at any point in the run — the head plans
   evictions before allocations, so ``peak_bytes <= capacity_bytes``
   on every :class:`DeviceMemory` instance (peak is the running max
   over every table change, so this covers every event).
2. **Byte conservation**: values written in place survive spill to the
   host and read-through re-fetch — an oversubscribed run produces the
   same output arrays as an unlimited one.
3. **Digest stability**: with capacity that never pressures, enabling
   tiering leaves the event stream *bit identical* — same events, same
   times, same priorities, same total order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster.machine import ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.faults import FaultTolerantRuntime
from repro.core.memory import DeviceMemory
from repro.core.runtime import OMPCRuntime
from repro.omp.api import OmpProgram
from repro.omp.task import Dep, DepType, depend_in, depend_out
from repro.sim.core import Simulator
from repro.util.units import MILLISECOND

KB = 1024.0


@contextmanager
def _tap_all_sims(digest):
    """Hash every processed event's (time, priority, name)."""
    orig = Simulator.__init__

    def tapped(self, *args, **kwargs):
        orig(self, *args, **kwargs)

        def tap(t, priority, event, _d=digest, _p=struct.pack):
            _d.update(_p("<dI", t, priority))
            _d.update(event.name.encode())

        self._event_tap = tap

    Simulator.__init__ = tapped
    try:
        yield
    finally:
        Simulator.__init__ = orig


@contextmanager
def _track_device_memories(instances):
    orig = DeviceMemory.__init__

    def tracked(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        instances.append(self)

    DeviceMemory.__init__ = tracked
    try:
        yield
    finally:
        DeviceMemory.__init__ = orig


def pipeline_program(n=8, nbytes=2 * KB):
    """Stage → in-place increment (dirty sole copies) → reduce-out.

    The INOUT middle stage makes every staged buffer a *dirty* sole
    copy on its node, so capacity pressure exercises write-behind spill
    and read-through re-fetch, not just clean drops.
    """
    prog = OmpProgram("mem-prop")
    bufs = [prog.buffer(nbytes, data=np.zeros(4), name=f"b{i}")
            for i in range(n)]
    outs = [prog.buffer(nbytes, data=np.zeros(4), name=f"o{i}")
            for i in range(n)]
    prog.target_enter_data(*bufs)
    for i, b in enumerate(bufs):
        def bump(x, i=i):
            x += i + 1
        prog.target(bump, depend=[Dep(b, DepType.INOUT)],
                    cost=0.2 * MILLISECOND, name=f"bump{i}")
    for i, (b, o) in enumerate(zip(bufs, outs)):
        def copy(x, y):
            y[:] = 2 * x
        prog.target(copy, depend=[depend_in(b), depend_out(o)],
                    cost=0.2 * MILLISECOND, name=f"copy{i}")
    prog.target_exit_data(*outs)
    return prog, outs


def _one_head(cfg):
    return OMPCRuntime(ClusterSpec(num_nodes=3), cfg)


def _two_shards(cfg):
    cfg = dataclasses.replace(cfg, head_shards=2)
    return OMPCRuntime(ClusterSpec(num_nodes=6), cfg)


def _fault_tolerant(cfg):
    return FaultTolerantRuntime(ClusterSpec(num_nodes=3), cfg)


def _layouts(values):
    """``values`` on one head (3 nodes), on two shards (6 nodes) and on
    the fault-tolerant runtime (3 nodes): ``(value, runtime)`` params,
    where ``runtime(cfg)`` builds the runtime for ``cfg``."""
    return [
        pytest.param(v, layout, id=f"{v}{suffix}")
        for layout, suffix in ((_one_head, ""), (_two_shards, "-shards2"),
                               (_fault_tolerant, "-ft"))
        for v in values
    ]


class TestCapacityInvariant:
    @pytest.mark.parametrize("frac,runtime", _layouts([1.0, 0.5, 0.25]))
    def test_physical_tables_never_exceed_capacity(self, frac, runtime):
        cap = max(2 * KB, frac * 8 * 2 * KB)
        cfg = OMPCConfig(device_memory_bytes=cap, eviction_policy="lru")
        instances: list[DeviceMemory] = []
        with _track_device_memories(instances):
            rt = runtime(cfg)
            prog, outs = pipeline_program()
            rt.run(prog)
        assert instances, "no DeviceMemory was built"
        for mem in instances:
            if mem.capacity_bytes is not None and mem.node_id != 0:
                assert mem.peak_bytes <= mem.capacity_bytes, (
                    f"node {mem.node_id} peaked at {mem.peak_bytes} B "
                    f"over the {mem.capacity_bytes} B budget"
                )


class TestByteConservation:
    @pytest.mark.parametrize("policy,runtime", _layouts(["lru", "cost"]))
    def test_spill_and_refetch_preserve_values(self, policy, runtime):
        # Unlimited reference.
        prog_ref, outs_ref = pipeline_program()
        OMPCRuntime(ClusterSpec(num_nodes=3), OMPCConfig()).run(prog_ref)
        reference = [o.data.copy() for o in outs_ref]
        assert any(r.any() for r in reference)

        # Half-capacity tiered run: dirty spills + re-fetches happen.
        cfg = OMPCConfig(device_memory_bytes=4 * 2 * KB,
                         eviction_policy=policy, trace=True)
        rt = runtime(cfg)
        prog, outs = pipeline_program()
        rt.run(prog)
        counters = rt.last_cluster.obs.counters
        assert counters.get("mem.spill_bytes", 0) > 0, (
            "scenario no longer exercises write-behind spill"
        )
        for got, ref in zip((o.data for o in outs), reference):
            assert (got == ref).all()


class TestDigestStability:
    def _digest(self, cfg):
        digest = hashlib.sha256()
        with _tap_all_sims(digest):
            rt = OMPCRuntime(ClusterSpec(num_nodes=3), cfg)
            prog, outs = pipeline_program()
            res = rt.run(prog)
        return digest.hexdigest(), res.makespan, [o.data.copy() for o in outs]

    def test_unpressured_tiering_is_bit_identical(self):
        base_d, base_mk, base_out = self._digest(OMPCConfig())
        for policy in ("lru", "cost"):
            tier_d, tier_mk, tier_out = self._digest(OMPCConfig(
                device_memory_bytes=1e12, eviction_policy=policy,
            ))
            assert tier_d == base_d, (
                f"{policy}: tiering with unlimited capacity "
                "perturbed the event stream"
            )
            assert tier_mk == base_mk
            for got, ref in zip(tier_out, base_out):
                assert (got == ref).all()

    def test_tiered_runs_are_deterministic(self):
        cfg = OMPCConfig(device_memory_bytes=4 * 2 * KB,
                         eviction_policy="lru")
        d1, mk1, out1 = self._digest(cfg)
        d2, mk2, out2 = self._digest(cfg)
        assert d1 == d2
        assert mk1 == mk2
