"""Graceful degradation when the working set outgrows device memory.

Real accelerators run out of memory long before clusters run out of
work.  The tiered data plane (device -> host -> remote) turns that hard
failure into a soft slowdown: when a node's device table is full, the
head *evicts* a victim — dropping it if a clean replica exists
elsewhere, write-behind spilling it to host memory if it is a dirty
sole copy — and transparently re-fetches it on the next touch.  Pinned
buffers (those an in-flight kernel is using) are never victims.

Three scenes:

1. A working set 2x device capacity runs to completion on the plain
   runtime, bit-for-bit matching the unlimited run's outputs.
2. The same capacity on the fault-tolerant runtime, with a node crash
   mid-run — eviction, spill, failure recovery, and re-fetch compose.
3. A ``MemoryPressure`` fault arm shrinks one node's capacity to 30%
   mid-run and makes half its re-fetches fail; exponential-backoff
   retry rides through it.

Run:  python examples/memory_pressure.py
"""

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import (
    FaultPlan,
    FaultTolerantRuntime,
    MemoryPressure,
    NodeFailure,
    OMPCConfig,
    OMPCRuntime,
)
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out

KB = 1024.0


def build_workload(n: int = 10, nbytes: float = 4 * KB):
    """Staged inputs, dirtied in place, then reduced to outputs.

    The in-place (INOUT) middle stage makes every staged buffer a dirty
    sole copy on its node — under pressure those must be *spilled* to
    host, not just dropped, or the updates would be lost.
    """
    prog = OmpProgram("pressure-demo")
    arrays = [np.zeros(64) for _ in range(n)]
    results = [np.zeros(64) for _ in range(n)]
    bufs = [prog.buffer(nbytes, data=a, name=f"in{i}")
            for i, a in enumerate(arrays)]
    outs = [prog.buffer(nbytes, data=r, name=f"out{i}")
            for i, r in enumerate(results)]
    prog.target_enter_data(*bufs)
    for i, b in enumerate(bufs):
        prog.target(
            fn=lambda x, k=i: np.add(x, k + 1.0, out=x),
            depend=[depend_inout(b)],
            cost=0.002, name=f"dirty{i}",
        )
    for i, (b, o) in enumerate(zip(bufs, outs)):
        prog.target(
            fn=lambda x, y: np.copyto(y, 3.0 * x),
            depend=[depend_in(b), depend_out(o)],
            cost=0.002, name=f"reduce{i}",
        )
    prog.target_exit_data(*outs)
    return prog, results


def print_mem_counters(counters) -> None:
    hits = counters.get("mem.hit", 0)
    misses = counters.get("mem.miss", 0)
    total = hits + misses
    rate = f" ({hits / total * 100:.0f}% hit rate)" if total else ""
    print(f"device hits/misses   : {hits:.0f}/{misses:.0f}{rate}")
    print(f"evictions            : {counters.get('mem.evict', 0):.0f} "
          f"({counters.get('mem.spill_bytes', 0) / KB:.0f} KiB spilled "
          "to host)")
    print(f"fetch retries        : "
          f"{counters.get('mem.fetch_retries', 0):.0f}")


def main() -> None:
    # --- 1. oversubscribed plain runtime ------------------------------
    prog, results = build_workload()
    OMPCRuntime(ClusterSpec(num_nodes=3)).run(prog)
    reference = [r.copy() for r in results]

    # 10 x 4 KiB staged + 10 x 4 KiB outputs on 2 workers, but each
    # device holds only 20 KiB: roughly half the per-node working set.
    cfg = OMPCConfig(device_memory_bytes=20 * KB, eviction_policy="lru",
                     trace=True)
    prog, results = build_workload()
    result = OMPCRuntime(ClusterSpec(num_nodes=3), cfg).run(prog)
    print("--- working set ~2x device capacity (plain runtime) ---")
    print(f"makespan             : {result.makespan * 1e3:.1f} ms")
    print_mem_counters(result.counters)
    ok = all((got == ref).all() for got, ref in zip(results, reference))
    print(f"outputs match unlimited run: {ok}")
    assert ok

    # --- 2. pressure + a node crash (fault-tolerant runtime) ----------
    prog, results = build_workload()
    runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=4), cfg)
    ft = runtime.run(prog, failures=[NodeFailure(time=0.004, node=2)])
    counters = ft.counters
    print("\n--- same budget, node 2 dies at t=4ms (FT runtime) ---")
    print(f"makespan             : {ft.makespan * 1e3:.1f} ms, "
          f"failures survived: {ft.failures}")
    print_mem_counters(counters)
    ok = all((got == ref).all() for got, ref in zip(results, reference))
    print(f"outputs match unlimited run: {ok}")
    assert ok

    # --- 3. MemoryPressure fault arm: shrink + flaky re-fetches -------
    # Halving is the deepest squeeze that stays degradable: a reduce
    # task touches 8 KiB solo (4 KiB in + 4 KiB out), and a solo
    # working set that cannot fit is correctly fatal.
    plan = FaultPlan(seed=11, pressures=[
        MemoryPressure(node=1, start=0.0, capacity_factor=0.5,
                       fetch_fail_prob=0.5),
    ])
    flaky_cfg = OMPCConfig(device_memory_bytes=20 * KB,
                           eviction_policy="lru", trace=True,
                           mem_fetch_retries=50)
    prog, results = build_workload()
    runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=4), flaky_cfg)
    ft = runtime.run(prog, fault_plan=plan)
    counters = ft.counters
    print("\n--- node 1 squeezed to 50% capacity, 50% of its "
          "re-fetches fail ---")
    print(f"makespan             : {ft.makespan * 1e3:.1f} ms")
    print_mem_counters(counters)
    ok = all((got == ref).all() for got, ref in zip(results, reference))
    print(f"outputs match unlimited run: {ok}")
    assert ok

    print("\nout-of-memory became a slowdown, not a crash.")


if __name__ == "__main__":
    main()
