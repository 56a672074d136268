"""Ablation M: graceful degradation under device-memory pressure.

The tiered data plane (device -> host -> remote) lets a working set
larger than device memory run to completion by evicting victims chosen
by a pluggable policy: plain drops for clean replicas, write-behind
spills for dirty sole copies, read-through re-fetch on the next touch.
This bench sweeps capacity fractions of the working set and compares
the LRU policy against the cost-aware one (which weighs victim bytes
against re-fetch cost and dirtiness) and the unlimited baseline.

``--json`` dumps the exact counter values per cell — the same numbers
the CI mem-smoke job pins.
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import format_table
from repro.cluster.machine import ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.omp.api import OmpProgram
from repro.omp.task import Dep, DepType, depend_in, depend_out
from repro.util.units import MILLISECOND

KB = 1024.0
NODES = 3
FRACTIONS = (1.0, 0.5, 0.25)
POLICIES = ("lru", "cost")


def workload(n: int = 12):
    """Staged buffers of mixed sizes, dirtied in place, then reduced.

    Mixed sizes make the cost-aware policy's choices diverge from pure
    LRU; the INOUT middle stage turns every staged buffer into a dirty
    sole copy so pressure exercises write-behind spill, not just clean
    drops.
    """
    prog = OmpProgram("mem-ablation")
    sizes = [(i % 4 + 1) * KB for i in range(n)]
    bufs = [prog.buffer(sz, data=np.zeros(4), name=f"b{i}")
            for i, sz in enumerate(sizes)]
    outs = [prog.buffer(sz, data=np.zeros(4), name=f"o{i}")
            for i, sz in enumerate(sizes)]
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
    return prog, outs, sum(sizes)


def run_case(policy: str | None, frac: float | None) -> dict:
    """One cell of the sweep; ``policy=None`` is the unlimited baseline."""
    if policy is None:
        cfg = OMPCConfig(trace=True)
    else:
        prog_probe, _outs, total = workload()
        # Floor at 9 KiB: the largest single task touches 8 KiB (a
        # 4 KiB input plus its 4 KiB output), and a solo working set
        # that cannot fit is *correctly* fatal rather than degradable.
        cfg = OMPCConfig(
            device_memory_bytes=max(9 * KB, frac * total),
            eviction_policy=policy,
            trace=True,
        )
    rt = OMPCRuntime(ClusterSpec(num_nodes=NODES), cfg)
    prog, outs, _total = workload()
    res = rt.run(prog)
    counters = res.counters
    return {
        "makespan_ms": res.makespan * 1e3,
        "network_bytes": res.network_bytes,
        "hit": counters.get("mem.hit", 0),
        "miss": counters.get("mem.miss", 0),
        "evict": counters.get("mem.evict", 0),
        "spill_bytes": counters.get("mem.spill_bytes", 0),
        "fetch_retries": counters.get("mem.fetch_retries", 0),
        "outputs": [o.data.copy() for o in outs],
    }


class TestAblationMemory:
    def test_bench_pressure_degrades_gracefully(self, benchmark):
        def sweep():
            cells = {"unlimited": run_case(None, None)}
            for policy in POLICIES:
                for frac in FRACTIONS:
                    cells[f"{policy}@{frac:g}"] = run_case(policy, frac)
            return cells

        cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
        reference = cells["unlimited"]["outputs"]
        assert cells["unlimited"]["evict"] == 0
        for name, cell in cells.items():
            # Byte conservation: every pressured run still computes
            # exactly the unlimited answer.
            for got, ref in zip(cell["outputs"], reference):
                assert (got == ref).all(), f"{name} corrupted outputs"
        for policy in POLICIES:
            # Quarter capacity cannot hold the working set: the run
            # completes *because* eviction made room.
            tight = cells[f"{policy}@0.25"]
            assert tight["evict"] > 0
            assert tight["spill_bytes"] > 0


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json as jsonlib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None,
                        help="write exact per-cell counters to this file")
    args = parser.parse_args(argv)

    payload = {}
    rows = []

    def add(label, cell):
        payload[label] = {k: v for k, v in cell.items() if k != "outputs"}
        rows.append([
            label,
            f"{cell['makespan_ms']:.3f}",
            f"{cell['network_bytes'] / KB:.0f}",
            f"{cell['hit']:.0f}",
            f"{cell['miss']:.0f}",
            f"{cell['evict']:.0f}",
            f"{cell['spill_bytes'] / KB:.0f}",
            f"{cell['fetch_retries']:.0f}",
        ])

    add("unlimited", run_case(None, None))
    for policy in POLICIES:
        for frac in FRACTIONS:
            add(f"{policy}@{frac:g}", run_case(policy, frac))

    print(format_table(
        ["configuration", "makespan (ms)", "net (KiB)", "hits", "misses",
         "evictions", "spilled (KiB)", "retries"],
        rows,
        title=(
            "Ablation M — tiered data plane under capacity pressure "
            f"({NODES - 1} workers, mixed-size working set)"
        ),
    ))
    if args.json:
        with open(args.json, "w") as fh:
            jsonlib.dump(payload, fh, indent=2, sort_keys=True)
        print(f"exact counters -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
