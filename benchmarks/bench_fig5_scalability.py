"""Figure 5: execution-time scalability (weak scaling).

Setup (§6.2): 10M iterations (50 ms) per task, CCR 1.0, task graph
``2n x 32`` for ``n`` nodes, n from 2 to 64, four dependency patterns,
four runtimes, average of repeated runs (our simulation is
deterministic, so one run per cell).

Expected shapes (paper): MPI and StarPU lowest and flat; OMPC between,
with weak scaling degrading for tree/fft/stencil and a knee at 32-64
nodes (head-node in-flight limit); Charm++ highest on average, with
OMPC's advantage holding up to 32 nodes.
"""

from __future__ import annotations

from figutil import RUNTIME_ORDER, fig5_spec, run_cell
from repro.bench.report import format_series
from repro.cluster.machine import ClusterSpec
from repro.core import OMPCConfig
from repro.runtimes import OmpcRuntimeAdapter
from repro.taskbench import Pattern

FULL_NODES = (2, 4, 8, 16, 32, 64)
#: Subset used under pytest-benchmark (wall-time bounded).
BENCH_NODES = (2, 8, 16)


class TestFig5:
    def test_bench_stencil_all_runtimes(self, benchmark):
        spec = fig5_spec(Pattern.STENCIL_1D, 8)

        def cell():
            return {
                name: run_cell(name, spec, 8) for name in RUNTIME_ORDER
            }

        times = benchmark.pedantic(cell, rounds=1, iterations=1)
        # Paper shape: MPI/StarPU < OMPC < Charm++.
        assert times["MPI"] <= times["StarPU"] * 1.05
        assert times["StarPU"] < times["OMPC"]
        assert times["OMPC"] < times["Charm++"]

    def test_bench_ompc_weak_scaling_knee(self, benchmark):
        """OMPC's weak scaling breaks when width exceeds head threads."""

        def sweep():
            return [
                run_cell("OMPC", fig5_spec(Pattern.STENCIL_1D, n), n)
                for n in BENCH_NODES
            ] + [run_cell("OMPC", fig5_spec(Pattern.STENCIL_1D, 64), 64)]

        t2, t8, t16, t64 = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # Weak scaling roughly holds through 16 nodes...
        assert t16 < t2 * 3.0
        # ...but breaks at 64 (width 128 > 48 head threads).
        assert t64 > t16 * 1.4

    def test_bench_knee_mechanism(self, benchmark):
        """§7: the knee at 64 nodes is the head's ``head_threads`` slot
        pool.  Four shard managers, each with its own pool, run the
        stencil faster than one head, and doubling the pool to 96
        threads (width 128) closes most of the gap to 16 nodes."""

        def ompc(n, **cfg):
            return OmpcRuntimeAdapter(OMPCConfig(**cfg)).run(
                fig5_spec(Pattern.STENCIL_1D, n), ClusterSpec(num_nodes=n)
            ).makespan

        def sweep():
            return (ompc(16), ompc(64), ompc(64, head_shards=4),
                    ompc(64, head_threads=96))

        t16, t64, sharded, wide = benchmark.pedantic(sweep, rounds=1,
                                                     iterations=1)
        # Measured 0.77x of one head.
        assert sharded < t64 * 0.9
        # Measured: 96 threads leave 20 % of the 16-to-64-node gap.
        assert wide - t16 < (t64 - t16) * 0.5

    def test_bench_trivial_scales(self, benchmark):
        """The trivial pattern 'somehow preserves' scalability to 32 nodes."""

        def sweep():
            return [
                run_cell("OMPC", fig5_spec(Pattern.TRIVIAL, n), n)
                for n in (2, 16, 32)
            ]

        t2, t16, t32 = benchmark.pedantic(sweep, rounds=1, iterations=1)
        # Clean up to 16 nodes; only mild degradation at 32 (width 64
        # just exceeds the 48 head threads).
        assert t16 < t2 * 1.15
        assert t32 < t2 * 1.5

    def test_bench_mpi_baseline_advantage(self, benchmark):
        """MPI is 1.4x-2.9x faster than OMPC (paper's conclusion)."""
        spec = fig5_spec(Pattern.TREE, 16)

        def cell():
            return run_cell("OMPC", spec, 16), run_cell("MPI", spec, 16)

        ompc, mpi = benchmark.pedantic(cell, rounds=1, iterations=1)
        assert 1.1 < ompc / mpi < 3.5


def main() -> None:
    for pattern in Pattern.paper_patterns():
        series = {name: [] for name in RUNTIME_ORDER}
        for n in FULL_NODES:
            spec = fig5_spec(pattern, n)
            for name in RUNTIME_ORDER:
                series[name].append(run_cell(name, spec, n))
        print(
            format_series(
                "nodes",
                FULL_NODES,
                series,
                title=f"Figure 5 — {pattern.value} (exec time, weak scaling)",
            )
        )
        print()


if __name__ == "__main__":
    main()
