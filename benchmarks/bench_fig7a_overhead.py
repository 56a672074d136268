"""Figure 7(a): OMPC runtime overhead analysis.

Setup (§6.2): 1 head node + 1 worker node, a 1x16 Task Bench graph with
the trivial dependency pattern (no inter-task dependencies; the single
point's timesteps serialize through its output buffer), task workload
from 1K iterations (~0.02 ms) to 100M iterations (500 ms).

Definitions (paper): *startup* = process start to gate-thread creation;
*shutdown* = gate-thread destruction to process end; *scheduling* =
time to schedule the whole graph; all normalized by wall time.

Expected shapes: startup/shutdown constant across task sizes; an
~4.7 ms interval after the first event; constant overhead ~25 ms;
overhead fraction dominant below 1M iterations, < 25% at 10 ms tasks,
negligible at >= 50 ms tasks.
"""

from __future__ import annotations

from figutil import BANDWIDTH
from repro.bench.report import format_table
from repro.cluster.machine import ClusterSpec
from repro.core import OMPCRuntime
from repro.core.runtime import OMPCRunResult
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec, build_omp_program

TASK_SIZES = (1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000)


def run_overhead_cell(iterations: int) -> OMPCRunResult:
    spec = TaskBenchSpec(
        width=1,
        steps=16,
        pattern=Pattern.TRIVIAL,
        kernel=KernelSpec(iterations),
        output_bytes=0.0,
    )
    program = build_omp_program(spec)
    runtime = OMPCRuntime(ClusterSpec(num_nodes=2))
    return runtime.run(program)


def first_event_interval(runtime: OMPCRuntime) -> float:
    cluster = runtime.last_cluster
    assert cluster is not None
    return cluster.obs.counters.get("ompc.first_event_interval", 0.0)


class TestFig7a:
    def test_bench_overhead_sweep(self, benchmark):
        def sweep():
            return {it: run_overhead_cell(it) for it in TASK_SIZES}

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)

        # Startup and shutdown are constant across task sizes.
        startups = {r.startup_time for r in results.values()}
        shutdowns = {r.shutdown_time for r in results.values()}
        assert len(startups) == 1 and len(shutdowns) == 1

        # Constant overhead fluctuates around 25 ms.
        for r in results.values():
            assert 0.015 < r.constant_overhead < 0.035

        # Overhead dominates for tiny tasks...
        tiny = results[1_000]
        assert tiny.constant_overhead / tiny.makespan > 0.5
        # ...is below 25% at 10M iterations (50 ms tasks; the paper's
        # "reasonable lower bound" of 10 ms per task also satisfies it)...
        mid = results[2_000_000] if 2_000_000 in results else None
        big = results[10_000_000]
        assert big.constant_overhead / big.makespan < 0.25
        # ...and negligible at 500 ms tasks.
        huge = results[100_000_000]
        assert huge.constant_overhead / huge.makespan < 0.02

    def test_bench_ten_ms_tasks_under_25_percent(self, benchmark):
        """10 ms per task is the paper's small-overhead lower bound."""

        def cell():
            return run_overhead_cell(2_000_000)  # 2M iters = 10 ms

        r = benchmark.pedantic(cell, rounds=1, iterations=1)
        assert r.constant_overhead / r.makespan < 0.25

    def test_bench_first_event_interval(self, benchmark):
        """~4.7 ms one-time pause right after the first event."""

        def cell():
            spec = TaskBenchSpec(1, 16, Pattern.TRIVIAL, KernelSpec(1_000))
            runtime = OMPCRuntime(ClusterSpec(num_nodes=2))
            runtime.run(build_omp_program(spec))
            return first_event_interval(runtime)

        interval = benchmark.pedantic(cell, rounds=1, iterations=1)
        assert abs(interval - 0.0047) < 1e-9


def main() -> None:
    rows = []
    for iterations in TASK_SIZES:
        r = run_overhead_cell(iterations)
        task_ms = KernelSpec(iterations).duration * 1e3
        rows.append(
            [
                f"{iterations:,}",
                f"{task_ms:.2f}ms",
                f"{r.makespan * 1e3:.2f}ms",
                f"{r.startup_time / r.makespan * 100:.1f}%",
                f"{r.scheduling_time / r.makespan * 100:.2f}%",
                f"{r.shutdown_time / r.makespan * 100:.1f}%",
                f"{r.constant_overhead * 1e3:.1f}ms",
                f"{r.constant_overhead / r.makespan * 100:.1f}%",
            ]
        )
    print(
        format_table(
            [
                "iterations", "task", "wall", "startup%", "sched%",
                "shutdown%", "const-ovh", "ovh-frac",
            ],
            rows,
            title="Figure 7(a) — OMPC runtime overhead (1 head + 1 worker, 1x16 trivial)",
        )
    )


if __name__ == "__main__":
    main()
