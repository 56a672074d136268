"""Command-line front end for OMPC Bench.

Usage::

    python -m repro.bench experiment.yaml [more.yaml ...]
    python -m repro.bench --demo
    python -m repro.bench trace <scenario> --out trace.json
    python -m repro.bench jobs --policy all --quick
    python -m repro.bench jobs --overload --load 1 3 10
    python -m repro.bench check <scenario>

Each YAML file describes one experiment (see
:class:`repro.bench.config.ExperimentConfig`); the launcher runs the
full parameter grid and prints one series table per (pattern, ccr),
exactly like the paper's figures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.config import ExperimentConfig
from repro.bench.launcher import RUNTIME_FACTORIES, Launcher
from repro.bench.report import format_series

DEMO_CONFIG = """\
name: demo
runtimes: [ompc, charmpp, starpu, mpi]
patterns: [stencil_1d, tree]
nodes: [2, 4, 8]
width: 2n
steps: 8
iterations: 10000000   # 50 ms tasks
ccrs: [1.0]
"""


def report(launcher: Launcher, config: ExperimentConfig) -> str:
    chunks = []
    for pattern in config.patterns:
        for ccr in config.ccrs:
            series: dict[str, list[float]] = {}
            for runtime_name in config.runtimes:
                display = RUNTIME_FACTORIES[runtime_name]().name
                records = sorted(
                    launcher.select(
                        experiment=config.name,
                        runtime=display,
                        pattern=pattern,
                        ccr=ccr,
                    ),
                    key=lambda r: r.nodes,
                )
                if records:
                    series[display] = [r.summary.mean for r in records]
            chunks.append(
                format_series(
                    "nodes",
                    list(config.nodes),
                    series,
                    title=f"{config.name} — {pattern} (ccr={ccr})",
                )
            )
    return "\n\n".join(chunks)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        from repro.bench.tracecmd import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "jobs":
        from repro.bench.jobscmd import main as jobs_main

        return jobs_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.bench.checkcmd import main as check_main

        return check_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="OMPC Bench: run Task Bench experiment grids on the "
        "simulated cluster.",
    )
    parser.add_argument("configs", nargs="*", type=Path,
                        help="YAML experiment files")
    parser.add_argument("--demo", action="store_true",
                        help="run a built-in demonstration experiment")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    texts: list[tuple[str, str]] = []
    if args.demo:
        texts.append(("<demo>", DEMO_CONFIG))
    for path in args.configs:
        texts.append((str(path), path.read_text()))
    if not texts:
        parser.print_help()
        return 2

    progress = None if args.quiet else lambda msg: print(f"  .. {msg}")
    for origin, text in texts:
        config = ExperimentConfig.from_yaml(text)
        print(f"== {origin}: experiment {config.name!r} ==")
        launcher = Launcher(progress=progress)
        launcher.run(config)
        print()
        print(report(launcher, config))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
