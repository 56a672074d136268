"""Utilization summary computed from one run's observer.

Answers the Fig. 7a-style questions directly: which link saturated
(per-link busy fraction and bandwidth occupancy), which node's cores
sat idle (per-node core occupancy), how hard the §7 head-node thread
limit was pressed (in-flight slot usage), and how deep the event queues
ran.  Rendered as an aligned text table by :func:`format_utilization`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer


@dataclass(frozen=True)
class LinkUsage:
    """One directed link's traffic over the run."""

    src: int
    dst: int
    nbytes: float
    #: Fraction of the run during which ≥1 flow was serializing.
    busy_fraction: float
    #: Bytes moved relative to what the line rate could carry all run.
    occupancy: float


@dataclass(frozen=True)
class NodeUsage:
    """One node's compute-context utilization."""

    node: int
    cores: int
    #: Time-averaged number of busy execution contexts.
    avg_busy: float
    #: ``avg_busy / cores`` (SMT can push this past 1.0).
    occupancy: float


@dataclass
class UtilizationReport:
    makespan: float
    links: list[LinkUsage] = field(default_factory=list)
    nodes: list[NodeUsage] = field(default_factory=list)
    #: (node, time-averaged depth, max depth) of each event queue.
    queues: list[tuple[int, float, float]] = field(default_factory=list)
    head_inflight_avg: float = 0.0
    head_inflight_max: float = 0.0
    head_threads: int | None = None
    #: (node, peak resident bytes) from the device-memory gauges.
    mem_peaks: list[tuple[int, float]] = field(default_factory=list)
    #: Multi-tenant queue-depth profile (``jobs.queue_depth`` gauge).
    jobs_queue_avg: float = 0.0
    jobs_queue_max: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


def utilization_summary(
    observer: "Observer",
    cluster,
    makespan: float,
    head_threads: int | None = None,
) -> UtilizationReport:
    """Aggregate an observer's metrics into a :class:`UtilizationReport`.

    ``cluster`` supplies static capacities (core counts, line rate); it
    is the :class:`~repro.cluster.machine.Cluster` of the traced run.
    """
    registry = observer.metrics
    report = UtilizationReport(makespan=makespan, head_threads=head_threads)
    span = makespan if makespan > 0 else max(
        (s.end for s in observer.spans), default=0.0
    )
    bandwidth = cluster.network.spec.bandwidth

    for name in sorted(registry.gauges):
        gauge = registry.gauges[name]
        if name.startswith("link."):
            src_text, _, dst_text = name[len("link."):].partition("->")
            nbytes = observer.counters.get(f"{name}.bytes", 0.0)
            report.links.append(
                LinkUsage(
                    src=int(src_text),
                    dst=int(dst_text),
                    nbytes=nbytes,
                    busy_fraction=gauge.busy_fraction(0.0, span),
                    occupancy=(
                        nbytes / (span * bandwidth) if span > 0 else 0.0
                    ),
                )
            )
        elif name.endswith(".cpu_busy"):
            cores = cluster.node(gauge.node).spec.cores
            avg = gauge.time_average(0.0, span)
            report.nodes.append(
                NodeUsage(gauge.node, cores, avg, avg / cores)
            )
        elif name.endswith(".evq"):
            report.queues.append(
                (gauge.node, gauge.time_average(0.0, span), gauge.maximum())
            )
        elif name.endswith(".mem.resident_bytes"):
            report.mem_peaks.append((gauge.node, gauge.maximum()))
        elif name == "jobs.queue_depth":
            report.jobs_queue_avg = gauge.time_average(0.0, span)
            report.jobs_queue_max = gauge.maximum()
        elif name == "head.inflight":
            report.head_inflight_avg = gauge.time_average(0.0, span)
            report.head_inflight_max = gauge.maximum()

    report.counters = dict(sorted(observer.snapshot().items()))
    return report


def _fmt_bytes(nbytes: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(nbytes) < 1024.0 or unit == "GiB":
            return f"{nbytes:.1f} {unit}" if unit != "B" else f"{nbytes:.0f} B"
        nbytes /= 1024.0
    raise AssertionError("unreachable")


def format_utilization(report: UtilizationReport) -> str:
    """Render the report as the aligned table the trace CLI prints."""
    lines = [f"== utilization (makespan {report.makespan * 1e3:.3f} ms) =="]

    if report.links:
        lines.append("")
        lines.append(f"{'link':<10}{'bytes':>12}{'busy %':>9}{'occupancy %':>13}")
        for link in report.links:
            lines.append(
                f"{f'{link.src}->{link.dst}':<10}"
                f"{_fmt_bytes(link.nbytes):>12}"
                f"{link.busy_fraction * 100:>9.1f}"
                f"{link.occupancy * 100:>13.2f}"
            )

    if report.nodes:
        lines.append("")
        lines.append(f"{'node':<10}{'cores':>6}{'avg busy':>10}{'occupancy %':>13}")
        for node in report.nodes:
            lines.append(
                f"{f'node{node.node}':<10}{node.cores:>6}"
                f"{node.avg_busy:>10.2f}{node.occupancy * 100:>13.2f}"
            )

    slots = f" of {report.head_threads}" if report.head_threads else ""
    lines.append("")
    lines.append(
        f"head in-flight slots: avg {report.head_inflight_avg:.2f}, "
        f"max {report.head_inflight_max:.0f}{slots}"
    )
    for node, avg, peak in report.queues:
        lines.append(
            f"event queue node{node}: avg depth {avg:.2f}, max {peak:.0f}"
        )

    if report.mem_peaks:
        lines.append("")
        lines.append(f"{'node':<10}{'peak device memory':>20}")
        for node, peak in report.mem_peaks:
            lines.append(f"{f'node{node}':<10}{_fmt_bytes(peak):>20}")

    jobs = {
        name[len("jobs."):]: value
        for name, value in report.counters.items()
        if name.startswith("jobs.")
    }
    if jobs:
        lines.append("")
        lines.append(
            "jobs: "
            f"{jobs.get('submitted', 0):.0f} submitted, "
            f"{jobs.get('completed', 0):.0f} completed, "
            f"{jobs.get('failed', 0):.0f} failed, "
            f"{jobs.get('requeued', 0):.0f} requeued, "
            f"{jobs.get('backfilled', 0):.0f} backfilled; "
            f"queue depth avg {report.jobs_queue_avg:.2f}, "
            f"max {report.jobs_queue_max:.0f}"
        )

    mem = {
        name[len("mem."):]: value
        for name, value in report.counters.items()
        if name.startswith("mem.")
    }
    if mem:
        hits = mem.get("hit", 0)
        misses = mem.get("miss", 0)
        total = hits + misses
        rate = f", hit rate {hits / total * 100:.1f}%" if total else ""
        lines.append("")
        lines.append(
            "memory tiering: "
            f"{hits:.0f} device hits, {misses:.0f} misses{rate}; "
            f"{mem.get('evict', 0):.0f} evictions "
            f"({_fmt_bytes(mem.get('spill_bytes', 0))} spilled to host), "
            f"{mem.get('fetch_retries', 0):.0f} fetch retries"
        )

    hb = {
        name[len("hb."):]: value
        for name, value in report.counters.items()
        if name.startswith("hb.")
    }
    if hb:
        lines.append("")
        lines.append(
            "heartbeat health: "
            f"{hb.get('missed_windows', 0):.0f} missed windows, "
            f"{hb.get('suspect_reports', 0):.0f} suspicions "
            f"({hb.get('suspicions_cleared', 0):.0f} cleared, "
            f"{hb.get('false_positives', 0):.0f} false positives), "
            f"{hb.get('detections', 0):.0f} confirmed detections"
        )

    if report.counters:
        lines.append("")
        lines.append("counters:")
        for name, value in report.counters.items():
            rendered = f"{value:.0f}" if float(value).is_integer() else f"{value:g}"
            lines.append(f"  {name} = {rendered}")
    return "\n".join(lines)
