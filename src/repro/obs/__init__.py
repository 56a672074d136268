"""repro.obs — the unified observability layer.

One :class:`Observer` threads through the simulator, the MPI transport,
the network fabric, the event system, and the OMPC runtime.  Its
counters are always on; with ``OMPCConfig(trace=True)`` it also
collects structured lifecycle spans (task / mpi / sched / data / ompc
categories), message flow arrows, and time-series utilization gauges —
all in simulated time at zero simulated cost.  Export traces via
:func:`~repro.obs.exporter.to_chrome_trace` or summarize with
:func:`~repro.obs.report.utilization_summary`; or drive everything from
the CLI: ``python -m repro.bench trace <scenario> --out trace.json``.
"""

from repro.obs.exporter import pack_lanes, to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.observer import (
    CATEGORIES,
    NullObserver,
    Observer,
    ObsSpan,
)
from repro.obs.report import (
    LinkUsage,
    NodeUsage,
    UtilizationReport,
    format_utilization,
    utilization_summary,
)

__all__ = [
    "CATEGORIES",
    "Gauge",
    "LinkUsage",
    "MetricsRegistry",
    "NodeUsage",
    "NullObserver",
    "ObsSpan",
    "Observer",
    "UtilizationReport",
    "format_utilization",
    "pack_lanes",
    "to_chrome_trace",
    "utilization_summary",
    "validate_chrome_trace",
]
