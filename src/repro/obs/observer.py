"""The observability core: one recorder per run, in two tiers.

Every :class:`~repro.cluster.machine.Cluster` (and every
:class:`~repro.cluster.partition.ClusterView`) carries exactly one
observer, threaded through every layer of a run.  The simulator clock
is read, never advanced, so instrumentation charges **zero simulated
time**.  The observer records in two tiers:

* **counters** — always on.  :meth:`Observer.count` adds to
  :attr:`Observer.counters`, a plain ``dict`` of floats; a run's
  ``result.counters`` is :meth:`Observer.snapshot`.  Hot paths may grab
  the dict once and increment it directly.

* **spans and gauges** — the traced tier, recorded only when
  ``OMPCConfig.trace`` is on (:attr:`Observer.enabled`).  Spans are
  closed intervals on a ``(node, category)`` lane.  The span taxonomy
  (see DESIGN.md):

  ========  ======================================================
  category  what its spans cover
  ========  ======================================================
  ``task``  target-task lifecycle: ``wait-slot``, ``fetch``,
            ``execute``, ``commit`` (head-side orchestration) and
            ``kernel`` (worker-side compute, incl. GPU staging)
  ``mpi``   point-to-point messages: ``send``/``recv``/``ack``
            (one span per transmission attempt under the reliable
            transport, with ``attempt``/``dropped`` args)
  ``sched``  runtime phases: ``startup``, ``task-creation``,
            ``heft``, ``shutdown`` (the Fig. 7a breakdown)
  ``data``  data-manager traffic: per-buffer ``move`` and
            ``delete`` operations
  ``ompc``  event-system internals: per-event handler spans and
            the first-event lazy-initialization interval
  ========  ======================================================

  A send span carries ``flow_phase="s"`` and its matching receive
  instant ``flow_phase="f"`` under one ``flow_id``; the exporter turns
  the pair into a Perfetto arrow from sender lane to receiver lane.
  Gauges are exact step functions of simulated time on the attached
  :class:`~repro.obs.metrics.MetricsRegistry`.

An untraced cluster carries a :class:`NullObserver`: its counters are
live, every span and gauge method is a no-op, so instrumented hot paths
cost a handful of dead calls and nothing else.  A traced run installs
a full :class:`Observer` in its place, which takes over the counters
recorded so far.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry

#: The span categories the exporter and report know about, in lane order.
CATEGORIES = ("task", "sched", "data", "mpi", "ompc", "job")

#: Counter-name prefixes :meth:`Observer.snapshot` keeps out of a run's
#: ``result.counters``.
_UNREPORTED = ("link.", "ompc.first_event_interval")


@dataclass(frozen=True)
class ObsSpan:
    """A closed interval on one node's timeline."""

    cat: str
    name: str
    node: int
    start: float
    end: float
    args: tuple = ()
    #: Flow-arrow linkage: spans sharing a ``flow_id`` are connected
    #: ``"s"`` (origin) → ``"f"`` (terminus) by the exporter.
    flow_id: int | None = None
    flow_phase: str | None = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _OpenObsSpan:
    """Mutable handle between :meth:`Observer.begin` and ``end``."""

    cat: str
    name: str
    node: int
    start: float
    args: dict


class Observer:
    """Collects the counters, spans and gauges of one simulation run."""

    #: Whether the span/gauge tier records (the counter tier always does).
    enabled = True

    def __init__(self, sim):
        self.sim = sim
        #: The always-on counter tier.
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.spans: list[ObsSpan] = []
        self.metrics = MetricsRegistry()
        self._flow_ids = itertools.count(1)

    # -- counters ---------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def snapshot(self) -> dict[str, float]:
        """The counters a run reports as ``result.counters``.

        Leaves out the per-link byte totals (recorded only when tracing)
        and the first-event interval (a Fig. 7a duration, not a count),
        so a run reports the same counters traced or not.
        """
        return {
            name: value for name, value in self.counters.items()
            if not name.startswith(_UNREPORTED)
        }

    # -- spans ----------------------------------------------------------
    def span(
        self,
        cat: str,
        name: str,
        node: int,
        start: float,
        end: float,
        flow_id: int | None = None,
        flow_phase: str | None = None,
        **args: Any,
    ) -> ObsSpan:
        span = ObsSpan(
            cat, name, node, start, end,
            tuple(sorted(args.items())), flow_id, flow_phase,
        )
        self.spans.append(span)
        return span

    def begin(self, cat: str, name: str, node: int, **args: Any) -> _OpenObsSpan:
        return _OpenObsSpan(cat, name, node, self.sim.now, args)

    def end(
        self,
        open_span: _OpenObsSpan | None,
        flow_id: int | None = None,
        flow_phase: str | None = None,
        **args: Any,
    ) -> ObsSpan | None:
        """Close ``open_span`` at the current time (``None`` is a no-op,
        so call sites may conditionally skip :meth:`begin`)."""
        if open_span is None:
            return None
        merged = dict(open_span.args, **args) if args else open_span.args
        return self.span(
            open_span.cat, open_span.name, open_span.node,
            open_span.start, self.sim.now,
            flow_id=flow_id, flow_phase=flow_phase, **merged,
        )

    def instant(
        self,
        cat: str,
        name: str,
        node: int,
        flow_id: int | None = None,
        flow_phase: str | None = None,
        **args: Any,
    ) -> ObsSpan:
        """A zero-duration span marking one point in time."""
        now = self.sim.now
        return self.span(cat, name, node, now, now, flow_id, flow_phase, **args)

    def new_flow(self) -> int:
        """Allocate a fresh flow id for a send→receive arrow pair."""
        return next(self._flow_ids)

    # -- gauges -----------------------------------------------------------
    def gauge_set(self, name: str, value: float, node: int = 0) -> None:
        self.metrics.gauge(name, node).set(self.sim.now, value)

    def gauge_add(self, name: str, delta: float, node: int = 0) -> None:
        self.metrics.gauge(name, node).add(self.sim.now, delta)

    # -- queries ----------------------------------------------------------
    def find(
        self, cat: str | None = None, name: str | None = None,
        node: int | None = None,
    ) -> Iterator[ObsSpan]:
        for span in self.spans:
            if cat is not None and span.cat != cat:
                continue
            if name is not None and span.name != name:
                continue
            if node is not None and span.node != node:
                continue
            yield span

    def categories(self) -> set[str]:
        return {span.cat for span in self.spans}


class NullObserver(Observer):
    """The observer of an untraced run: counters only.

    Every span and gauge method returns immediately, so instrumented
    code needs no ``if traced:`` guards on simple calls (sites that
    would *build* expensive arguments should still check
    :attr:`enabled`).  Queries see no spans and no gauges.
    """

    enabled = False

    def span(self, *args: Any, **kwargs: Any) -> None:
        return None

    begin = end = instant = gauge_set = gauge_add = span

    def new_flow(self) -> int:
        return 0
