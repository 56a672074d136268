"""The runtime-facing analysis facade.

The simulator never talks to the individual analyzers — it holds one
:class:`Analysis` (or the no-op :data:`NULL_ANALYSIS`) installed on the
cluster via ``cluster.install_analysis``, mirroring the
``Observer`` / ``NullObserver`` pattern in :mod:`repro.obs`.  Every
hook is a plain (non-yielding) call, so enabling analysis never
advances simulated time.
"""

from __future__ import annotations

from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.lint import lint_program
from repro.analysis.mpicheck import MpiChecker
from repro.analysis.race import RaceDetector


class Analysis:
    """Umbrella over the three analyzers, sharing one report."""

    enabled = True

    def __init__(self):
        self.race = RaceDetector()
        self.mpi = MpiChecker()
        self.report = AnalysisReport()
        self._finalized = False

    # -- program / task lifecycle (delegated to the race detector) ---------
    def program_begin(self, program) -> None:
        self.report.program = getattr(program, "name", "") or ""
        self.report.extend(lint_program(program))
        self.race.program_begin(program)

    def task_begin(self, task) -> None:
        self.race.task_begin(task)

    def task_end(self, task) -> None:
        self.race.task_end(task)

    def ctx_token(self, task) -> int | None:
        return self.race.ctx_token(task)

    # -- access recording --------------------------------------------------
    def on_kernel(self, task, node: int, token: int | None) -> None:
        self.race.kernel(task, node, token)

    def on_host_task(self, task, dm) -> None:
        self.race.host_task(task, dm)

    def on_move(self, task, buffer) -> None:
        self.race.movement(task, buffer)

    def on_mapped(self, buffer) -> None:
        self.race.mapped(buffer)

    def check_mapped(self, task, buffer) -> None:
        self.race.check_mapped(task, buffer)

    # -- finalize ----------------------------------------------------------
    def finalize(self, worlds=(), failed=frozenset(),
                 obs=None) -> AnalysisReport:
        """Close out both dynamic analyzers; idempotent."""
        if not self._finalized:
            self._finalized = True
            self.report.extend(self.race.finalize())
            self.report.extend(self.mpi.finalize(worlds, failed))
            if obs is not None and obs.enabled:
                obs.count("analysis.findings", float(len(self.report)))
                for sev in Severity:
                    obs.count(f"analysis.findings.{sev.name.lower()}",
                              float(self.report.count(sev)))
                for analyzer in ("race", "mpi", "lint"):
                    obs.count(f"analysis.findings.{analyzer}",
                              float(len(self.report.by_analyzer(analyzer))))
                obs.count("analysis.race.accesses",
                          float(self.race.recorded_accesses))
                obs.count("analysis.mpi.tracked_requests",
                          float(self.mpi.stats.tracked_requests))
        return self.report


class _NullMpiChecker:
    """No-op stand-in so ``analysis.mpi.on_isend(...)`` is always safe."""

    __slots__ = ()

    def register_comm(self, comm_id, service):
        pass

    def is_service(self, comm_id):
        return False

    def on_isend(self, request, comm_id, src, dst, tag):
        pass

    def on_irecv(self, request, comm_id, dst, src, tag):
        pass


class NullAnalysis:
    """Does nothing, cheaply; the default on every cluster."""

    __slots__ = ()

    enabled = False
    mpi = _NullMpiChecker()

    def program_begin(self, program):
        pass

    def task_begin(self, task):
        pass

    def task_end(self, task):
        pass

    def ctx_token(self, task):
        return None

    def on_kernel(self, task, node, token):
        pass

    def on_host_task(self, task, dm):
        pass

    def on_move(self, task, buffer):
        pass

    def on_mapped(self, buffer):
        pass

    def check_mapped(self, task, buffer):
        pass

    def finalize(self, worlds=(), failed=frozenset(), obs=None):
        return AnalysisReport()


NULL_ANALYSIS = NullAnalysis()
