"""Analysis threaded through the full simulator (acceptance tests)."""

import dataclasses

import numpy as np

from repro.analysis import demo_program
from repro.analysis.findings import Severity
from repro.cluster import ClusterSpec
from repro.core.faults import FaultTolerantRuntime, NodeFailure
from repro.core.runtime import OMPCRuntime
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_inout, depend_out

from tests.test_util import FAST


def run(program, **config_overrides):
    config = dataclasses.replace(FAST, **config_overrides)
    return OMPCRuntime(ClusterSpec(num_nodes=4), config).run(program)


class TestAcceptance:
    def test_racy_demo_reports_exactly_the_missing_clause(self):
        result = run(demo_program(racy=True), analysis=True)
        report = result.analysis
        assert report is not None
        races = report.by_rule("missing-dep-race")
        assert len(races) == 1
        assert len(report) == 1  # zero false positives
        (race,) = races
        assert race.severity == Severity.ERROR
        assert race.tasks == ("reader", "writer")
        assert race.buffer == "B"
        assert report.has_errors

    def test_clean_demo_is_silent(self):
        result = run(demo_program(racy=False), analysis=True)
        assert result.analysis is not None
        assert len(result.analysis) == 0
        assert not result.analysis.has_errors

    def test_analysis_never_perturbs_the_simulation(self):
        # Bit-identical timing and traffic with the analyzers on/off.
        on = run(demo_program(racy=True), analysis=True)
        off = run(demo_program(racy=True), analysis=False)
        assert on.makespan == off.makespan
        assert on.network_bytes == off.network_bytes
        assert on.network_messages == off.network_messages
        assert off.analysis is None

    def test_obs_counters_emitted(self):
        result = run(demo_program(racy=True), analysis=True, trace=True)
        counters = result.obs.counters
        assert counters["analysis.findings"] == 1.0
        assert counters["analysis.findings.error"] == 1.0
        assert counters["analysis.findings.race"] == 1.0
        assert counters["analysis.race.accesses"] > 0
        assert counters["analysis.mpi.tracked_requests"] > 0

    def test_host_read_of_a_device_write_is_stale(self):
        result = run(host_read_program(exit_first=False), analysis=True)
        report = result.analysis
        assert len(report) == 1
        (stale,) = report.by_rule("stale-host-read")
        assert stale.tasks == ("reader",)
        assert stale.buffer == "B"

    def test_host_read_after_exit_data_is_clean(self):
        result = run(host_read_program(exit_first=True), analysis=True)
        assert len(result.analysis) == 0


def host_read_program(exit_first):
    # A target writes B on a worker, then the classical ``reader`` reads
    # B on the host: stale unless ``target exit data`` retrieves B first.
    prog = OmpProgram("host-read")
    b = prog.buffer(nbytes=1 << 20, name="B")
    prog.target_enter_data(b)
    prog.target(depend=[depend_inout(b)], cost=1e-3, name="writer")
    if exit_first:
        prog.target_exit_data(b)
    prog.task(depend=[depend_in(b)], cost=1e-3, name="reader")
    if not exit_first:
        prog.target_exit_data(b)
    return prog


def shots_program(num_shots=4, cost=0.05):
    prog = OmpProgram("shots")
    model = np.arange(16.0)
    model_buf = prog.buffer(model.nbytes, data=model, name="model")
    prog.target_enter_data(model_buf)
    out_bufs = []
    for i in range(num_shots):
        out = np.zeros(16)
        buf = prog.buffer(out.nbytes, data=out, name=f"out{i}")
        out_bufs.append(buf)
        prog.target(
            fn=lambda m, o: np.copyto(o, m * 2.0),
            depend=[depend_in(model_buf), depend_out(buf)],
            cost=cost,
            name=f"shot{i}",
        )
    prog.target_exit_data(*out_bufs)
    return prog


class TestFaultTolerantRuntimeAnalysis:
    def test_clean_ft_run_has_no_findings(self):
        # Heartbeats, pings, and datagram traffic must all be excluded
        # (service communicators); a clean run reports nothing.
        config = dataclasses.replace(FAST, analysis=True)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), config)
        result = rt.run(shots_program())
        assert result.analysis is not None
        assert len(result.analysis) == 0

    def test_recovery_reexecution_is_not_a_race(self):
        # A worker dies mid-run; tasks re-execute on survivors.  The
        # re-executions are system work (stale ctx tokens) and must not
        # manufacture race reports, and traffic stranded by the crash
        # must not show up as unmatched messages.
        config = dataclasses.replace(FAST, analysis=True)
        rt = FaultTolerantRuntime(ClusterSpec(num_nodes=5), config)
        result = rt.run(
            shots_program(cost=0.1),
            failures=[NodeFailure(time=0.05, node=1)],
        )
        assert result.failures == [1]
        assert result.analysis is not None
        assert result.analysis.by_rule("missing-dep-race") == []
        assert not result.analysis.has_errors
