"""The perf subcommand: kernel-trajectory emission and regression check."""

from __future__ import annotations

import json

from repro.bench.perfcmd import (
    KERNEL_SCHEMA,
    PR6_BASELINE,
    SCHEMA,
    check_baseline,
    main,
    throughput_regression,
)


def _emit_quick(tmp_path):
    jobs = tmp_path / "BENCH_jobs.json"
    kernel = tmp_path / "BENCH_kernel.json"
    assert main([
        "--quick", "--out", str(jobs), "--kernel-out", str(kernel),
    ]) == 0
    return jobs, kernel


def test_quick_run_emits_both_schemas(tmp_path):
    jobs, kernel = _emit_quick(tmp_path)
    jp = json.loads(jobs.read_text())
    assert jp["schema"] == SCHEMA
    assert len(jp["cells"]) >= 4
    kp = json.loads(kernel.read_text())
    assert kp["schema"] == KERNEL_SCHEMA
    assert kp["calib_mops"] > 0
    assert kp["baseline_pr6"] == PR6_BASELINE
    names = {c["name"] for c in kp["cells"]}
    assert {"fig5_stencil_1d_n4_q", "fig5_stencil_1d_n8_q",
            "jobs_backfill_q", "jobs_overload_q"} <= names
    for cell in kp["cells"]:
        assert cell["events"] > 0
        assert cell["wall_s"] > 0
        assert cell["makespan_s"] > 0


def test_check_accepts_its_own_baseline(tmp_path):
    # A lenient throughput threshold keeps this deterministic under
    # background load — the exact-match events/makespan path and the
    # check plumbing are what this test pins; the strict 30% guard is
    # covered synthetically below.
    _jobs, kernel = _emit_quick(tmp_path)
    assert check_baseline(kernel, regression=0.95) == 0


def test_check_fails_on_throughput_regression(tmp_path, capsys):
    # Synthetic: shrink the recorded walls so even a fast replay looks
    # like a >30% normalized regression — exercises the guard without
    # depending on wall-clock stability.
    _jobs, kernel = _emit_quick(tmp_path)
    payload = json.loads(kernel.read_text())
    for cell in payload["cells"]:
        cell["wall_s"] /= 1000.0
    kernel.write_text(json.dumps(payload))
    assert check_baseline(kernel) == 1
    assert "normalized equal-work throughput" in capsys.readouterr().out


def test_throughput_guard_prices_equal_work():
    # A change that deletes events and gets faster: raw events/s falls
    # (6206 / 0.024 s = 259 k -> 4452 / 0.021 s = 212 k), but the same
    # simulated work takes less wall time, so the guard passes.
    old = {"name": "cell", "events": 6206, "wall_s": 0.024}
    faster = {"name": "cell", "events": 4452, "wall_s": 0.021}
    assert faster["events"] / faster["wall_s"] < (
        0.85 * old["events"] / old["wall_s"])
    assert throughput_regression(old, faster, 30.0, 30.0) is None
    # The same work taking 1.5x the wall is a regression; a host that
    # calibrates 1.5x slower excuses exactly that.
    slower = dict(faster, wall_s=0.036)
    assert "equal-work" in throughput_regression(old, slower, 30.0, 30.0)
    assert throughput_regression(old, slower, 30.0, 20.0) is None


def test_check_fails_on_event_count_drift(tmp_path, capsys):
    _jobs, kernel = _emit_quick(tmp_path)
    payload = json.loads(kernel.read_text())
    payload["cells"][0]["events"] += 1  # deterministic field: any drift fails
    kernel.write_text(json.dumps(payload))
    assert check_baseline(kernel) == 1
    assert "kernel regression" in capsys.readouterr().out


def test_check_fails_on_wrong_schema(tmp_path):
    _jobs, kernel = _emit_quick(tmp_path)
    payload = json.loads(kernel.read_text())
    payload["schema"] = "something-else/9"
    kernel.write_text(json.dumps(payload))
    assert check_baseline(kernel) == 1


def test_full_baseline_records_headline_cells():
    # The recorded PR 6 reference covers the scalability cells the
    # optimization targeted, including bench_fig5_scalability's own
    # 2n x 32 graphs.
    assert "fig5_stencil_1d_n64" in PR6_BASELINE
    assert "fig5bench_stencil_1d_n64" in PR6_BASELINE
    assert "fig5bench_fft_n64" in PR6_BASELINE
    for ref in PR6_BASELINE.values():
        assert ref["events"] > 0
        assert ref["wall_s"] > 0
