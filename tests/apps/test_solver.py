"""Tests for the acoustic FD solver: stability, physics sanity."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.apps.awave import AcousticSolver2D, VelocityModel, ricker_wavelet
from repro.apps.awave.solver import ShotRecord, stable_dt


def homogeneous(v=2000.0, nz=60, nx=60, dx=10.0):
    return VelocityModel("homo", np.full((nz, nx), v), dx)


class TestRickerWavelet:
    def test_shape_and_peak(self):
        w = ricker_wavelet(f0=15.0, dt=1e-3, nt=200)
        assert w.shape == (200,)
        assert w.max() == pytest.approx(1.0, abs=1e-6)

    def test_zero_mean_tail(self):
        w = ricker_wavelet(f0=20.0, dt=1e-3, nt=400)
        assert abs(w[-1]) < 1e-8  # decayed to nothing

    def test_validation(self):
        with pytest.raises(ValueError):
            ricker_wavelet(0.0, 1e-3, 100)
        with pytest.raises(ValueError):
            ricker_wavelet(10.0, 1e-3, 0)


class TestStability:
    def test_stable_dt_formula(self):
        m = homogeneous(v=4000.0, dx=10.0)
        assert stable_dt(m) == pytest.approx(0.5 * 10.0 / 4000.0)

    def test_dt_above_cfl_rejected(self):
        m = homogeneous()
        with pytest.raises(ValueError, match="CFL"):
            AcousticSolver2D(m, dt=stable_dt(m) * 2)

    def test_field_stays_bounded(self):
        m = homogeneous()
        solver = AcousticSolver2D(m)
        w = ricker_wavelet(15.0, solver.dt, 300)
        _, snaps = solver.propagate(5, 30, w, snapshot_every=50)
        for s in snaps:
            assert np.isfinite(s).all()
            assert np.abs(s).max() < 1e3


class TestPhysics:
    def test_wave_propagates_at_model_velocity(self):
        v, dx = 2000.0, 10.0
        m = homogeneous(v=v, nz=100, nx=100, dx=dx)
        solver = AcousticSolver2D(m, sponge_cells=0)
        nt = 100  # keep the wavefront well inside the grid
        w = ricker_wavelet(15.0, solver.dt, nt)
        _, snaps = solver.propagate(50, 50, w, snapshot_every=nt)
        field = np.abs(snaps[-1])
        # Expected radius of the wavefront at t = nt*dt (minus the
        # source delay t0 = 1.5/f0).
        t = nt * solver.dt - 1.5 / 15.0
        expected_radius = v * t / dx
        # Center of energy ring: find the radius of maximum energy.
        zz, xx = np.mgrid[0:100, 0:100]
        r = np.hypot(zz - 50, xx - 50).round().astype(int)
        energy_at_r = np.bincount(r.ravel(), weights=(field**2).ravel())
        peak_radius = int(np.argmax(energy_at_r[:45]))
        assert peak_radius == pytest.approx(expected_radius, abs=4)

    def test_sponge_absorbs_energy(self):
        m = homogeneous(nz=80, nx=80)
        sponged = AcousticSolver2D(m, sponge_cells=20)
        hard = AcousticSolver2D(m, sponge_cells=0)
        nt = 500  # long enough for the wave to hit the boundary
        w = ricker_wavelet(15.0, sponged.dt, nt)
        _, snaps_s = sponged.propagate(40, 40, w, snapshot_every=nt)
        _, snaps_h = hard.propagate(40, 40, w, snapshot_every=nt)
        assert (snaps_s[-1] ** 2).sum() < 0.5 * (snaps_h[-1] ** 2).sum()

    def test_receivers_record_arrival(self):
        v, dx = 2000.0, 10.0
        # 81 columns: the grid (and its sponges) is mirror-symmetric
        # about the source column 40.
        m = homogeneous(v=v, nz=80, nx=81, dx=dx)
        solver = AcousticSolver2D(m)
        nt = 400
        w = ricker_wavelet(15.0, solver.dt, nt)
        receivers = np.array([25, 55])
        record, _ = solver.propagate(40, 40, w, receiver_ix=receivers)
        assert record is not None
        np.testing.assert_allclose(
            record.data[:, 0], record.data[:, 1], atol=1e-12
        )
        assert np.abs(record.data).max() > 0

    def test_source_position_validated(self):
        solver = AcousticSolver2D(homogeneous())
        with pytest.raises(ValueError):
            solver.propagate(500, 0, np.zeros(10))

    def test_negative_receiver_index_rejected(self):
        solver = AcousticSolver2D(homogeneous())
        with pytest.raises(ValueError, match="receiver"):
            solver.propagate(5, 5, np.zeros(10), receiver_ix=[-1, 5])

    def test_receiver_index_past_the_grid_rejected(self):
        solver = AcousticSolver2D(homogeneous(nx=60))
        with pytest.raises(ValueError, match="receiver"):
            solver.propagate(5, 5, np.zeros(10), receiver_ix=[5, 60])

    def test_receiver_depth_validated(self):
        solver = AcousticSolver2D(homogeneous(nz=60))
        with pytest.raises(ValueError, match="receiver"):
            solver.propagate(5, 5, np.zeros(10), receiver_ix=[5],
                             receiver_iz=60)


class TestSpongeFit:
    def test_sponge_wider_than_the_grid_is_named(self):
        with pytest.raises(ValueError, match=r"sponge_cells=20 .* 10 x 60"):
            AcousticSolver2D(homogeneous(nz=10, nx=60))
        with pytest.raises(ValueError, match=r"sponge_cells=21 .* 60 x 20"):
            AcousticSolver2D(homogeneous(nz=60, nx=20), sponge_cells=21)

    def test_sponge_as_wide_as_the_grid_still_builds(self):
        solver = AcousticSolver2D(homogeneous(nz=20, nx=20), sponge_cells=20)
        assert solver._taper.shape == (20, 20)


class TestAdjoint:
    def test_snapshots_align_with_forward(self):
        m = homogeneous(nz=50, nx=50)
        solver = AcousticSolver2D(m)
        nt, every = 120, 10
        w = ricker_wavelet(20.0, solver.dt, nt)
        receivers = np.arange(5, 45, 5)
        record, fwd = solver.propagate(
            5, 25, w, receiver_ix=receivers, snapshot_every=every
        )
        bwd = solver.propagate_adjoint(record, snapshot_every=every)
        assert len(fwd) == len(bwd) == nt // every
        assert all(b.shape == (50, 50) for b in bwd)

    def test_receiver_positions_validated(self):
        solver = AcousticSolver2D(homogeneous(nz=50, nx=50))
        record = ShotRecord(np.zeros((10, 2)), np.array([5, 50]), solver.dt)
        with pytest.raises(ValueError, match="receiver"):
            solver.propagate_adjoint(record)
        record = ShotRecord(np.zeros((10, 1)), np.array([5]), solver.dt)
        with pytest.raises(ValueError, match="receiver"):
            solver.propagate_adjoint(record, receiver_iz=-1)

    def test_record_with_another_dt_rejected(self):
        solver = AcousticSolver2D(homogeneous(nz=50, nx=50))
        record = ShotRecord(np.zeros((10, 1)), np.array([5]), solver.dt / 2)
        with pytest.raises(ValueError, match="dt"):
            solver.propagate_adjoint(record)


class TestSharedSolver:
    def test_threads_sharing_a_solver_get_the_serial_fields(self):
        # Buffers live per call, so interleaved propagations on one
        # solver (more threads than cores, fast switching) must not mix.
        solver = AcousticSolver2D(homogeneous(nz=40, nx=40))
        w = ricker_wavelet(20.0, solver.dt, 150)
        sources = [(5, 10), (20, 30), (10, 20), (30, 5)] * 2

        def fields(src):
            return [s.tobytes()
                    for s in solver.propagate(*src, w, snapshot_every=15)[1]]

        serial = [fields(src) for src in sources]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fields, src) for src in sources]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
