"""The reference Awave time step: the oracle of the FD kernel tests.

:class:`repro.apps.awave.solver.AcousticSolver2D` steps raveled fields
with contiguous 1-D ufuncs into buffers allocated once per propagation.
It promises exactly the fields of the plain 2-D array expressions kept
here: one new Laplacian grid and a handful of temporaries per timestep,
the x terms on strided column slices.  The tests compare records,
snapshots and images with ``tobytes()`` — not approximately — so any
float that differs in its last bit fails them.
"""

from __future__ import annotations

import numpy as np

from repro.apps.awave.models import VelocityModel
from repro.apps.awave.rtm import RtmConfig
from repro.apps.awave.solver import (
    _C0,
    _C1,
    _C2,
    AcousticSolver2D,
    ShotRecord,
    ricker_wavelet,
)


class ReferenceSolver2D(AcousticSolver2D):
    """The solver with the per-timestep 2-D array expressions."""

    def _laplacian(self, p: np.ndarray) -> np.ndarray:
        """2-D Laplacian: 4th-order interior, 2nd-order beside edges.

        The outermost ring stays zero (Dirichlet p = 0), which models a
        pressure-free surface at the top; the sponge taper absorbs the
        other sides.  Grid spacing is folded into ``_v2dt2``.
        """
        lap = np.zeros_like(p)
        # z-direction: 2nd-order one cell in, 4th-order further inside.
        lap[1:-1, :] = p[:-2, :] - 2.0 * p[1:-1, :] + p[2:, :]
        lap[2:-2, :] = (
            _C0 * p[2:-2, :]
            + _C1 * (p[1:-3, :] + p[3:-1, :])
            + _C2 * (p[:-4, :] + p[4:, :])
        )
        # x-direction, accumulated on top of the z terms.
        lap[:, 1:-1] += p[:, :-2] - 2.0 * p[:, 1:-1] + p[:, 2:]
        lap[:, 2:-2] += (
            (_C0 + 2.0) * p[:, 2:-2]
            + (_C1 - 1.0) * (p[:, 1:-3] + p[:, 3:-1])
            + _C2 * (p[:, :-4] + p[:, 4:])
        )
        return lap

    def propagate(
        self,
        source_iz: int,
        source_ix: int,
        wavelet: np.ndarray,
        receiver_ix: np.ndarray | None = None,
        receiver_iz: int = 1,
        snapshot_every: int = 0,
    ) -> tuple[ShotRecord | None, list[np.ndarray]]:
        """Run ``len(wavelet)`` timesteps injecting ``wavelet`` at the source.

        Returns the shot record (if receivers given) and the list of
        snapshots (every ``snapshot_every`` steps, if nonzero).
        """
        nz, nx = self.model.vp.shape
        if not (0 <= source_iz < nz and 0 <= source_ix < nx):
            raise ValueError("source position outside the grid")
        prev = np.zeros((nz, nx))
        curr = np.zeros((nz, nx))
        snapshots: list[np.ndarray] = []
        record = None
        if receiver_ix is not None:
            record = np.zeros((len(wavelet), len(receiver_ix)))

        for it, amp in enumerate(wavelet):
            nxt = 2.0 * curr - prev + self._v2dt2 * self._laplacian(curr)
            nxt[source_iz, source_ix] += amp * self.dt**2
            nxt *= self._taper
            prev, curr = curr, nxt
            if record is not None:
                record[it] = curr[receiver_iz, receiver_ix]
            if snapshot_every and (it + 1) % snapshot_every == 0:
                snapshots.append(curr.copy())

        shot = (
            ShotRecord(record, np.asarray(receiver_ix), self.dt)
            if record is not None
            else None
        )
        return shot, snapshots

    def propagate_adjoint(
        self,
        record: ShotRecord,
        receiver_iz: int = 1,
        snapshot_every: int = 0,
    ) -> list[np.ndarray]:
        """Back-propagate receiver data (time-reversed injection).

        Snapshots are taken on the same stride as the forward pass and
        returned in *forward* time order so they align with forward
        snapshots for the imaging condition.
        """
        nz, nx = self.model.vp.shape
        nt = record.data.shape[0]
        prev = np.zeros((nz, nx))
        curr = np.zeros((nz, nx))
        snapshots: list[np.ndarray] = []
        for it in range(nt - 1, -1, -1):
            nxt = 2.0 * curr - prev + self._v2dt2 * self._laplacian(curr)
            nxt[receiver_iz, record.receiver_ix] += record.data[it] * self.dt**2
            nxt *= self._taper
            prev, curr = curr, nxt
            # Same stride/phase as the forward pass so snapshot i of both
            # passes refers to the same physical time.
            if snapshot_every and (it + 1) % snapshot_every == 0:
                snapshots.append(curr.copy())
        snapshots.reverse()
        return snapshots


def migrate_shot(
    true_model: VelocityModel,
    migration_model: VelocityModel,
    source_ix: int,
    config: RtmConfig,
) -> np.ndarray:
    """One shot's RTM image through :class:`ReferenceSolver2D`."""
    receivers = np.arange(2, true_model.nx - 2, config.receiver_spacing)
    dt = min(
        ReferenceSolver2D(true_model).dt, ReferenceSolver2D(migration_model).dt
    )
    wavelet = ricker_wavelet(config.f0, dt, config.nt)

    # 1. Synthesize observed data in the true model.
    true_solver = ReferenceSolver2D(true_model, dt=dt)
    record, _ = true_solver.propagate(
        config.source_depth, source_ix, wavelet, receiver_ix=receivers
    )
    assert record is not None

    # 2. Source wavefield in the migration model (down-going).
    mig_solver = ReferenceSolver2D(migration_model, dt=dt)
    _, src_snaps = mig_solver.propagate(
        config.source_depth,
        source_ix,
        wavelet,
        snapshot_every=config.snapshot_every,
    )

    # 3. Receiver wavefield back-propagated (up-going), then correlate.
    rcv_snaps = mig_solver.propagate_adjoint(
        record, snapshot_every=config.snapshot_every
    )
    image = np.zeros_like(true_model.vp)
    for s, r in zip(src_snaps, rcv_snaps):
        image += s * r
    return image
