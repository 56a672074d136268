"""2-D acoustic finite-difference wave propagation.

Solves the constant-density acoustic wave equation

    ∂²p/∂t² = v² ∇²p + s(t) δ(x − xs)

with a 2nd-order time / 4th-order space explicit scheme on a regular
grid, plus a sponge absorbing layer on the sides and bottom (free
surface on top).  On raveled C-contiguous fields a z neighbour is a
shift of ±nx or ±2nx and an x neighbour one of ±1 or ±2, so each stencil
term is one contiguous 1-D ufunc into buffers made once per propagation.
x shifts wrap across row ends: the edge columns are saved before the x
pass and put back after it.  Exact-order rule: each element sees the
IEEE operations spelled out in ``_laplacian`` and ``_step``, in that
grouping, so fields are byte-identical to the plain 2-D expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.awave.models import VelocityModel

#: 4th-order centered second-derivative stencil coefficients.
_C0, _C1, _C2 = -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0

#: CFL stability factor for 2nd-order time / 4th-order space in 2-D.
CFL_FACTOR = 0.5


def ricker_wavelet(f0: float, dt: float, nt: int, t0: float | None = None) -> np.ndarray:
    """A Ricker (Mexican-hat) source wavelet with peak frequency ``f0``."""
    if f0 <= 0 or dt <= 0 or nt < 1:
        raise ValueError("f0, dt must be > 0 and nt >= 1")
    if t0 is None:
        t0 = 1.5 / f0  # delay so the wavelet starts near zero
    t = np.arange(nt) * dt - t0
    arg = (np.pi * f0 * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def stable_dt(model: VelocityModel) -> float:
    """Largest stable timestep for the scheme on this model."""
    return CFL_FACTOR * model.dx / model.vmax


def _inside(what: str, iz: int, ix, shape: tuple[int, int]) -> None:
    ix = np.asarray(ix)
    if not 0 <= iz < shape[0] or np.any((ix < 0) | (ix >= shape[1])):
        raise ValueError(f"{what} position outside the grid")


def _second(out, p, lo, hi, s):
    """``out = (p[k-s] - 2·p[k]) + p[k+s]`` for flat ``k`` in [lo, hi)."""
    np.subtract(p[lo - s:hi - s], np.multiply(p[lo:hi], 2.0, out=out), out=out)
    out += p[lo + s:hi + s]
    return out


def _fourth(out, p, lo, hi, s, c0, c1, t):
    """``out = (c0·p + c1·(p[k-s] + p[k+s])) + C2·(p[k-2s] + p[k+2s])``."""
    np.multiply(p[lo:hi], c0, out=out)
    t = np.add(p[lo - s:hi - s], p[lo + s:hi + s], out=t[lo:hi])
    out += np.multiply(t, c1, out=t)
    np.add(p[lo - 2 * s:hi - 2 * s], p[lo + 2 * s:hi + 2 * s], out=t)
    out += np.multiply(t, _C2, out=t)
    return out


class _Workspace:
    """One propagation's buffers: two raveled fields, lap and scratch."""

    def __init__(self, nz: int, nx: int):
        self.prev, self.curr, self.lap, self.t, self.u = np.zeros((5, nz * nx))
        self.edges = np.empty((nz, 4))


@dataclass
class ShotRecord:
    """Receiver data of one shot: (nt, n_receivers) pressure samples."""

    data: np.ndarray
    receiver_ix: np.ndarray  # x-indices of receivers at the surface
    dt: float


class AcousticSolver2D:
    """Explicit FD propagator bound to one velocity model."""

    def __init__(self, model: VelocityModel, dt: float | None = None,
                 sponge_cells: int = 20, sponge_strength: float = 0.012):
        self.model = model
        self.dt = dt if dt is not None else stable_dt(model)
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.dt > stable_dt(model) * (1.0 + 1e-9):
            raise ValueError(
                f"dt={self.dt:.2e} violates CFL limit {stable_dt(model):.2e}"
            )
        if sponge_cells < 0:
            raise ValueError("sponge_cells must be >= 0")
        if sponge_cells > min(model.vp.shape):
            raise ValueError(f"sponge_cells={sponge_cells} is wider than "
                             f"the {model.nz} x {model.nx} grid")
        self._v2dt2 = (model.vp * self.dt) ** 2 / model.dx**2
        self._taper = self._build_taper(sponge_cells, sponge_strength)

    def _build_taper(self, cells: int, strength: float) -> np.ndarray:
        """Exponential sponge on left/right/bottom edges (free top)."""
        nz, nx = self.model.vp.shape
        taper = np.ones((nz, nx))
        if cells == 0:
            return taper
        ramp = np.exp(-((strength * (cells - np.arange(cells))) ** 2))
        taper[:, :cells] *= ramp[None, :]
        taper[:, nx - cells:] *= ramp[::-1][None, :]
        taper[nz - cells:, :] *= ramp[::-1][:, None]
        return taper

    def _laplacian(self, p: np.ndarray, ws: _Workspace) -> None:
        """2-D Laplacian of the raveled ``p`` into ``ws.lap``, in this order.

        z term: ``_second`` on rows 1 and nz-2, ``_fourth`` (C0, C1) on
        rows 2..nz-3, zero on rows 0 and nz-1 (Dirichlet p = 0 models the
        pressure-free surface; the sponge absorbs the other sides).  Then
        columns 1..nx-2 add ``_second`` along x, and columns 2..nx-3 add
        ``_fourth`` (C0 + 2, C1 - 1).  Spacing is folded into ``_v2dt2``.
        """
        nz, nx = self.model.vp.shape
        n, lap, t = p.size, ws.lap, ws.t
        lap[:nx] = lap[n - nx:] = 0.0
        if nz >= 5:
            _fourth(lap[2 * nx:n - 2 * nx], p, 2 * nx, n - 2 * nx, nx, _C0, _C1, t)
        for row in sorted({1, nz - 2}) if nz >= 3 else ():
            _second(lap[row * nx:(row + 1) * nx], p, row * nx, (row + 1) * nx, nx)
        if nx < 3:
            return
        cols = lap.reshape(nz, nx)
        ws.edges[:, :2] = cols[:, ::nx - 1]  # columns 0 and nx-1
        lap[1:n - 1] += _second(t[1:n - 1], p, 1, n - 1, 1)
        if nx >= 5:
            ws.edges[:, 2:] = cols[:, 1:nx - 1:nx - 3]  # 1 and nx-2
            lap[2:n - 2] += _fourth(ws.u[2:n - 2], p, 2, n - 2, 1,
                                    _C0 + 2.0, _C1 - 1.0, t)
            cols[:, 1:nx - 1:nx - 3] = ws.edges[:, 2:]
        cols[:, ::nx - 1] = ws.edges[:, :2]

    def _step(self, ws: _Workspace, iz, ix, amount) -> np.ndarray:
        """Overwrite ``prev`` with ``(2·curr - prev) + v2dt2·lap``, ``amount``
        added at (iz, ix), times the taper; swap; return the new field 2-D."""
        shape = self.model.vp.shape
        self._laplacian(ws.curr, ws)
        ws.lap *= self._v2dt2.ravel()
        nxt = np.subtract(np.multiply(ws.curr, 2.0, out=ws.t), ws.prev,
                          out=ws.prev)
        nxt += ws.lap
        nxt.reshape(shape)[iz, ix] += amount
        nxt *= self._taper.ravel()
        ws.prev, ws.curr = ws.curr, nxt
        return nxt.reshape(shape)

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
        _inside("source", source_iz, source_ix, self.model.vp.shape)
        record = None
        if receiver_ix is not None:
            _inside("receiver", receiver_iz, receiver_ix, self.model.vp.shape)
            record = np.zeros((len(wavelet), len(receiver_ix)))
        ws, dt2 = _Workspace(*self.model.vp.shape), self.dt**2
        snapshots: list[np.ndarray] = []
        for it, amp in enumerate(wavelet):
            curr = self._step(ws, source_iz, source_ix, amp * dt2)
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
        _inside("receiver", receiver_iz, record.receiver_ix, self.model.vp.shape)
        if record.dt != self.dt:
            raise ValueError(f"record dt={record.dt!r} is not the solver's "
                             f"dt={self.dt!r}")
        ws, dt2 = _Workspace(*self.model.vp.shape), self.dt**2
        snapshots: list[np.ndarray] = []
        for it in range(record.data.shape[0] - 1, -1, -1):
            curr = self._step(
                ws, receiver_iz, record.receiver_ix, record.data[it] * dt2
            )
            # Same stride/phase as the forward pass so snapshot i of both
            # passes refers to the same physical time.
            if snapshot_every and (it + 1) % snapshot_every == 0:
                snapshots.append(curr.copy())
        snapshots.reverse()
        return snapshots
