"""Reverse Time Migration: per-shot imaging and cost model.

RTM images one shot in three passes (§6.2): forward-propagate the
source wavelet through the migration (smoothed) model saving the
down-going wavefield; back-propagate the recorded data giving the
up-going wavefield; cross-correlate the two at matching times and sum —
reflectors appear where the fields coincide.

``migrate_shot`` does the real NumPy computation; ``rtm_cost_seconds``
is the *simulated* cost of the same shot on a paper-scale grid, used to
charge task time in the cluster simulation (the wall-clock of our small
demonstration grids would undersell the granularity the paper relies
on: "Awave tasks have a much higher granularity than Task Bench ones").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.awave.models import VelocityModel
from repro.apps.awave.solver import AcousticSolver2D, ricker_wavelet, stable_dt

#: Simulated seconds per (grid cell x timestep x propagation pass) on
#: one core; three passes per shot.  Calibrated so a production-size
#: shot (~8M cells x 10k steps) takes minutes on a 48-core node.
SECONDS_PER_CELL_STEP = 1.2e-9


@dataclass(frozen=True)
class RtmConfig:
    """Acquisition and numerics for one Awave run."""

    nt: int = 600
    f0: float = 12.0  # Hz, Ricker peak frequency
    snapshot_every: int = 4
    receiver_spacing: int = 2
    source_depth: int = 2
    smoothing_cells: int = 8

    def __post_init__(self) -> None:
        if self.nt < 1 or self.snapshot_every < 1:
            raise ValueError("nt and snapshot_every must be >= 1")
        if self.receiver_spacing < 1:
            raise ValueError("receiver_spacing must be >= 1")


def shot_positions(model: VelocityModel, num_shots: int) -> list[int]:
    """Evenly spaced surface source x-positions for ``num_shots``."""
    if num_shots < 1:
        raise ValueError("num_shots must be >= 1")
    margin = max(4, model.nx // 10)
    return [
        int(x)
        for x in np.linspace(margin, model.nx - 1 - margin, num_shots)
    ]


def migrate_shot(
    true_model: VelocityModel,
    migration_model: VelocityModel,
    source_ix: int,
    config: RtmConfig,
) -> np.ndarray:
    """Produce one shot's RTM image (real computation).

    The "observed" data is synthesized by forward modeling in the true
    model; migration then uses only the smooth model, as in a real
    acquisition-plus-processing workflow.
    """
    receivers = np.arange(2, true_model.nx - 2, config.receiver_spacing)
    dt = min(stable_dt(true_model), stable_dt(migration_model))
    wavelet = ricker_wavelet(config.f0, dt, config.nt)

    # 1. Synthesize observed data in the true model.
    true_solver = AcousticSolver2D(true_model, dt=dt)
    record, _ = true_solver.propagate(
        config.source_depth, source_ix, wavelet, receiver_ix=receivers
    )
    assert record is not None

    # 2. Source wavefield in the migration model (down-going).
    mig_solver = AcousticSolver2D(migration_model, dt=dt)
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
    product = np.empty(image.shape)
    for s, r in zip(src_snaps, rcv_snaps):
        image += np.multiply(s, r, out=product)
    return image


def stack_images(images: list[np.ndarray]) -> np.ndarray:
    """Combine per-shot images into the final section."""
    if not images:
        raise ValueError("no images to stack")
    return np.sum(images, axis=0)


def rtm_cost_seconds(
    nx: int,
    nz: int,
    nt: int,
    passes: int = 3,
    seconds_per_cell_step: float = SECONDS_PER_CELL_STEP,
) -> float:
    """Simulated single-core compute cost of one shot."""
    if min(nx, nz, nt, passes) < 1:
        raise ValueError("all dimensions must be >= 1")
    return nx * nz * nt * passes * seconds_per_cell_step
