"""The Awave FD kernel against the 2-D expression reference: byte-equal.

:class:`AcousticSolver2D` steps raveled fields with contiguous 1-D
ufuncs into reused buffers, saving and restoring the edge columns that
the wrapped x shifts would spoil.  The promise is the *same fields*, bit
for bit, as the plain per-timestep 2-D array expressions kept in
``tests/reference_awave.py``: shot records, forward snapshots, adjoint
snapshots and RTM images are compared with ``tobytes()``.

Generated cases cover grids of 1–24 cells on each axis, so every
degenerate stencil (fewer than 5 rows or columns, one row, one column)
is drawn, random positive velocity fields, sponges from none to the
full grid, timesteps up to the CFL limit, any source and receiver
positions (repeated receivers included) and snapshot strides.  One
fixed case migrates two shots of the end-to-end benchmark's model.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.awave import RtmConfig, VelocityModel, sigsbee_like
from repro.apps.awave.rtm import migrate_shot, shot_positions
from repro.apps.awave.solver import AcousticSolver2D, stable_dt

from tests import reference_awave
from tests.reference_awave import ReferenceSolver2D


@st.composite
def cases(draw):
    nz = draw(st.integers(1, 24))
    nx = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vmin = draw(st.floats(100.0, 3000.0))
    vp = vmin * (1.0 + draw(st.floats(0.0, 3.0)) * rng.random((nz, nx)))
    model = VelocityModel("drawn", vp, draw(st.floats(1.0, 50.0)))
    solver_args = dict(
        dt=stable_dt(model) * draw(st.floats(0.05, 1.0)),
        sponge_cells=draw(st.integers(0, min(nz, nx))),
        sponge_strength=draw(st.floats(0.0, 0.5)),
    )
    nt = draw(st.integers(1, 40))
    shot = dict(
        source_iz=draw(st.integers(0, nz - 1)),
        source_ix=draw(st.integers(0, nx - 1)),
        wavelet=rng.standard_normal(nt),
        receiver_ix=np.array(
            draw(st.lists(st.integers(0, nx - 1), min_size=1, max_size=8))
        ),
        receiver_iz=draw(st.integers(0, nz - 1)),
        snapshot_every=draw(st.integers(0, 6)),
    )
    return model, solver_args, shot


def assert_same_fields(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestKernelOracle:
    @given(cases())
    @settings(deadline=None, max_examples=150)
    def test_records_and_snapshots_are_byte_equal(self, case):
        model, solver_args, shot = case
        fast = AcousticSolver2D(model, **solver_args)
        ref = ReferenceSolver2D(model, **solver_args)
        record, fwd = fast.propagate(**shot)
        ref_record, ref_fwd = ref.propagate(**shot)
        assert record.data.tobytes() == ref_record.data.tobytes()
        assert_same_fields(fwd, ref_fwd)

        every, iz = shot["snapshot_every"], shot["receiver_iz"]
        assert_same_fields(
            fast.propagate_adjoint(record, iz, every),
            ref.propagate_adjoint(ref_record, iz, every),
        )

    def test_migrated_images_are_byte_equal(self):
        model = sigsbee_like(nx=100, nz=60, seed=1)
        config = RtmConfig()
        migration = model.smoothed(config.smoothing_cells)
        for src in shot_positions(model, 2):
            image = migrate_shot(model, migration, src, config)
            ref = reference_awave.migrate_shot(model, migration, src, config)
            assert image.tobytes() == ref.tobytes()
