"""Tests for RTM imaging and the distributed Awave application."""

import numpy as np
import pytest

from repro.apps.awave import (
    RtmConfig,
    VelocityModel,
    migrate_shot,
    rtm_cost_seconds,
    run_awave,
    sigsbee_like,
)
from repro.apps.awave.rtm import shot_positions, stack_images

from tests.test_util import FAST as FAST_OMPC


def layered_model(nz=70, nx=90):
    """Two-layer model with one sharp reflector for imaging checks."""
    vp = np.full((nz, nx), 2000.0)
    vp[nz // 2:, :] = 3000.0
    return VelocityModel("two-layer", vp, dx=10.0)


class TestRtmCost:
    def test_scales_with_problem_size(self):
        small = rtm_cost_seconds(100, 100, 1000)
        big = rtm_cost_seconds(200, 100, 1000)
        assert big == pytest.approx(2 * small)

    def test_validation(self):
        with pytest.raises(ValueError):
            rtm_cost_seconds(0, 10, 10)


class TestShotPositions:
    def test_even_spacing_within_margins(self):
        m = layered_model()
        pos = shot_positions(m, 4)
        assert len(pos) == 4
        assert pos == sorted(pos)
        assert pos[0] >= 4 and pos[-1] < m.nx

    def test_single_shot_centered_range(self):
        m = layered_model()
        (p,) = shot_positions(m, 1)
        assert 0 < p < m.nx

    def test_validation(self):
        with pytest.raises(ValueError):
            shot_positions(layered_model(), 0)


class TestStackImages:
    def test_sum(self):
        a, b = np.ones((2, 2)), np.full((2, 2), 2.0)
        np.testing.assert_array_equal(stack_images([a, b]), np.full((2, 2), 3.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_images([])


class TestMigrateShot:
    def test_image_focuses_energy_near_reflector(self):
        model = layered_model()
        config = RtmConfig(nt=500, f0=12.0, snapshot_every=4)
        image = migrate_shot(
            model, model.smoothed(10), source_ix=45, config=config
        )
        assert np.isfinite(image).all()
        assert np.abs(image).max() > 0
        # Energy density near the reflector depth (rows nz/2 +- 6) should
        # exceed the density in the shallow section above it (excluding
        # the source-dominated top rows).
        nz = model.nz
        near = np.abs(image[nz // 2 - 6: nz // 2 + 6, 10:-10]).mean()
        above = np.abs(image[10: nz // 2 - 8, 10:-10]).mean()
        assert near > above

    def test_homogeneous_model_weak_image(self):
        # No reflectors: migrating in the true (smooth, uniform) model
        # must produce far less focused energy below the source region.
        vp = np.full((70, 90), 2500.0)
        homo = VelocityModel("homo", vp, dx=10.0)
        config = RtmConfig(nt=400, snapshot_every=4)
        img_homo = migrate_shot(homo, homo, 45, config)
        img_layer = migrate_shot(
            layered_model(), layered_model().smoothed(10), 45, config
        )
        deep = slice(40, 60)
        assert (
            np.abs(img_layer[deep]).mean() > 3 * np.abs(img_homo[deep]).mean()
        )


class TestRunAwave:
    def test_weak_scaling_near_ideal(self):
        model = sigsbee_like(nx=60, nz=40)
        makespans = {}
        for workers in (1, 2, 4):
            res = run_awave(
                model,
                num_workers=workers,
                ompc_config=FAST_OMPC,
                compute_images=False,
            )
            makespans[workers] = res.makespan
            assert res.num_shots == workers
        # One shot per worker: wall time should stay nearly flat.
        assert makespans[4] < makespans[1] * 1.25

    def test_images_actually_computed_and_stacked(self):
        model = layered_model(nz=50, nx=60)
        res = run_awave(
            model,
            num_workers=2,
            config=RtmConfig(nt=200, snapshot_every=5),
            ompc_config=FAST_OMPC,
        )
        assert res.image.shape == model.vp.shape
        assert np.abs(res.image).max() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_awave(layered_model(), num_workers=0)
        from repro.cluster import ClusterSpec

        with pytest.raises(ValueError, match="num_workers"):
            run_awave(
                layered_model(), num_workers=2,
                cluster_spec=ClusterSpec(num_nodes=9),
            )

    def test_gpu_shots_accelerate(self):
        """§7 extension: shots offloaded to node-local GPUs run faster
        than the CPU second-level-parallel version on the same grid."""
        from repro.cluster import ClusterSpec, NodeSpec

        model = sigsbee_like(nx=60, nz=40)
        gpu_spec = ClusterSpec(
            num_nodes=3,
            node=NodeSpec(accelerators=1, accelerator_speed=200.0),
        )
        cpu = run_awave(
            model, num_workers=2, ompc_config=FAST_OMPC, compute_images=False
        )
        gpu = run_awave(
            model, num_workers=2, ompc_config=FAST_OMPC, compute_images=False,
            cluster_spec=gpu_spec, use_gpu=True,
        )
        assert gpu.run.counters.get("ompc.gpu_executions", 0) == 2
        assert cpu.run.counters.get("ompc.gpu_executions", 0) == 0
        # 200x single-core GPU vs 48-way threaded CPU shot: ~4x faster
        # on the shot kernels (overheads dilute the end-to-end ratio).
        assert gpu.makespan < cpu.makespan

    def test_model_replicated_not_invalidated(self):
        # The velocity model is read-only: every worker can hold a copy,
        # so the run must not retrieve/redistribute it between shots.
        model = sigsbee_like(nx=40, nz=30)
        res = run_awave(
            model, num_workers=3, ompc_config=FAST_OMPC, compute_images=False
        )
        counters = res.run.counters
        # The model is submitted/exchanged at most once per worker.
        data_moves = counters.get("ompc.events.submit", 0) + counters.get(
            "ompc.events.exchange_dst", 0
        )
        # 3 image allocs are not data moves; model to <=3 workers.
        assert data_moves <= 3
