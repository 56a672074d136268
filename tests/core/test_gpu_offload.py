"""Tests for the §7 second-level (GPU) offloading extension."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.core import OMPCRuntime
from repro.omp import OmpProgram
from repro.omp.task import depend_inout

from tests.test_util import FAST

GPU_NODE = NodeSpec(accelerators=2, accelerator_speed=8.0,
                    pcie_bandwidth=16e9, pcie_latency=10e-6)


def gpu_cluster(n=3):
    return ClusterSpec(num_nodes=n, node=GPU_NODE)


def single_task_program(cost=0.8, nbytes=8_000, device="gpu"):
    prog = OmpProgram()
    data = np.zeros(nbytes // 8)
    A = prog.buffer(data.nbytes, data=data, name="A")
    prog.target_enter_data(A)
    prog.target(
        fn=lambda a: np.add(a, 1.0, out=a),
        depend=[depend_inout(A)], cost=cost, device=device, name="kernel",
    )
    prog.target_exit_data(A)
    return prog, data


class TestNodeSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"accelerators": -1},
            {"accelerator_speed": 0.0},
            {"pcie_bandwidth": 0.0},
            {"pcie_latency": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NodeSpec(**kwargs)

    def test_no_gpu_resource_without_accelerators(self):
        from repro.cluster import Cluster

        cluster = Cluster(ClusterSpec(num_nodes=2))
        assert cluster.node(1).gpus is None
        cluster2 = Cluster(gpu_cluster(2))
        assert cluster2.node(1).gpus is not None
        assert cluster2.node(1).gpus.capacity == 2


class TestGpuExecution:
    def test_gpu_accelerates_compute(self):
        prog_gpu, d1 = single_task_program(device="gpu")
        gpu_res = OMPCRuntime(gpu_cluster(), FAST).run(prog_gpu)
        prog_cpu, d2 = single_task_program(device=None)
        cpu_res = OMPCRuntime(gpu_cluster(), FAST).run(prog_cpu)
        # 0.8 s kernel: ~0.1 s on the 8x accelerator vs 0.8 s on cores.
        assert gpu_res.makespan < cpu_res.makespan / 4
        np.testing.assert_allclose(d1, d2)

    def test_counters(self):
        prog, _ = single_task_program()
        res = OMPCRuntime(gpu_cluster(), FAST).run(prog)
        assert res.counters.get("ompc.gpu_executions", 0) == 1

    def test_falls_back_to_cpu_without_accelerator(self):
        # device="gpu" on a GPU-less cluster: regular core execution
        # (the OpenMP fallback semantics of §2).
        prog, data = single_task_program(cost=0.4)
        res = OMPCRuntime(ClusterSpec(num_nodes=3), FAST).run(prog)
        assert res.counters.get("ompc.gpu_executions", 0) == 0
        assert res.makespan == pytest.approx(0.4, rel=0.05)
        np.testing.assert_allclose(data, np.ones_like(data))

    def test_pcie_staging_charged(self):
        # 1.6 GB buffer over 16 GB/s PCIe: ~0.1 s in + ~0.1 s out
        # dominates the accelerated 12.5 ms kernel.
        prog = OmpProgram()
        A = prog.buffer(1.6e9, name="big")
        prog.target_enter_data(A)
        prog.target(depend=[depend_inout(A)], cost=0.1, device="gpu")
        res = OMPCRuntime(gpu_cluster(), FAST).run(prog)
        kernel_time = 0.1 / 8.0
        pcie_time = 2 * 1.6e9 / 16e9
        # Ignore the cluster-fabric submit (~0.13 s) by checking the
        # task interval, not the makespan.
        task_iv = [
            end - start for start, end in res.task_intervals.values()
        ]
        assert max(task_iv) >= kernel_time + pcie_time

    def test_gpu_contention_serializes(self):
        # 4 concurrent GPU kernels, 2 accelerators: two waves.
        prog = OmpProgram()
        for i in range(4):
            b = prog.buffer(8, name=f"b{i}")
            prog.target(depend=[depend_inout(b)], cost=0.8, device="gpu",
                        name=f"k{i}")
        spec = ClusterSpec(num_nodes=2, node=GPU_NODE)  # one worker
        res = OMPCRuntime(spec, FAST).run(prog)
        assert res.makespan == pytest.approx(2 * 0.8 / 8.0, rel=0.1)

    def test_mixed_cpu_gpu_program(self):
        prog = OmpProgram()
        data = np.zeros(16)
        A = prog.buffer(data.nbytes, data=data, name="A")
        prog.target_enter_data(A)
        prog.target(fn=lambda a: np.add(a, 1, out=a),
                    depend=[depend_inout(A)], cost=0.1, device="gpu")
        prog.target(fn=lambda a: np.multiply(a, 3, out=a),
                    depend=[depend_inout(A)], cost=0.1)  # CPU
        prog.target_exit_data(A)
        res = OMPCRuntime(gpu_cluster(), FAST).run(prog)
        assert res.counters.get("ompc.gpu_executions", 0) == 1
        np.testing.assert_allclose(data, np.full(16, 3.0))
