"""Tests for the sharded control plane (repro.core.shard)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, shard_reserved
from repro.cluster.partition import PartitionError
from repro.core import OMPCConfig, OMPCRuntime
from repro.core.shard import (
    ConsistentHashPolicy,
    ShardDirectory,
    ShardedRuntime,
    ShardPlaneError,
    ShardRunResult,
    stable_hash,
)
from repro.obs.exporter import to_chrome_trace, validate_chrome_trace
from repro.omp.task import TaskKind
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

from tests.core.test_broadcast_integration import BASE, one_to_many_program
from tests.core.test_tiering import stencil_program

BANDWIDTH = 100e9 / 8.0


def stencil(width=16, steps=4):
    spec = TaskBenchSpec.with_ccr(
        width, steps, Pattern.STENCIL_1D, KernelSpec.paper_50ms(),
        1.0, BANDWIDTH,
    )
    return build_omp_program(spec)


class TestPartitionPolicies:
    def test_stable_hash_is_deterministic_and_salted(self):
        assert stable_hash("t1") == stable_hash("t1")
        assert stable_hash("t1") != stable_hash("t2")
        assert stable_hash("t1") != stable_hash("t1", salt="ring")

    def test_consistent_hash_covers_all_shards(self):
        policy = ConsistentHashPolicy(4)
        owners = {policy.shard_of(i) for i in range(256)}
        assert owners == {0, 1, 2, 3}

    def test_consistent_hash_is_stable_under_repeat(self):
        a = ConsistentHashPolicy(4)
        b = ConsistentHashPolicy(4)
        assert [a.shard_of(i) for i in range(64)] == \
               [b.shard_of(i) for i in range(64)]


class TestShardDirectory:
    def make(self, shards=4):
        prog = stencil()
        prog.validate()
        return prog, ShardDirectory(prog.graph, shards)

    def test_every_task_owned(self):
        prog, directory = self.make()
        for task in prog.graph.tasks():
            sid = directory.owner_of(task.task_id)
            assert 0 <= sid < 4
        total = sum(len(directory.tasks_of(s)) for s in range(4))
        assert total == len(list(prog.graph.tasks()))
        assert directory.stats()["tasks"] == total

    def test_host_work_pinned_to_shard_zero(self):
        prog, directory = self.make()
        for task in prog.graph.tasks():
            if task.kind in (TaskKind.CLASSICAL, TaskKind.TARGET_EXIT_DATA):
                assert directory.owner_of(task.task_id) == 0

    def test_cross_edges_match_ownership(self):
        prog, directory = self.make()
        for pid, cid, sp, sc in directory.cross_edges:
            assert sp != sc
            assert directory.owner_of(pid) == sp
            assert directory.owner_of(cid) == sc

    def test_lease_needs_cover_cross_edges(self):
        prog, directory = self.make()
        needs = directory.lease_needs()
        for pid, _cid, sp, sc in directory.cross_edges:
            assert pid in needs[sc]
            assert sp != sc

    def test_subgraph_keeps_internal_edges_only(self):
        prog, directory = self.make()
        for s in range(4):
            sub = directory.subgraph(s)
            owned = {t.task_id for t in directory.tasks_of(s)}
            assert {t.task_id for t in sub.tasks()} == owned
            for pred, succ in sub.edges():
                assert pred.task_id in owned
                assert succ.task_id in owned


class TestShardReserved:
    def test_reserved_prefix(self):
        assert shard_reserved(1) == (0,)
        assert shard_reserved(4) == (0, 1, 2, 3)
        with pytest.raises(PartitionError):
            shard_reserved(0)


class TestShardedRuntimeValidation:
    def test_single_shard_rejected(self):
        with pytest.raises(ValueError, match="head_shards"):
            ShardedRuntime(ClusterSpec(num_nodes=8),
                           OMPCConfig(head_shards=1))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            ShardedRuntime(ClusterSpec(num_nodes=4),
                           OMPCConfig(head_shards=4))

    def test_injection_requires_gossip_and_standbys(self):
        with pytest.raises(ValueError):
            ShardedRuntime(
                ClusterSpec(num_nodes=16),
                OMPCConfig(head_shards=2, head_standbys=1),
                inject_failures=((0.1, 1),),
            )
        with pytest.raises(ValueError):
            ShardedRuntime(
                ClusterSpec(num_nodes=16),
                OMPCConfig(head_shards=2, gossip=True),
                inject_failures=((0.1, 1),),
            )

    @pytest.mark.parametrize("name,value,readers", [
        ("checkpoint_interval", 0.05, "FaultTolerantRuntime"),
        ("straggler_factor", 3.0, "FaultTolerantRuntime"),
        ("head_standbys", 1, "FaultTolerantRuntime and ShardedRuntime"),
        ("gossip", True, "FaultTolerantRuntime and ShardedRuntime"),
    ])
    def test_fault_tolerance_fields_rejected(self, name, value, readers):
        said = rf"{name}={value!r} \(read by {readers}\)"
        if "Sharded" not in readers:
            cfg = OMPCConfig(head_shards=2, **{name: value})
            with pytest.raises(ValueError,
                               match="ShardedRuntime never reads " + said):
                ShardedRuntime(ClusterSpec(num_nodes=8), cfg)
            # Delegation through OMPCRuntime rejects at construction too.
            with pytest.raises(ValueError, match=said):
                OMPCRuntime(ClusterSpec(num_nodes=8), cfg)
        # The single head reads none of them.
        with pytest.raises(ValueError, match=(
                r"OMPCRuntime \(head_shards=1\) never reads " + said)):
            OMPCRuntime(ClusterSpec(num_nodes=8),
                        OMPCConfig(**{name: value}))

    @pytest.mark.parametrize("kills, message", [
        (((0.1, 99),), "node 99 is outside the cluster of 16 nodes"),
        (((0.1, 1), (0.2, 1)), "node 1 already has an armed failure"),
    ])
    def test_bad_kills_rejected_as_on_the_fault_tolerant_plane(
            self, kills, message):
        # Both planes arm kills through one FailureInjector.
        from repro.core.faults import FaultTolerantRuntime, NodeFailure

        cfg = OMPCConfig(head_shards=2, gossip=True, head_standbys=1)
        runtime = ShardedRuntime(ClusterSpec(num_nodes=16), cfg,
                                 inject_failures=kills)
        with pytest.raises(ValueError, match=message):
            runtime.run(stencil())
        ft = FaultTolerantRuntime(ClusterSpec(num_nodes=16),
                                  OMPCConfig(head_standbys=1))
        with pytest.raises(ValueError, match=message):
            ft.run(stencil(), failures=[NodeFailure(time=t, node=n)
                                        for t, n in kills])

    def test_root_manager_unkillable(self):
        with pytest.raises(ValueError, match="node 0"):
            ShardedRuntime(
                ClusterSpec(num_nodes=16),
                OMPCConfig(head_shards=2, gossip=True, head_standbys=1),
                inject_failures=((0.1, 0),),
            )


class TestShardedExecution:
    def test_two_shard_run_completes_all_tasks(self):
        prog = stencil()
        cfg = OMPCConfig(head_shards=2)
        runtime = OMPCRuntime(ClusterSpec(num_nodes=16), cfg)
        res = runtime.run(prog)
        assert isinstance(res, ShardRunResult)
        assert res.makespan > 0
        num_tasks = len(list(prog.graph.tasks()))
        assert res.counters["shard.dispatches"] == num_tasks
        assert len(res.task_intervals) == num_tasks
        assert res.counters["shard.forwards"] > 0
        assert res.counters["shard.forwards"] == res.counters["shard.leases"]
        assert set(res.shard_stats) == {0, 1}
        assert sum(s.dispatched for s in res.shard_stats.values()) \
            == num_tasks
        report = res.utilization_report()
        assert "shard" in report and "busy%" in report

    def test_delegation_preserves_results_shape(self):
        runtime = OMPCRuntime(ClusterSpec(num_nodes=16),
                              OMPCConfig(head_shards=4))
        res = runtime.run(stencil())
        assert res.startup_time > 0
        assert res.shutdown_time > 0
        assert runtime.last_cluster is not None

    def test_gossip_run_records_rounds(self):
        cfg = OMPCConfig(head_shards=2, gossip=True)
        runtime = OMPCRuntime(ClusterSpec(num_nodes=16), cfg)
        res = runtime.run(stencil())
        assert res.gossip_rounds > 0
        assert res.detections == []

    def test_manager_failover_recovers_and_dedups(self):
        # Manager 1 dies 2 ms in.  When gossip confirms it, its log
        # shows t1p3 dispatched to node 7 with no completion: the
        # standby re-issues it with dedup, node 7 answers from its
        # completion table, and the outputs equal an unsharded run's.
        ref, ref_final, _want = stencil_program()
        OMPCRuntime(ClusterSpec(num_nodes=16)).run(ref)
        prog, final, _want = stencil_program()
        cfg = OMPCConfig(head_shards=4, gossip=True, head_standbys=1)
        runtime = ShardedRuntime(ClusterSpec(num_nodes=16), cfg,
                                 inject_failures=((0.002, 1),))
        main, finish = runtime.launch(prog)
        main.sim.run(until=main)
        res = finish()
        assert [d for d, _by, _t in res.detections] == [1]
        assert res.counters["shard.failovers"] == 1
        failed_over = [s for s in res.shard_stats.values()
                       if s.failovers == 1]
        assert len(failed_over) == 1
        assert failed_over[0].manager != 1  # a standby took over
        assert res.counters["ompc.exec_dedup_hits"] >= 1
        assert len(res.task_intervals) == len(list(prog.graph.tasks()))
        for got, want in zip(final, ref_final):
            assert got.data.tobytes() == want.data.tobytes()

    def test_tiering_combination_runs(self):
        cfg = OMPCConfig(head_shards=2, device_memory_bytes=1e9,
                         eviction_policy="lru")
        runtime = ShardedRuntime(ClusterSpec(num_nodes=16), cfg)
        prog = stencil()
        res = runtime.run(prog)
        assert len(res.task_intervals) == len(list(prog.graph.tasks()))
        assert res.counters["mem.hit"] + res.counters["mem.miss"] > 0

    def test_broadcast_matches_unsharded_outputs(self):
        prog, ref = one_to_many_program(nbytes=1000)
        OMPCRuntime(ClusterSpec(num_nodes=8), OMPCConfig(**BASE)).run(prog)
        prog, outs = one_to_many_program(nbytes=1000)
        cfg = OMPCConfig(head_shards=2, broadcast_events=True, **BASE)
        res = OMPCRuntime(ClusterSpec(num_nodes=8), cfg).run(prog)
        assert res.counters.get("ompc.events.broadcast", 0) > 0
        for got, want in zip(outs, ref):
            np.testing.assert_array_equal(got, want)

    def test_traced_frames_carry_task_and_data_spans(self):
        runtime = OMPCRuntime(ClusterSpec(num_nodes=8),
                              OMPCConfig(head_shards=2, trace=True))
        res = runtime.run(stencil(width=8, steps=3))
        names = {span.name for span in res.obs.spans}
        for suffix in (":wait-slot", ":fetch", ":execute", ":commit"):
            assert any(n.endswith(suffix) for n in names), suffix
        for prefix in ("move:", "delete:"):
            assert any(n.startswith(prefix) for n in names), prefix
        assert validate_chrome_trace(to_chrome_trace(res.obs)) == []
