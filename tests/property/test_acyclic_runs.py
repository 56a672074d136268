"""A run's garbage is freed by reference counting.

``Simulator.run`` pauses the cyclic garbage collector for its loop, so
whatever a run allocates per event, per task and per job must free
itself by reference counting: an event chain drops its step when it
ends, recovery planning unlinks its mutually recursive closures, a
condition keeps none of its children, and ``HeadCore.close`` unlinks
the run's back-references (process groups' failure sink, the hooks a
runtime plugs in, each head's plug-ins and peers, the MPI world's
communicator and pending receives).

Each check pauses the collector from before launch and holds what
outlives the run (the cluster, or the job manager), then drops the
runtime and its result and counts what only the collector could free.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from repro.bench.jobscmd import (OVERLOAD_NODES, overload_elastic_config,
                                  overload_trace)
from repro.cluster.machine import Cluster, ClusterSpec
from repro.core import FaultPlan, FaultTolerantRuntime, LinkLoss, NodeFailure
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.jobs import ElasticJobManager

from tests.obs.test_counter_tier import _stencil
from tests.property.test_event_digest_pins import _taskbench


@contextmanager
def _paused():
    """Collect what came before, then pause the collector."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cyclic_garbage(runtime, program) -> int:
    """Run ``program``, drop the runtime and result while holding the
    cluster; return what the collector then frees."""
    with _paused():
        runtime.run(program)
        cluster = runtime.last_cluster
        del runtime
        unreachable = gc.collect()
        assert cluster.sim.now > 0
    return unreachable


def test_a_plain_stencil_run_leaves_no_cycle():
    assert _cyclic_garbage(OMPCRuntime(ClusterSpec(num_nodes=16)),
                           _taskbench(32, 4)) == 0


def test_a_sharded_run_leaves_no_cycle():
    # Four shards, each with a log standby: the shards' peer list, their
    # plug-ins and the replicated logs unlink with the run.
    runtime = OMPCRuntime(ClusterSpec(num_nodes=16),
                          OMPCConfig(head_shards=4, head_standbys=1))
    assert _cyclic_garbage(runtime, _taskbench(32, 3)) == 0


def test_an_elastic_replay_leaves_no_cycle():
    # Every job of the day runs inside the manager's one ``sim.run``: a
    # preempted job ends on the abort path, and the jobs with injected
    # failures end in a ``RecoveryError`` or ``ClusterExhausted`` after
    # node failures interrupted their frames.
    with _paused():
        manager = ElasticJobManager(
            Cluster(ClusterSpec(num_nodes=OVERLOAD_NODES)),
            policy="backfill", elastic=overload_elastic_config())
        report = manager.run(overload_trace(load=1.0, quick=True))
        assert report.preempted > 0 and report.dead_lettered > 0
        del report
        assert gc.collect() == 0
        assert manager.sim.now > 0


def _ft_head_kill(width: int) -> int:
    runtime = FaultTolerantRuntime(
        ClusterSpec(num_nodes=6),
        OMPCConfig(head_standbys=2, checkpoint_interval=0.002))
    with _paused():
        res = runtime.run(
            _stencil(width=width),
            failures=[NodeFailure(time=0.004, node=0)],
            fault_plan=FaultPlan(seed=5, losses=[LinkLoss(probability=0.01)]),
        )
        assert res.head_failovers == 1 and res.checkpoints_taken > 0
        cluster = runtime.last_cluster
        del res, runtime
        unreachable = gc.collect()
        assert cluster.sim.now > 0
    return unreachable


def test_an_ft_run_with_a_head_kill_leaves_no_cycle():
    # Recovery is planned once per task, and the head's failure races
    # each wait (an ``AnyOf`` whose losing child never fires): at both
    # widths nothing is left.
    assert _ft_head_kill(8) == _ft_head_kill(16) == 0
