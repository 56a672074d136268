"""Kill sweeps: the outcome of every run in a grid of injected deaths.

Two sweeps rebuild their programs from the ones the tests define:

* ``stencil``: the double-buffered stencil with real payloads of
  ``tests/core/test_tiering.stencil_program`` on the fault-tolerant
  runtime, 5 nodes, LRU-tiered devices of 3, 4 and 5 x 4 KiB, one of
  workers 1-4 killed at 0, 0.25, ..., 9.75 ms (480 runs);
* ``chaos``: every draw of ``tests/property/test_chaos_failover.py``
  under ``--hypothesis-seed`` 0-20 (its explicit examples first, then
  30 generated scenarios: random crash schedules, head included, and
  lossy links);
* ``shard``: the same stencil on the sharded control plane, 16 nodes,
  ``head_shards=4, gossip=True, head_standbys=1``, one of shard managers
  1-3 killed at each of 20 instants spread over the fault-free makespan
  (60 runs).

Every run ends in one bucket: ``byte_exact`` (outputs equal the
fault-free run), ``recovery_error``, ``device_memory_error``,
``other_error`` (any other exception), ``wrong_output`` or ``horizon``
(still going after 5 simulated seconds); a ``ShardPlaneError`` is
``other_error``.  Each wrong-output or horizon
run is listed with its kill times and nodes.  A chaos seed passes when
each of its draws ends byte-exact or with a ``RecoveryError``.

``main`` writes ``BENCH_kills.json`` (schema ``repro-kill-sweep/1``).
``--quick`` runs a fixed slice (4 KiB x 4 devices, kills every 1 ms;
chaos seeds 0-2; manager 2 at every fourth instant) whose histograms CI
asserts exactly.

Usage::

    python benchmarks/bench_kill_sweep.py --out BENCH_kills.json
    python benchmarks/bench_kill_sweep.py --quick --out kills.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np
from hypothesis import example, given, seed, settings

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.cluster import ClusterSpec  # noqa: E402
from repro.core import OMPCConfig  # noqa: E402
from repro.core.faultmodel import FaultPlan, LinkLoss  # noqa: E402
from repro.core.faults import (  # noqa: E402
    FaultTolerantRuntime,
    NodeFailure,
    RecoveryError,
)
from repro.core.memory import DeviceMemoryError  # noqa: E402
from repro.core.shard import ShardedRuntime  # noqa: E402
from tests.core.test_tiering import KB, stencil_program  # noqa: E402
from tests.property import test_chaos_failover as chaos  # noqa: E402
from tests.test_util import FAST  # noqa: E402

SCHEMA = "repro-kill-sweep/1"
BUCKETS = ("byte_exact", "recovery_error", "device_memory_error",
           "other_error", "wrong_output", "horizon")

STENCIL_NODES = 5
STENCIL_DEVICES = (3, 4, 5)
STENCIL_WORKERS = (1, 2, 3, 4)
STENCIL_TIMES_MS = tuple(0.25 * i for i in range(40))
CHAOS_SEEDS = tuple(range(21))

SHARD_NODES = 16
SHARD_CONFIG = OMPCConfig(head_shards=4, gossip=True, head_standbys=1)
SHARD_MANAGERS = (1, 2, 3)
SHARD_INSTANTS = tuple(range(20))

QUICK_DEVICES = (4,)
QUICK_TIMES_MS = tuple(float(i) for i in range(10))
QUICK_SEEDS = (0, 1, 2)
QUICK_MANAGERS = (2,)
QUICK_INSTANTS = (0, 4, 8, 12, 16)


def outcome(run, check) -> str:
    """The bucket of one run: ``run()`` executes it under the chaos
    horizon, ``check()`` compares its outputs with the fault-free run."""
    try:
        run()
    except chaos.HorizonExceeded:
        return "horizon"
    except RecoveryError:
        return "recovery_error"
    except DeviceMemoryError:
        return "device_memory_error"
    except Exception:
        return "other_error"
    return "byte_exact" if check() else "wrong_output"


def record(runs) -> dict:
    """Histogram ``runs`` (``(bucket, kills)`` pairs) and list the
    wrong and horizon ones with their kills."""
    hist = dict.fromkeys(BUCKETS, 0)
    listed = []
    for bucket, kills in runs:
        hist[bucket] += 1
        if bucket in ("wrong_output", "horizon"):
            listed.append({"outcome": bucket, "kills": kills})
    return {"runs": len(runs), "histogram": hist, "listed": listed}


def stencil_sweep(devices, times_ms) -> dict:
    runs = []
    for k in devices:
        cfg = OMPCConfig(device_memory_bytes=k * 4 * KB,
                         eviction_policy="lru")
        for worker in STENCIL_WORKERS:
            for at_ms in times_ms:
                prog, final, want = stencil_program()
                failure = NodeFailure(time=at_ms * 1e-3, node=worker)
                rt = FaultTolerantRuntime(ClusterSpec(num_nodes=STENCIL_NODES),
                                          cfg)
                bucket = outcome(
                    lambda: chaos.run_to_horizon(rt, prog,
                                                 failures=[failure]),
                    lambda: all(np.array_equal(b.data, w)
                                for b, w in zip(final, want)))
                runs.append((bucket, [{"device_kib": 4 * k, "node": worker,
                                       "time_ms": at_ms}]))
    out = record(runs)
    out["grid"] = {"nodes": STENCIL_NODES, "device_kib": [4 * k for k in devices],
                   "workers": list(STENCIL_WORKERS),
                   "times_ms": [times_ms[0], times_ms[-1], len(times_ms)]}
    return out


def chaos_runs(hypothesis_seed: int) -> list:
    """Every draw the chaos test makes under ``--hypothesis-seed``,
    run once more and bucketed instead of asserted."""
    runs = []

    @seed(hypothesis_seed)
    @settings(deadline=None, max_examples=30, database=None)
    @given(chaos.scenario)
    @example(chaos.HEAD_AND_SUCCESSOR)
    @example(chaos.SEED5_DOUBLE_APPLY)
    @example(chaos.WORKER_THEN_HEAD)
    def draw(sc):
        cfg = dataclasses.replace(
            FAST, head_standbys=sc["standbys"],
            checkpoint_interval=0.02 if sc["checkpoint"] else 0.0)
        spec = ClusterSpec(num_nodes=chaos.NODES)
        ref_prog, ref_out = chaos.build_program(
            sc["shape"], sc["num_units"], sc["cost"])
        chaos.run_to_horizon(FaultTolerantRuntime(spec, cfg), ref_prog)
        prog, out = chaos.build_program(sc["shape"], sc["num_units"],
                                        sc["cost"])
        plan = FaultPlan(seed=sc["plan_seed"],
                         losses=[LinkLoss(probability=sc["loss"])]
                         ) if sc["loss"] else None
        failures = [NodeFailure(time=t, node=n) for n, t in sc["crashes"]]
        rt = FaultTolerantRuntime(spec, cfg)
        bucket = outcome(
            lambda: chaos.run_to_horizon(rt, prog, failures=failures,
                                         fault_plan=plan),
            lambda: all(np.array_equal(a, b) for a, b in zip(ref_out, out)))
        runs.append((bucket, [{"node": n, "time_s": t}
                              for n, t in sc["crashes"]]))

    draw()
    return runs


def chaos_sweep(seeds) -> dict:
    runs, passed, failed = [], [], []
    for s in seeds:
        drawn = chaos_runs(s)
        runs.extend(drawn)
        ok = all(b in ("byte_exact", "recovery_error") for b, _k in drawn)
        (passed if ok else failed).append(s)
    out = record(runs)
    out["seeds_passed"], out["seeds_failed"] = passed, failed
    return out


def shard_sweep(managers, instants) -> dict:
    """Kill one shard manager at ``instants`` twentieths of the
    fault-free makespan."""
    spec = ClusterSpec(num_nodes=SHARD_NODES)
    makespan = ShardedRuntime(spec, SHARD_CONFIG).run(
        stencil_program()[0]).makespan
    runs = []
    for manager in managers:
        for i in instants:
            at = makespan * i / len(SHARD_INSTANTS)
            prog, final, want = stencil_program()
            rt = ShardedRuntime(spec, SHARD_CONFIG,
                                inject_failures=((at, manager),))
            bucket = outcome(
                lambda: chaos.run_to_horizon(rt, prog),
                lambda: all(np.array_equal(b.data, w)
                            for b, w in zip(final, want)))
            runs.append((bucket, [{"node": manager, "time_s": at}]))
    out = record(runs)
    out["grid"] = {"nodes": SHARD_NODES, "head_shards": SHARD_CONFIG.head_shards,
                   "managers": list(managers), "makespan_s": makespan,
                   "instants": list(instants)}
    return out


def sweep(quick: bool = False) -> dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "sweeps": {
            "stencil": stencil_sweep(
                QUICK_DEVICES if quick else STENCIL_DEVICES,
                QUICK_TIMES_MS if quick else STENCIL_TIMES_MS),
            "chaos": chaos_sweep(QUICK_SEEDS if quick else CHAOS_SEEDS),
            "shard": shard_sweep(
                QUICK_MANAGERS if quick else SHARD_MANAGERS,
                QUICK_INSTANTS if quick else SHARD_INSTANTS),
        },
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the fixed slice CI asserts")
    ap.add_argument("--out", help="write the record to this JSON file")
    args = ap.parse_args(argv)
    doc = sweep(args.quick)
    for name, cell in doc["sweeps"].items():
        print(f"{name}: {cell['runs']} runs {cell['histogram']}")
        for run in cell["listed"]:
            print(f"  {run['outcome']}: {run['kills']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return doc


if __name__ == "__main__":
    main()
