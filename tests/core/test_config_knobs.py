"""Every ``OMPCConfig`` field has a live reader.

For each field, a tiny scenario runs twice: once with the scenario's
base config and once with the field moved to a non-default value.  The
SHA-256 event digest must change, or the outcome must (success versus a
typed error).  ``trace`` and ``analysis`` are the opposite case: they
must leave the event stream bit-identical and only attach their report.

A field missing from :data:`KNOBS` fails the table test, so no new field
lands without a scenario that shows its reader.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core import FaultPlan, FaultTolerantRuntime, MemoryPressure
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.sim.errors import SimulationError

from tests.core.test_broadcast_integration import one_to_many_program
from tests.core.test_faults import shots_program
from tests.property.test_event_digest_pins import _pressure_program, _taskbench
from tests.property.test_kernel_digest import _tap_all_sims
from tests.property.test_memory_properties import KB, pipeline_program


def _plain(cfg):
    """One head (or K shards), 4 nodes, an 8x4 Task Bench stencil."""
    return OMPCRuntime(ClusterSpec(num_nodes=4), cfg).run(_taskbench(8, 4))


def _broadcast(cfg):
    """One buffer read by six consumers: the broadcast extension's case."""
    return OMPCRuntime(ClusterSpec(num_nodes=7), cfg).run(
        one_to_many_program()[0])


def _pipeline(cfg):
    """Eight staged 2 KiB buffers on two workers."""
    return OMPCRuntime(ClusterSpec(num_nodes=3), cfg).run(
        pipeline_program()[0])


def _ft(cfg):
    """Fault-tolerant runtime, 5 nodes, four independent shots."""
    return FaultTolerantRuntime(ClusterSpec(num_nodes=5), cfg).run(
        shots_program(cost=0.05)[0])


def _flaky_fetch(cfg):
    """Tiered fault-tolerant run whose re-fetches fail half the time."""
    plan = FaultPlan(seed=11, pressures=[MemoryPressure(
        node=1, start=0.0, capacity_factor=0.5, fetch_fail_prob=0.5)])
    return FaultTolerantRuntime(ClusterSpec(num_nodes=4), cfg).run(
        _pressure_program(), fault_plan=plan)


#: A capacity the pipeline's working set overflows.
TIGHT = 4 * KB
TIERED = dict(device_memory_bytes=20 * KB, eviction_policy="lru")

#: field -> (scenario, base overrides, non-default value)
KNOBS = {
    "trace": (_plain, {}, True),
    "analysis": (_plain, {}, True),
    "head_threads": (_plain, {}, 1),
    "forwarding_enabled": (_plain, {}, False),
    "broadcast_events": (_broadcast, {}, True),
    "write_detection": (_plain, {}, "page_protect"),
    "page_fault_overhead": (
        _plain, {"write_detection": "page_protect"}, 1e-5),
    "device_memory_bytes": (_pipeline, {}, TIGHT),
    "eviction_policy": (_pipeline, {"device_memory_bytes": TIGHT}, "lru"),
    "mem_fetch_retries": (_flaky_fetch, TIERED, 50),
    "checkpoint_interval": (_ft, {}, 0.02),
    "straggler_factor": (_ft, {}, 3.0),
    "head_shards": (_plain, {}, 2),
    "gossip": (_ft, {}, True),
    "gossip_interval": (_ft, {"gossip": True}, 2e-3),
    "head_standbys": (_ft, {}, 1),
    "startup_time": (_plain, {}, 0.0),
    "shutdown_time": (_plain, {}, 0.0),
    "first_event_interval": (_plain, {}, 0.0),
    "event_origin_overhead": (_plain, {}, 0.0),
    "event_handler_overhead": (_plain, {}, 0.0),
    "task_creation_overhead": (_plain, {}, 0.0),
    "schedule_unit_cost": (_plain, {}, 0.0),
}

#: Fields that must leave the event stream unchanged.
OBSERVERS = {"trace": "obs", "analysis": "analysis"}

FIELDS = [f.name for f in dataclasses.fields(OMPCConfig)]


def _run(scenario, cfg: OMPCConfig):
    """Return (event digest, outcome, result); outcome is ``"ok"`` or the
    name of the typed error the run raised."""
    digest = hashlib.sha256()
    result, outcome = None, "ok"
    with _tap_all_sims(digest):
        try:
            result = scenario(cfg)
        except SimulationError as exc:
            outcome = type(exc).__name__
    return digest.hexdigest(), outcome, result


def test_every_field_has_a_scenario():
    assert sorted(KNOBS) == sorted(FIELDS)


@pytest.mark.parametrize("name", FIELDS)
def test_field_is_live(name):
    scenario, base, value = KNOBS[name]
    default_cfg = OMPCConfig(**base)
    assert getattr(default_cfg, name) != value
    knob_cfg = dataclasses.replace(default_cfg, **{name: value})
    d0, out0, res0 = _run(scenario, default_cfg)
    d1, out1, res1 = _run(scenario, knob_cfg)
    if name in OBSERVERS:
        assert (d1, out1) == (d0, out0) == (d1, "ok")
        assert getattr(res0, OBSERVERS[name]) is None
        assert getattr(res1, OBSERVERS[name]) is not None
    else:
        assert (d1, out1) != (d0, out0), (
            f"{name}={value!r} changed neither the event stream nor the "
            "outcome: the field has no live reader"
        )
