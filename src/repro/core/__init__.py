"""The OMPC runtime: event system, data manager, scheduler.

This is the paper's primary contribution (§3–§4): an OpenMP offloading
device that models a *cluster node*, built from

* an MPI-based distributed event system (:mod:`repro.core.events`) with
  per-event tag isolation (:mod:`repro.core.tags`), whose origin
  operations (``alloc``, ``delete``, ``submit``, ``retrieve``,
  ``exchange``, ``execute``) are the libomptarget device-plugin
  functions of §4.1 and are called directly by the runtime's head,
* a data manager that keeps buffer copies coherent across nodes and
  forwards worker-to-worker (:mod:`repro.core.datamanager`),
* a HEFT-based static task scheduler with the paper's adaptations
  (:mod:`repro.core.scheduler`), and
* the orchestrating runtime (:mod:`repro.core.runtime`).
"""

from repro.core.config import OMPCConfig
from repro.core.datamanager import DataManager
from repro.core.faultmodel import (
    FaultPlan,
    LinkDegradation,
    LinkLoss,
    MemoryPressure,
    NodeHang,
    NodeStall,
)
from repro.core.faults import (
    FailoverEvent,
    FailureInjector,
    FaultTolerantRuntime,
    FTRunResult,
    NodeFailure,
    RecoveryError,
)
from repro.core.gossip import FailureDetector
from repro.core.headlog import HeadLog, LogRecord, Replicator
from repro.core.memory import DeviceMemory, DeviceMemoryError
from repro.core.runtime import OMPCRunResult, OMPCRuntime
from repro.core.shard import (
    ShardDirectory,
    ShardedRuntime,
    ShardPlaneError,
    ShardRunResult,
    ShardStats,
)
from repro.core.scheduler import (
    HeftScheduler,
    MinLoadScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Schedule,
)

__all__ = [
    "DataManager",
    "DeviceMemory",
    "DeviceMemoryError",
    "FTRunResult",
    "FailoverEvent",
    "FailureDetector",
    "FailureInjector",
    "FaultPlan",
    "FaultTolerantRuntime",
    "HeadLog",
    "HeftScheduler",
    "LogRecord",
    "LinkDegradation",
    "LinkLoss",
    "MemoryPressure",
    "MinLoadScheduler",
    "NodeFailure",
    "NodeHang",
    "NodeStall",
    "OMPCConfig",
    "OMPCRunResult",
    "OMPCRuntime",
    "RandomScheduler",
    "RecoveryError",
    "Replicator",
    "RoundRobinScheduler",
    "Schedule",
    "ShardDirectory",
    "ShardPlaneError",
    "ShardRunResult",
    "ShardStats",
    "ShardedRuntime",
]
