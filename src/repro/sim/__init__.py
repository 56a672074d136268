"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate for the whole reproduction: every
"thread" the OMPC paper describes (control thread, OpenMP workers, the
gate thread, event handlers, chare schedulers, MPI ranks) runs as a
:class:`~repro.sim.core.Process` — a Python generator driven by a
single-threaded, deterministic event loop.

The design follows the classic process-interaction style (as popularized
by SimPy): processes ``yield`` events and are resumed when those events
fire.  Determinism is guaranteed by a strict (time, priority, sequence)
ordering of the event heap; no wall-clock time or unseeded randomness is
ever consulted.
"""

from repro.sim.core import Event, Process, Simulator
from repro.sim.errors import Interrupt, SimulationError, DeadlockError
from repro.sim.primitives import AllOf, AnyOf, Condition
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "DeadlockError",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
]
