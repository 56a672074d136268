"""Tasks, buffers, and dependence clauses.

These are the program-level objects Clang would materialize from
``#pragma omp`` annotations: a :class:`Buffer` is a mapped variable, a
:class:`Dep` is one item of a ``depend(...)`` clause, and a
:class:`Task` is an outlined region (classical task, target task, or a
``target enter/exit data`` transfer task).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable


class DepType(enum.Enum):
    """Direction of a ``depend`` clause item; ``reads`` and ``writes``
    are plain member attributes."""

    IN = "in", True, False
    OUT = "out", False, True
    INOUT = "inout", True, True

    def __new__(cls, value: str, reads: bool, writes: bool):
        member = object.__new__(cls)
        member._value_, member.reads, member.writes = value, reads, writes
        return member


class TaskKind(enum.Enum):
    """What kind of outlined region a task is.

    ``CLASSICAL`` is an ordinary ``#pragma omp task`` — under OMPC these
    are pinned to the head node (§4.4).  ``TARGET`` is a ``target
    nowait`` compute region.  ``TARGET_ENTER_DATA`` / ``TARGET_EXIT_DATA``
    are the pure data-movement tasks of ``target (enter|exit) data
    nowait`` — they execute no code and are co-scheduled with the task
    that consumes/produces their buffer (§4.4).
    """

    CLASSICAL = "classical"
    TARGET = "target"
    TARGET_ENTER_DATA = "enter_data"
    TARGET_EXIT_DATA = "exit_data"

    @property
    def is_data_movement(self) -> bool:
        return self in (TaskKind.TARGET_ENTER_DATA, TaskKind.TARGET_EXIT_DATA)


_buffer_ids = itertools.count()


class Buffer:
    """A mapped memory region (one ``map`` clause operand).

    ``nbytes`` drives all communication costing.  ``data`` optionally
    carries a real payload (e.g. a NumPy array) so distributed
    executions produce real numbers; the runtime moves the *reference*
    and the simulation charges time for the *bytes*.
    """

    def __init__(self, nbytes: float, data: Any = None, name: str = ""):
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.buffer_id: int = next(_buffer_ids)
        self.nbytes = float(nbytes)
        self.data = data
        self.name = name or f"buf{self.buffer_id}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Buffer {self.name} {self.nbytes:.0f}B>"


@dataclass(frozen=True)
class Dep:
    """One ``depend(type: buffer)`` item."""

    buffer: Buffer
    type: DepType


def depend_in(buffer: Buffer) -> Dep:
    """``depend(in: buffer)`` — task reads the buffer."""
    return Dep(buffer, DepType.IN)


def depend_out(buffer: Buffer) -> Dep:
    """``depend(out: buffer)`` — task overwrites the buffer."""
    return Dep(buffer, DepType.OUT)


def depend_inout(buffer: Buffer) -> Dep:
    """``depend(inout: buffer)`` — task reads then updates the buffer."""
    return Dep(buffer, DepType.INOUT)


@dataclass
class Task:
    """One node of the task graph.

    ``cost`` is the nominal compute duration in seconds on a speed-1.0
    node; data-movement tasks have cost 0.  ``fn`` optionally carries a
    real callable invoked with the task's buffers (in dependence order)
    when the task executes — pure-timing workloads leave it ``None``.
    """

    task_id: int
    kind: TaskKind
    deps: tuple[Dep, ...] = ()
    cost: float = 0.0
    fn: Callable[..., Any] | None = None
    name: str = ""
    #: For data-movement tasks: the buffers being mapped in/out.
    buffers: tuple[Buffer, ...] = ()
    meta: dict = field(default_factory=dict)
    #: The task's *actual* access footprint, when it differs from the
    #: declared ``deps`` — what the outlined region really touches, as a
    #: compiler-instrumented build would observe.  Empty means the
    #: declared clauses are exact.  The race detector records accesses
    #: (not clauses), which is what makes a missing ``depend`` item
    #: detectable.
    accesses: tuple[Dep, ...] = ()

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError("cost must be >= 0")
        if self.kind.is_data_movement:
            if self.fn is not None:
                raise ValueError("data-movement tasks execute no code")
            if not self.buffers:
                raise ValueError("data-movement tasks must name their buffers")
        if not self.name:
            self.name = f"{self.kind.value}{self.task_id}"

    # Convenience views over the depend clause -------------------------------
    @property
    def reads(self) -> tuple[Buffer, ...]:
        return tuple(d.buffer for d in self.deps if d.type.reads)

    @property
    def writes(self) -> tuple[Buffer, ...]:
        return tuple(d.buffer for d in self.deps if d.type.writes)

    @property
    def touched(self) -> tuple[Buffer, ...]:
        seen: dict[int, Buffer] = {}
        for d in self.deps:
            seen.setdefault(d.buffer.buffer_id, d.buffer)
        for b in self.buffers:
            seen.setdefault(b.buffer_id, b)
        return tuple(seen.values())

    @property
    def accesses_or_deps(self) -> tuple[Dep, ...]:
        """The actual footprint: explicit ``accesses`` if given, else the
        declared clauses (which are then exact by definition)."""
        return self.accesses if self.accesses else self.deps

    def dep_type_for(self, buffer: Buffer) -> DepType | None:
        """The strongest dependence type this task declares on ``buffer``."""
        result: DepType | None = None
        for d in self.deps:
            if d.buffer.buffer_id != buffer.buffer_id:
                continue
            if d.type == DepType.INOUT:
                return DepType.INOUT
            if result is None:
                result = d.type
            elif result != d.type:
                return DepType.INOUT
        return result

    def __hash__(self) -> int:
        return hash(self.task_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} ({self.kind.value})>"
