"""Programmer-facing API: build an OpenMP-annotated program.

An :class:`OmpProgram` records, in program order, what the control
thread would dispatch: mapped buffers, ``target enter/exit data
nowait`` transfers, ``target nowait`` compute tasks, and classical
``task`` regions.  Listing 1 of the paper becomes::

    prog = OmpProgram()
    A = prog.buffer(nbytes=N * 8, data=my_array, name="A")
    prog.target_enter_data(A)                        # map(to: A[:N]) nowait
    prog.target(foo, depend=[inout(A)], cost=0.05)   # target nowait
    prog.target(bar, depend=[inout(A)], cost=0.05)   # target nowait
    prog.target_exit_data(A)                         # map(release/from) nowait

The same program object runs unchanged on the single-node host runtime
(:class:`repro.omp.host.HostRuntime`) or on the OMPC cluster runtime
(:class:`repro.core.runtime.OMPCRuntime`) — the paper's central claim.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable

from repro.omp.depend import DependenceAnalyzer
from repro.omp.task import (
    Buffer,
    Dep,
    DepType,
    Task,
    TaskKind,
    depend_out,
)
from repro.omp.taskgraph import TaskGraph


class OmpProgram:
    """An ordered sequence of annotated tasks plus the derived graph."""

    def __init__(self, name: str = "program"):
        self.name = name
        self.buffers: list[Buffer] = []
        self.graph = TaskGraph()
        self._analyzer = DependenceAnalyzer()
        self._task_ids = itertools.count()

    # -- buffers --------------------------------------------------------
    def buffer(self, nbytes: float, data: Any = None, name: str = "") -> Buffer:
        """Declare a mappable buffer (a future ``map`` clause operand)."""
        buf = Buffer(nbytes, data, name)
        self.buffers.append(buf)
        return buf

    # -- task creation ----------------------------------------------------
    def _add(self, kind: TaskKind, deps: Iterable[Dep], **fields: Any) -> Task:
        """Create the next task in program order and derive its edges."""
        task = Task(task_id=next(self._task_ids), kind=kind,
                    deps=tuple(deps), **fields)
        self.graph.add_task(task)
        for pred, succ in self._analyzer.edges_for(task):
            self.graph.add_edge(pred, succ)
        return task

    def target(
        self,
        fn: Callable[..., Any] | None = None,
        depend: Iterable[Dep] = (),
        cost: float = 0.0,
        name: str = "",
        accesses: Iterable[Dep] = (),
        **meta: Any,
    ) -> Task:
        """``#pragma omp target nowait depend(...)`` — offloadable task.

        ``cost`` is the nominal compute time on a speed-1.0 node; ``fn``
        (optional) receives the dependence buffers' ``data`` payloads in
        clause order when the task runs.  ``accesses`` optionally states
        the region's *actual* footprint when it differs from ``depend``
        (feeds the race detector; scheduling still follows ``depend``).
        """
        return self._add(TaskKind.TARGET, depend, cost=cost, fn=fn,
                         name=name, accesses=tuple(accesses), meta=meta)

    def task(
        self,
        fn: Callable[..., Any] | None = None,
        depend: Iterable[Dep] = (),
        cost: float = 0.0,
        name: str = "",
        accesses: Iterable[Dep] = (),
        **meta: Any,
    ) -> Task:
        """``#pragma omp task depend(...)`` — classical host task.

        Under OMPC these are unconditionally scheduled on the head node
        (§4.4), preserving OpenMP semantics.
        """
        return self._add(TaskKind.CLASSICAL, depend, cost=cost, fn=fn,
                         name=name, accesses=tuple(accesses), meta=meta)

    def target_enter_data(self, *buffers: Buffer, name: str = "") -> Task:
        """``target enter data map(to: ...) nowait depend(out: ...)``.

        Declares each buffer as written (the device copy is created), so
        later readers of the buffer depend on this transfer — exactly
        Listing 1 line 1.
        """
        if not buffers:
            raise ValueError("enter data requires at least one buffer")
        return self._add(TaskKind.TARGET_ENTER_DATA,
                         (depend_out(b) for b in buffers),
                         buffers=buffers, name=name)

    def target_exit_data(self, *buffers: Buffer, name: str = "") -> Task:
        """``target exit data map(from/release: ...) nowait depend(in|out)``.

        Reads each buffer's final value (retrieving it to the host) and
        releases the device copies — Listing 1 line 6.
        """
        if not buffers:
            raise ValueError("exit data requires at least one buffer")
        return self._add(TaskKind.TARGET_EXIT_DATA,
                         (Dep(b, DepType.INOUT) for b in buffers),
                         buffers=buffers, name=name)

    # -- inspection ----------------------------------------------------------
    @property
    def tasks(self) -> list[Task]:
        return list(self.graph.tasks())

    def target_tasks(self) -> list[Task]:
        return [t for t in self.graph.tasks() if t.kind == TaskKind.TARGET]

    def validate(self) -> None:
        """Check structural invariants before handing to a runtime."""
        self.graph.validate()
        known = {b.buffer_id for b in self.buffers}
        for task in self.graph.tasks():
            for buf in task.touched:
                if buf.buffer_id not in known:
                    raise ValueError(
                        f"task {task.name} touches undeclared buffer {buf.name}; "
                        "declare buffers via OmpProgram.buffer()"
                    )
            for dep in task.accesses:
                if dep.buffer.buffer_id not in known:
                    raise ValueError(
                        f"task {task.name} accesses undeclared buffer "
                        f"{dep.buffer.name}; declare buffers via "
                        "OmpProgram.buffer()"
                    )
            types: dict[int, set[DepType]] = {}
            for dep in task.deps:
                types.setdefault(dep.buffer.buffer_id, set()).add(dep.type)
            for buffer_id, seen in types.items():
                if DepType.IN in seen and DepType.OUT in seen:
                    buf = next(
                        d.buffer for d in task.deps
                        if d.buffer.buffer_id == buffer_id
                    )
                    raise ValueError(
                        f"task {task.name} lists buffer {buf.name} as both "
                        "depend(in) and depend(out); use depend(inout) for "
                        "a read-modify-write dependence"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<OmpProgram {self.name!r} tasks={len(self.graph)} "
            f"edges={self.graph.num_edges} buffers={len(self.buffers)}>"
        )
