"""Sequential-program-order dependence analysis.

Implements the OpenMP ``depend`` clause semantics (§2): tasks are
created in program order by the control thread, and an edge is added
from an earlier task to a later one when their clauses conflict on the
same list item:

* read-after-write  (later ``in``/``inout`` after earlier ``out``/``inout``)
* write-after-write (later ``out``/``inout`` after earlier ``out``/``inout``)
* write-after-read  (later ``out``/``inout`` after earlier ``in``/``inout``)

Pure data-movement tasks participate exactly like compute tasks — the
paper represents ``target data nowait`` clauses as graph nodes (§4.4).
"""

from __future__ import annotations

from repro.omp.task import Buffer, Task


class DependenceAnalyzer:
    """Incrementally derives edges as tasks arrive in program order, from
    two dicts by buffer id: the last writer, and the readers since."""

    def __init__(self):
        self._writer: dict[int, Task] = {}
        self._readers: dict[int, list[Task]] = {}

    def edges_for(self, task: Task) -> list[tuple[Task, Task]]:
        """Edges required before ``task`` may run, as deduplicated
        ``(predecessor, task)`` pairs by predecessor id; updates history."""
        writer, readers = self._writer, self._readers
        preds: dict[int, Task] = {}
        # One pass, updating the history as it goes: a later item of
        # this task's clause can only add ``task`` itself on top of what
        # the history before the task yields, and that is dropped below.
        for dep in task.deps:
            bid = dep.buffer.buffer_id
            last = writer.get(bid)
            if last is not None:
                preds[last.task_id] = last
            if dep.type.writes:
                for reader in readers.pop(bid, ()):
                    preds[reader.task_id] = reader
                writer[bid] = task
            else:
                readers.setdefault(bid, []).append(task)
        preds.pop(task.task_id, None)
        return [(preds[tid], task) for tid in sorted(preds)]

    def last_writer(self, buffer: Buffer) -> Task | None:
        """The most recent task writing ``buffer`` (or None)."""
        return self._writer.get(buffer.buffer_id)
