"""The reference lineage bookkeeping: the oracle of the write records.

:class:`repro.core.datamanager.DataManager` keeps one
:class:`~repro.core.datamanager.WriteRecord` per buffer: its writer, the
producer of each logged version, and its newest checkpoint.  It promises
exactly the state of the separate dicts kept here, which the
fault-tolerant runtime's lineage used to hold beside the directory:
``writer_of``, ``write_version``, ``write_log`` (``(version, task,
reads)`` in commit order, ``reads`` being the ``(buffer id, version)``
pairs the task read), ``written_buffers`` and ``checkpoints``, plus the
log replay of ``bootstrap``, ``task_done`` and ``checkpoint`` records.
"""

from __future__ import annotations

from typing import Any

from repro.omp.task import Buffer, Task


class ReferenceLineage:
    """Per-buffer write lineage as five dicts keyed by buffer id."""

    def __init__(self):
        self.writer_of: dict[int, Task] = {}
        self.write_version: dict[int, int] = {}
        self.write_log: dict[int, list[tuple[int, Task, tuple]]] = {}
        self.written_buffers: dict[int, Buffer] = {}
        self.checkpoints: dict[int, tuple[int, Any]] = {}

    def record_writes(self, task: Task, recovery: bool = False) -> None:
        """Record ``task``'s writes with the versions it read (before
        its own writes); a recovery replay (``recovery``) re-derives
        versions already recorded and records nothing."""
        if recovery:
            return
        reads = tuple((b.buffer_id, self.write_version.get(b.buffer_id, 0))
                      for b in task.reads)
        for buf in {b.buffer_id: b for b in task.writes}.values():
            self.writer_of[buf.buffer_id] = task
            self.written_buffers[buf.buffer_id] = buf
            version = self.write_version.get(buf.buffer_id, 0) + 1
            self.write_version[buf.buffer_id] = version
            self.write_log.setdefault(buf.buffer_id, []).append(
                (version, task, reads))

    def store_checkpoint(self, buffer_id: int, snap: Any) -> int:
        """Snapshot a buffer at its current version; return the version."""
        version = self.write_version.get(buffer_id, 0)
        self.checkpoints[buffer_id] = (version, snap)
        return version


def replay(records, graph) -> ReferenceLineage:
    """The lineage a failover rebuilds from a head log: ``bootstrap``
    snapshots are version-0 checkpoints, classical and target
    ``task_done`` records replay their writes, and ``checkpoint``
    records store their snapshot."""
    lineage = ReferenceLineage()
    for rec in records:
        d = rec.data
        if rec.kind == "bootstrap":
            for bid, snap in d["snapshots"]:
                lineage.checkpoints[bid] = (0, snap)
        elif rec.kind == "task_done":
            task = graph.task(d["task_id"])
            if not task.kind.is_data_movement:
                lineage.record_writes(task)
        elif rec.kind == "checkpoint":
            lineage.checkpoints[d["buffer_id"]] = (d["version"], d["snap"])
    return lineage
