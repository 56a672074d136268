"""Worker-side device memory: the per-node table of mapped buffers.

Each cluster node, acting as an offloading device, keeps a table of the
buffers currently allocated on it.  Payloads travel by reference (all
nodes live in one Python process); the simulation charges transfer time
for the bytes, and the *table* is the ground truth the coherency tests
inspect: reading a buffer on a node where the data manager never
materialized it raises, so protocol bugs surface as hard errors.

The table also accounts bytes.  Each entry carries the mapped buffer's
logical size, ``resident_bytes`` sums them, and a node constructed with
a finite ``capacity_bytes`` refuses allocations past it with a hard
:class:`DeviceMemoryError` — so co-located jobs in a multi-tenant run
cannot silently share infinite device memory.
"""

from __future__ import annotations

from typing import Any

from repro.sim.errors import SimulationError


class DeviceMemoryError(SimulationError):
    """Access to a buffer not resident on this node, or memory overflow."""


class DeviceMemory:
    """The mapped-buffer table of one worker node.

    ``capacity_bytes=None`` means unlimited (the default, and the
    historical behavior); a finite capacity turns over-allocation into a
    hard failure at the exact alloc that crosses the line.
    """

    def __init__(self, node_id: int, capacity_bytes: float | None = None):
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0 or None")
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self._table: dict[int, Any] = {}
        self._sizes: dict[int, float] = {}
        self._labels: dict[int, str] = {}
        #: ``buffer id -> version`` its own kernels wrote (none if since
        #: overwritten by delivered bytes).
        self.versions: dict[int, int] = {}
        #: Logical bytes currently mapped on this node.
        self.resident_bytes = 0.0
        #: High-water mark of :attr:`resident_bytes` over the run.
        self.peak_bytes = 0.0
        #: Diagnostics: total allocations/removals over the run.
        self.allocations = 0
        self.deletions = 0

    def __contains__(self, buffer_id: int) -> bool:
        return buffer_id in self._table

    def __len__(self) -> int:
        return len(self._table)

    def alloc(self, buffer_id: int, payload: Any = None,
              nbytes: float = 0.0, label: str | None = None,
              owner: str | None = None) -> None:
        """Create (or overwrite) the device entry for a buffer.

        ``nbytes`` is the buffer's logical size; re-allocating an
        existing entry re-sizes it (the delta is what counts against
        capacity).  ``label`` names the buffer and ``owner`` the
        requesting task — both pure diagnostics, surfaced when the
        allocation overflows the node so overflow reports are
        actionable.
        """
        delta = nbytes - self._sizes.get(buffer_id, 0.0)
        if (
            self.capacity_bytes is not None
            and self.resident_bytes + delta > self.capacity_bytes
        ):
            raise DeviceMemoryError(
                f"node {self.node_id}: out of device memory allocating "
                f"buffer {label or buffer_id} ({nbytes:.0f} B"
                + (f" for task {owner}" if owner else "")
                + f"; {self.resident_bytes:.0f} of "
                f"{self.capacity_bytes:.0f} B resident"
                f"{self._resident_summary()})"
            )
        if buffer_id not in self._table:
            self.allocations += 1
        self._table[buffer_id] = payload
        self._sizes[buffer_id] = nbytes
        if label is not None:
            self._labels[buffer_id] = label
        self.resident_bytes += delta
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes

    def _resident_summary(self, limit: int = 8) -> str:
        """The resident set as ``name:bytes`` pairs for error messages."""
        if not self._table:
            return ""
        entries = sorted(
            (self._labels.get(bid, str(bid)), self._sizes.get(bid, 0.0))
            for bid in self._table
        )
        shown = ", ".join(f"{n}:{s:.0f}B" for n, s in entries[:limit])
        if len(entries) > limit:
            shown += f", … +{len(entries) - limit} more"
        return f"; resident set: [{shown}]"

    def write(self, buffer_id: int, payload: Any) -> None:
        """Store incoming data for an already-allocated buffer."""
        if buffer_id not in self._table:
            raise DeviceMemoryError(
                f"node {self.node_id}: write to unallocated buffer {buffer_id}"
            )
        self._table[buffer_id] = payload
        self.versions.pop(buffer_id, None)

    def read(self, buffer_id: int) -> Any:
        """The resident payload; raises if the buffer is not here."""
        try:
            return self._table[buffer_id]
        except KeyError:
            raise DeviceMemoryError(
                f"node {self.node_id}: read of non-resident buffer {buffer_id}"
            ) from None

    def delete(self, buffer_id: int) -> None:
        if buffer_id not in self._table:
            raise DeviceMemoryError(
                f"node {self.node_id}: delete of non-resident buffer {buffer_id}"
            )
        del self._table[buffer_id]
        self.versions.pop(buffer_id, None)
        self.resident_bytes -= self._sizes.pop(buffer_id, 0.0)
        self._labels.pop(buffer_id, None)
        self.deletions += 1

    def size_of(self, buffer_id: int) -> float:
        """Logical bytes of a resident buffer (0 for unknown sizes)."""
        if buffer_id not in self._table:
            raise DeviceMemoryError(
                f"node {self.node_id}: size of non-resident buffer {buffer_id}"
            )
        return self._sizes.get(buffer_id, 0.0)

    def resident_buffers(self) -> list[int]:
        return sorted(self._table)

    def wipe(self) -> None:
        """Drop every entry (node crash: its memory contents are gone)."""
        self._table.clear()
        self.versions.clear()
        self._sizes.clear()
        self._labels.clear()
        self.resident_bytes = 0.0
