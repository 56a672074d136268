"""Message envelope carried through the simulated fabric."""

from __future__ import annotations

from typing import Any

_INF = float("inf")


class Message:
    """One point-to-point MPI message.

    ``payload`` may be any Python object (including a NumPy array) and
    travels by reference — the simulation charges transfer time from
    ``nbytes``, which the sender states explicitly, mirroring how MPI
    programs pass a buffer plus a count rather than letting the library
    guess.

    A plain slotted class: one is built per point-to-point message, and
    a frozen dataclass's ``__init__`` pays ``object.__setattr__`` per
    field.  Treat a message as immutable.
    """

    __slots__ = ("comm_id", "src", "dst", "tag", "payload", "nbytes", "seq")

    def __init__(self, comm_id: int, src: int, dst: int, tag: int,
                 payload: Any, nbytes: float, seq: int = 0):
        if not 0 <= nbytes < _INF:
            # The chained comparison also rejects NaN and +inf, which
            # would otherwise poison transfer-time arithmetic downstream.
            if nbytes < 0:
                raise ValueError("nbytes must be >= 0")
            raise ValueError(f"nbytes must be finite, got {nbytes!r}")
        if tag < 0:
            raise ValueError("tag must be >= 0")
        self.comm_id = comm_id
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        #: Monotone per-(comm, src, dst) sequence number: the reliable
        #: transport's dedup key.
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Message(comm_id={self.comm_id}, src={self.src}, "
                f"dst={self.dst}, tag={self.tag}, nbytes={self.nbytes}, "
                f"seq={self.seq})")
