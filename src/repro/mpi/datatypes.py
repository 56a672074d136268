"""Message envelope carried through the simulated fabric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Message:
    """One point-to-point MPI message.

    ``payload`` may be any Python object (including a NumPy array) and
    travels by reference — the simulation charges transfer time from
    ``nbytes``, which the sender states explicitly, mirroring how MPI
    programs pass a buffer plus a count rather than letting the library
    guess.
    """

    comm_id: int
    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: float
    #: Monotone per-(comm, src, dst) sequence number: the reliable
    #: transport's dedup key.
    seq: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.nbytes < float("inf"):
            # The chained comparison also rejects NaN and +inf, which
            # would otherwise poison transfer-time arithmetic downstream.
            if self.nbytes < 0:
                raise ValueError("nbytes must be >= 0")
            raise ValueError(f"nbytes must be finite, got {self.nbytes!r}")
        if self.tag < 0:
            raise ValueError("tag must be >= 0")
