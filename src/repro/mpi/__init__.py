"""Simulated MPI: ranks, communicators, tag matching, communicator pools.

This layer gives the OMPC runtime (and the comparator runtimes) the
communication substrate the paper builds on: MPICH with message matching
on ``(communicator, source, tag)`` and multiple Virtual Communication
Interfaces (§4.2, §6.1).  One MPI rank runs per cluster node; rank ids
equal node ids.
"""

from repro.mpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    MpiWorld,
    Rank,
    TransportConfig,
)
from repro.mpi.datatypes import Message
from repro.mpi.errors import MpiError
from repro.mpi.request import Request
from repro.mpi.vci import CommunicatorPool

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "CommunicatorPool",
    "Message",
    "MpiError",
    "MpiWorld",
    "Rank",
    "Request",
    "TransportConfig",
]
