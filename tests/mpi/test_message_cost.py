"""Exact calls per message on the MPI and network hot path.

Every OMPC event is a few point-to-point messages, so the simulator's
host cost per task is mostly its cost per message.  This test counts
the Python calls made into ``repro.mpi`` and ``repro.cluster.network``
per message with ``sys.setprofile``, on a callback-only scenario:
``isend``/``irecv`` with ``then`` and no process, so every count is a
plain function call (no generator resumes), the same on Python
3.10–3.12.  The counts are pinned exactly: a change that makes the path
cheaper lowers the pins, and one that makes it dearer must say why.
"""

import os
import sys

from repro.cluster import Cluster, ClusterSpec
from repro.mpi import MpiWorld

import repro.cluster.network
import repro.mpi

NODES = 8
ROUNDS = 16
MPI_DIR = os.path.dirname(repro.mpi.__file__) + os.sep
NETWORK_FILE = repro.cluster.network.__file__

#: Calls per message into ``repro.mpi`` and ``cluster/network.py``.
MPI_CALLS_PER_MESSAGE = 16.0
NETWORK_CALLS_PER_MESSAGE = 8.0


def _ring_traffic():
    """``ROUNDS`` rounds of a ring exchange on ``NODES`` nodes.

    In even rounds the receives are posted before the sends (every
    message matches a pending receive on arrival); in odd rounds after
    the traffic has landed (every message waits buffered).  Returns the
    world, a function that runs round ``k``, and the list the payloads
    are received into.
    """
    cluster = Cluster(ClusterSpec(num_nodes=NODES))
    mpi = MpiWorld(cluster)
    comm = mpi.world
    ranks = [comm.rank(i) for i in range(NODES)]
    got = []

    def on_recv(ev):
        got.append(ev.value.payload)

    def round_(k):
        def post():
            for i, rank in enumerate(ranks):
                rank.irecv(src=(i - 1) % NODES, tag=k).then(on_recv)

        if k % 2 == 0:
            post()
        for i, rank in enumerate(ranks):
            rank.isend((i + 1) % NODES, (k, i), nbytes=1024.0,
                       tag=k).then(lambda _ev: None)
        cluster.sim.run()
        if k % 2 == 1:
            post()
            cluster.sim.run()

    return mpi, round_, got


def _count_calls():
    """Calls into each layer per message, and the messages received."""
    mpi, round_, got = _ring_traffic()
    counts = {"mpi": 0, "network": 0}
    # A profiler already installed (a coverage or reach hook) keeps
    # seeing every call, and is restored afterwards.
    outer = sys.getprofile()

    def profile(frame, event, arg):
        if outer is not None:
            outer(frame, event, arg)
        if event != "call":
            return
        filename = frame.f_code.co_filename
        if filename.startswith(MPI_DIR):
            counts["mpi"] += 1
        elif filename == NETWORK_FILE:
            counts["network"] += 1

    sys.setprofile(profile)
    try:
        for k in range(ROUNDS):
            round_(k)
    finally:
        sys.setprofile(outer)
    messages = NODES * ROUNDS
    assert len(got) == messages
    assert not mpi._queues  # every store drained and dropped
    return {layer: n / messages for layer, n in counts.items()}, got


def test_calls_per_message_are_pinned():
    per_message, got = _count_calls()
    assert sorted(got) == [(k, i) for k in range(ROUNDS)
                           for i in range(NODES)]
    assert per_message == {
        "mpi": MPI_CALLS_PER_MESSAGE,
        "network": NETWORK_CALLS_PER_MESSAGE,
    }, per_message
