"""Property-based tests for the MPI layer and the fluid network."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec, Network, NetworkSpec
from repro.mpi import MpiWorld
from repro.sim import Simulator


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e8), min_size=1, max_size=15
    ),
    vcis=st.integers(min_value=1, max_value=8),
)
@settings(deadline=None, max_examples=50)
def test_fluid_network_conserves_bytes_and_bounds_time(sizes, vcis):
    """All transfers complete; accounting matches; total time is at
    least the aggregate serialization bound of the busiest NIC."""
    sim = Simulator()
    spec = NetworkSpec(latency=0.0, bandwidth=1e9, vcis=vcis)
    net = Network(sim, 2, spec)
    done = [0]

    def proc(nbytes):
        yield from net.transfer(0, 1, nbytes)
        done[0] += 1

    for nbytes in sizes:
        sim.process(proc(nbytes))
    sim.run(check_deadlock=True)
    assert done[0] == len(sizes)
    assert net.total_messages == len(sizes)
    assert net.total_bytes == sum(int(s) for s in sizes)
    # The shared 1 GB/s TX link needs at least sum(bytes)/bw seconds.
    lower_bound = sum(sizes) / 1e9
    assert sim.now >= lower_bound * (1 - 1e-6)


@given(
    messages=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # src
            st.integers(min_value=0, max_value=3),  # dst
            st.integers(min_value=0, max_value=7),  # tag
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(deadline=None, max_examples=50)
def test_mpi_messages_never_lost_or_duplicated(messages):
    """Every sent message is received exactly once by a matching recv."""
    cluster = Cluster(ClusterSpec(num_nodes=4))
    mpi = MpiWorld(cluster, overhead=0.0)
    received = []

    def sender():
        for i, (src, dst, tag) in enumerate(messages):
            yield from mpi.world.rank(src).send(dst, i, nbytes=10, tag=tag)

    def receiver(rid):
        expected = [
            (i, src, tag)
            for i, (src, dst, tag) in enumerate(messages)
            if dst == rid
        ]
        for _ in expected:
            msg = yield from mpi.world.rank(rid).recv()
            received.append(msg.payload)

    cluster.sim.process(sender())
    for rid in range(4):
        cluster.sim.process(receiver(rid))
    cluster.sim.run(check_deadlock=True)
    assert sorted(received) == list(range(len(messages)))
