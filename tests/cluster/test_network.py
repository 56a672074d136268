"""Tests for the interconnect model (NICs, VCIs, transfers)."""

import pytest

from repro.cluster import Network, NetworkSpec
from repro.sim import Simulator
from repro.util.units import Gbps, MICROSECOND, MB

NAN = float("nan")
INF = float("inf")


@pytest.fixture
def sim():
    return Simulator()


class TestNetworkSpec:
    def test_defaults_model_paper_fabric(self):
        spec = NetworkSpec()
        assert spec.bandwidth == Gbps(100.0)
        assert spec.vcis == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency": -1.0},
            {"bandwidth": 0.0},
            {"vcis": 0},
            {"local_bandwidth": -5.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkSpec(**kwargs)

    # Non-finite parameters used to be accepted and fail far away: a NaN
    # bandwidth or latency surfaced inside HEFT as an empty min().
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_latency_must_be_finite(self, value):
        with pytest.raises(ValueError, match="latencies"):
            NetworkSpec(latency=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_local_latency_must_be_finite(self, value):
        with pytest.raises(ValueError, match="latencies"):
            NetworkSpec(local_latency=value)

    def test_bandwidth_must_not_be_nan(self):
        with pytest.raises(ValueError, match="bandwidths"):
            NetworkSpec(bandwidth=NAN)

    def test_local_bandwidth_must_not_be_nan(self):
        with pytest.raises(ValueError, match="bandwidths"):
            NetworkSpec(local_bandwidth=NAN)

    def test_infinite_bandwidth_stays_legal(self):
        spec = NetworkSpec(bandwidth=INF, local_bandwidth=INF)
        assert spec.wire_time(1e9) == spec.latency

    def test_wire_time(self):
        spec = NetworkSpec(latency=1e-6, bandwidth=1e9, vcis=1)
        assert spec.wire_time(1e9) == pytest.approx(1.0 + 1e-6)
        with pytest.raises(ValueError):
            spec.wire_time(-1)


class TestTransfers:
    def test_transfer_time_formula(self, sim):
        net = Network(sim, 2, NetworkSpec(latency=1e-6, bandwidth=1e9))
        assert net.transfer_time(0, 1, 1e6) == pytest.approx(1e-3 + 1e-6)

    def test_transfer_advances_clock(self, sim):
        net = Network(sim, 2, NetworkSpec(latency=1e-6, bandwidth=1e9, vcis=4))

        def proc():
            yield from net.transfer(0, 1, 1e6)
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(1e-3 + 1e-6)

    def test_local_transfer_uses_memcpy_path(self, sim):
        spec = NetworkSpec(
            latency=1e-6, bandwidth=1e9, local_latency=1e-7, local_bandwidth=1e10
        )
        net = Network(sim, 2, spec)

        def proc():
            yield from net.transfer(1, 1, 1e6)
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == pytest.approx(1e-7 + 1e-4)
        # Local copies bypass the NICs entirely.
        assert net.total_messages == 0

    def test_vci_contention_serializes_flows(self, sim):
        # 1 VCI: two concurrent 1 MB transfers on the same link serialize.
        spec = NetworkSpec(latency=0.0, bandwidth=1e6, vcis=1)
        net = Network(sim, 2, spec)
        done = []

        def proc(pid):
            yield from net.transfer(0, 1, 1 * MB)
            done.append((pid, sim.now))

        sim.process(proc(0))
        sim.process(proc(1))
        sim.run()
        assert done == [(0, pytest.approx(1.0)), (1, pytest.approx(2.0))]

    def test_more_vcis_share_line_rate(self, sim):
        spec = NetworkSpec(latency=0.0, bandwidth=1e6, vcis=2)
        net = Network(sim, 2, spec)
        done = []

        def proc(pid):
            yield from net.transfer(0, 1, 1 * MB)
            done.append((pid, sim.now))

        sim.process(proc(0))
        sim.process(proc(1))
        sim.run()
        # Two channels admit both flows immediately, but they share the
        # line rate fairly: each progresses at B/2, both finish at t=2.
        assert done == [(0, pytest.approx(2.0)), (1, pytest.approx(2.0))]

    def test_vcis_remove_head_of_line_blocking(self, sim):
        # A huge transfer and a tiny one: with 1 VCI the tiny transfer
        # waits for the whole elephant; with 2 VCIs it shares the link
        # and finishes orders of magnitude sooner.
        def run_with(vcis):
            s = Simulator()
            net = Network(s, 2, NetworkSpec(latency=0.0, bandwidth=1e6, vcis=vcis))
            finished = {}

            def big():
                yield from net.transfer(0, 1, 10 * MB)
                finished["big"] = s.now

            def small():
                yield s.timeout(0.1)
                yield from net.transfer(0, 1, 0.01 * MB)
                finished["small"] = s.now

            s.process(big())
            s.process(small())
            s.run()
            return finished

        one = run_with(1)
        many = run_with(2)
        assert one["small"] == pytest.approx(10.0 + 0.01)
        assert many["small"] < 0.5
        # Aggregate bandwidth is conserved: the elephant still needs
        # ~10s of line time in both configurations.
        assert many["big"] == pytest.approx(one["big"], rel=0.01)

    def test_disjoint_pairs_do_not_contend(self, sim):
        spec = NetworkSpec(latency=0.0, bandwidth=1e6, vcis=1)
        net = Network(sim, 4, spec)
        done = []

        def proc(src, dst):
            yield from net.transfer(src, dst, 1 * MB)
            done.append(sim.now)

        sim.process(proc(0, 1))
        sim.process(proc(2, 3))
        sim.run()
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_byte_accounting(self, sim):
        net = Network(sim, 3, NetworkSpec())

        def proc():
            yield from net.transfer(0, 1, 1000)
            yield from net.transfer(0, 2, 500)

        sim.process(proc())
        sim.run()
        assert net.total_bytes == 1500
        assert net.total_messages == 2
        assert net.nics[0].bytes_sent == 1500
        assert net.nics[1].bytes_received == 1000
        assert net.nics[2].bytes_received == 500

    def test_bad_node_ids_rejected(self, sim):
        net = Network(sim, 2)
        with pytest.raises(ValueError):
            net.transfer_time(0, 5, 100)
        with pytest.raises(ValueError):
            net.transfer_time(-1, 0, 100)

    def test_opposed_transfers_full_duplex(self, sim):
        # A->B and B->A with 1 VCI each direction: full duplex means the
        # two directions neither deadlock nor contend.
        spec = NetworkSpec(latency=0.0, bandwidth=1e6, vcis=1)
        net = Network(sim, 2, spec)
        done = []

        def proc(src, dst):
            yield from net.transfer(src, dst, 1 * MB)
            done.append(sim.now)

        sim.process(proc(0, 1))
        sim.process(proc(1, 0))
        sim.run(check_deadlock=True)
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_incast_shares_receiver_line_rate(self, sim):
        # Two senders into one receiver: the receiver's RX line rate is
        # the bottleneck, so each flow gets B/2.
        spec = NetworkSpec(latency=0.0, bandwidth=1e6, vcis=8)
        net = Network(sim, 3, spec)
        done = []

        def proc(src):
            yield from net.transfer(src, 2, 1 * MB)
            done.append(sim.now)

        sim.process(proc(0))
        sim.process(proc(1))
        sim.run()
        assert done == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_early_finisher_speeds_up_survivor(self, sim):
        # A short and a long flow share the link; when the short one
        # drains, the survivor reclaims the full line rate.
        spec = NetworkSpec(latency=0.0, bandwidth=1e6, vcis=8)
        net = Network(sim, 2, spec)
        done = {}

        def proc(name, nbytes):
            yield from net.transfer(0, 1, nbytes)
            done[name] = sim.now

        sim.process(proc("short", 0.5 * MB))
        sim.process(proc("long", 1.5 * MB))
        sim.run()
        # Shared until t=1 (0.5MB each moved); short done at t=1; long
        # has 1.0MB left at full rate -> finishes at t=2.
        assert done["short"] == pytest.approx(1.0)
        assert done["long"] == pytest.approx(2.0)
