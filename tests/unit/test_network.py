"""Unit tests: the simulated switched LAN."""

import dataclasses

import pytest

from repro.errors import NetworkError, ScheduleInPastError, UnknownDestinationError
from repro.net import NetMessage, SimNetwork, SwitchedLan, estimate_payload_size
from repro.runtime.codec import decode_value, encode_value
from repro.sim import ConstantLatency, LatencyModel, LogNormalLatency, Machine


def make_net(sim, n=3, **lan_kwargs):
    lan_kwargs.setdefault("latency", ConstantLatency(0.001))
    machines = [Machine(sim, i) for i in range(n)]
    return machines, SimNetwork(sim, machines, SwitchedLan(**lan_kwargs))


class TestMessage:
    """The slotted (not frozen) ``NetMessage``: what callers may rely on."""

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetMessage(0, 1, "p", -1)
        with pytest.raises(ValueError):
            NetMessage(src=0, dst=1, payload="p", size_bytes=-1)

    def test_msg_ids_unique(self):
        a = NetMessage(0, 1, "p", 10)
        b = NetMessage(0, 1, "p", 10)
        assert a.msg_id != b.msg_id

    def test_slotted_no_instance_dict(self):
        assert not hasattr(NetMessage(0, 1, "p", 10), "__dict__")

    def test_positional_equals_keyword(self):
        positional = NetMessage(0, 1, ("p", 2), 10, 99)
        keyword = NetMessage(src=0, dst=1, payload=("p", 2), size_bytes=10, msg_id=99)
        assert positional == keyword
        assert repr(positional) == repr(keyword)

    def test_replace_keeps_msg_id(self):
        original = NetMessage(0, 1, "p", 10)
        changed = dataclasses.replace(original, payload="q")
        assert changed.msg_id == original.msg_id
        assert (changed.src, changed.dst, changed.payload, changed.size_bytes) == (
            0, 1, "q", 10
        )
        assert original.payload == "p"

    def test_codec_round_trip(self):
        message = NetMessage(2, 0, ("frame", 7, b"\x00\x01"), 64)
        assert decode_value(encode_value(message)) == message


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_payload_size(None) == 1
        assert estimate_payload_size(True) == 1
        assert estimate_payload_size(7) == 8
        assert estimate_payload_size(1.5) == 8

    def test_strings_and_bytes(self):
        assert estimate_payload_size("abc") == 7
        assert estimate_payload_size(b"abcd") == 8

    def test_containers_recursive(self):
        assert estimate_payload_size([1, 2]) == 4 + 16
        assert estimate_payload_size({"a": 1}) == 4 + 5 + 8

    def test_unknown_object_default(self):
        class X:
            __slots__ = ()

        assert estimate_payload_size(X(), default=99) == 99


class TestLanValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            SwitchedLan(bandwidth_bps=0)

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            SwitchedLan(loss_rate=1.0)

    def test_transmission_time(self):
        lan = SwitchedLan(bandwidth_bps=100e6)
        assert lan.transmission_time(1250) == pytest.approx(1e-4)


class TestDelivery:
    def test_basic_delivery(self, sim):
        machines, net = make_net(sim)
        got = []
        net.attach(1, lambda m, t: got.append((m.payload, t)))
        net.send(NetMessage(0, 1, "hello", 1250))
        sim.run()
        # 1250B at 100Mb/s = 0.1ms tx + 1ms latency
        assert got == [("hello", pytest.approx(0.0011))]

    def test_nic_serialisation(self, sim):
        machines, net = make_net(sim)
        got = []
        net.attach(1, lambda m, t: got.append(t))
        for _ in range(3):
            net.send(NetMessage(0, 1, "x", 1250))
        sim.run()
        assert got == [pytest.approx(0.0011), pytest.approx(0.0012), pytest.approx(0.0013)]

    def test_nic_backlog_visible(self, sim):
        machines, net = make_net(sim)
        net.attach(1, lambda m, t: None)
        for _ in range(10):
            net.send(NetMessage(0, 1, "x", 12500))
        assert net.nic_backlog(0) == pytest.approx(0.01)

    def test_unknown_destination(self, sim):
        machines, net = make_net(sim)
        with pytest.raises(UnknownDestinationError):
            net.send(NetMessage(0, 99, "x", 10))

    def test_double_attach_rejected(self, sim):
        machines, net = make_net(sim)
        net.attach(0, lambda m, t: None)
        with pytest.raises(NetworkError):
            net.attach(0, lambda m, t: None)

    def test_unattached_drop_counted(self, sim):
        machines, net = make_net(sim)
        net.send(NetMessage(0, 1, "x", 10))
        sim.run()
        assert net.stats()["dropped_unattached"] == 1

    def test_send_local_loopback(self, sim):
        machines, net = make_net(sim)
        got = []
        net.attach(0, lambda m, t: got.append(t))
        net.send_local(NetMessage(0, 0, "x", 10))
        sim.run()
        assert got == [0.0]

    def test_send_local_requires_same_src_dst(self, sim):
        machines, net = make_net(sim)
        with pytest.raises(NetworkError):
            net.send_local(NetMessage(0, 1, "x", 10))


class NanLatency(LatencyModel):
    """A broken latency model: every draw is NaN."""

    def sample(self, rng):
        return float("nan")

    def mean(self):
        return float("nan")


class TestDeliveryInstant:
    """Each delivery is scheduled with its own instant as an argument; the
    hook's arrival argument must be the clock at delivery, and a NaN
    instant must still hit the simulator's scheduling guard."""

    def _arrivals(self, sim, net, mid):
        seen = []
        net.attach(mid, lambda m, t: seen.append((t, sim.now)))
        return seen

    def test_nan_latency_still_rejected(self, sim):
        machines, net = make_net(sim, latency=NanLatency())
        net.attach(1, lambda m, t: None)
        with pytest.raises(ScheduleInPastError):
            net.send(NetMessage(0, 1, "x", 10))

    def test_direct_delivery_arrives_at_now(self, sim):
        machines, net = make_net(sim, latency=LogNormalLatency(tail_mean=0.001, floor=0.0005))
        seen = self._arrivals(sim, net, 1)
        for i in range(20):
            net.send(NetMessage(0, 1, i, 500))
        sim.run()
        assert len(seen) == 20
        assert all(arrival == now for arrival, now in seen)

    def test_duplicate_delivery_arrives_at_now(self, sim):
        machines, net = make_net(
            sim, latency=LogNormalLatency(tail_mean=0.001, floor=0.0005), duplicate_rate=0.5
        )
        seen = self._arrivals(sim, net, 1)
        for i in range(40):
            net.send(NetMessage(0, 1, i, 500))
        sim.run()
        assert net.stats()["duplicated"] > 0
        assert len(seen) == 40 + net.stats()["duplicated"]
        assert all(arrival == now for arrival, now in seen)

    def test_loopback_delivery_arrives_at_now(self, sim):
        machines, net = make_net(sim)
        seen = self._arrivals(sim, net, 0)
        sim.run(until=0.25)
        net.send_local(NetMessage(0, 0, "x", 10))
        net.send_local(NetMessage(0, 0, "y", 10), loopback_delay=0.003)
        sim.run()
        assert seen == [(0.25, 0.25), (0.253, 0.253)]


class TestImpairments:
    def test_loss(self, sim):
        machines, net = make_net(sim, loss_rate=0.5)
        got = []
        net.attach(1, lambda m, t: got.append(m))
        for _ in range(400):
            net.send(NetMessage(0, 1, "x", 10))
        sim.run()
        assert 120 < len(got) < 280  # ~200 expected
        assert net.stats()["dropped_loss"] == 400 - len(got)

    def test_duplication(self, sim):
        machines, net = make_net(sim, duplicate_rate=0.5)
        got = []
        net.attach(1, lambda m, t: got.append(m))
        for _ in range(200):
            net.send(NetMessage(0, 1, "x", 10))
        sim.run()
        assert len(got) > 220  # some duplicates happened

    def test_partition_blocks_and_heals(self, sim):
        machines, net = make_net(sim)
        got = []
        net.attach(1, lambda m, t: got.append(m))
        net.links.partition({0}, {1})
        assert net.links.is_partitioned(0, 1) and net.links.is_partitioned(1, 0)
        net.send(NetMessage(0, 1, "x", 10))
        sim.run()
        assert got == []
        net.links.heal()
        net.send(NetMessage(0, 1, "y", 10))
        sim.run()
        assert len(got) == 1


class TestCrashSemantics:
    def test_crashed_sender_sends_nothing(self, sim):
        machines, net = make_net(sim)
        got = []
        net.attach(1, lambda m, t: got.append(m))
        machines[0].crash()
        net.send(NetMessage(0, 1, "x", 10))
        sim.run()
        assert got == []

    def test_crash_in_flight_drops_delivery(self, sim):
        machines, net = make_net(sim)
        got = []
        net.attach(1, lambda m, t: got.append(m))
        net.send(NetMessage(0, 1, "x", 10))  # arrives ~1ms
        machines[1].crash_at(0.0005)
        sim.run()
        assert got == []
        assert net.stats()["dropped_crashed_receiver"] == 1


class TestLinkImpairments:
    def _attach_counter(self, net, mid):
        received = []
        net.attach(mid, lambda msg, t: received.append((msg, t)))
        return received

    def test_link_loss_one_drops_everything(self, sim):
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, loss_rate=1.0)
        for _ in range(10):
            net.send(NetMessage(0, 1, "p", 100))
        sim.run()
        assert received == []
        assert net.stats()["dropped_loss"] == 10

    def test_link_loss_is_directional_when_asymmetric(self, sim):
        _machines, net = make_net(sim)
        got0 = self._attach_counter(net, 0)
        got1 = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, loss_rate=1.0, symmetric=False)
        net.send(NetMessage(0, 1, "p", 100))
        net.send(NetMessage(1, 0, "p", 100))
        sim.run()
        assert got1 == [] and len(got0) == 1

    def test_link_duplication_delivers_twice(self, sim):
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, duplicate_rate=1.0)
        net.send(NetMessage(0, 1, "p", 100))
        sim.run()
        assert len(received) == 2
        assert net.stats()["duplicated"] == 1

    def test_link_extra_latency_delays_arrival(self, sim):
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, extra_latency=0.050)
        net.send(NetMessage(0, 1, "p", 100))
        sim.run()
        ((_msg, arrival),) = received
        assert arrival >= 0.050

    def test_reorder_holds_messages_back(self, sim):
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, reorder_rate=1.0, reorder_delay=0.050)
        net.send(NetMessage(0, 1, "p", 100))
        sim.run()
        ((_msg, arrival),) = received
        assert arrival > 0.001  # held back beyond base latency + tx
        assert net.stats()["reordered"] == 1

    def test_clear_link_restores_delivery(self, sim):
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, loss_rate=1.0)
        net.links.clear_link(0, 1)
        assert net.links.link_impairment(0, 1) is None
        net.send(NetMessage(0, 1, "p", 100))
        sim.run()
        assert len(received) == 1

    def test_clear_links_removes_all(self, sim):
        _machines, net = make_net(sim)
        net.links.impair_link(0, 1, loss_rate=0.5)
        net.links.impair_link(1, 2, loss_rate=0.5)
        net.links.clear_links()
        assert net.links.link_impairment(0, 1) is None
        assert net.links.link_impairment(1, 2) is None

    def test_link_rates_compose_with_lan_rates(self, sim):
        _machines, net = make_net(sim, loss_rate=0.5)
        self._attach_counter(net, 1)
        net.links.impair_link(0, 1, loss_rate=0.5)
        for _ in range(200):
            net.send(NetMessage(0, 1, "p", 10))
        sim.run()
        assert net.stats()["dropped_loss"] == 200  # 0.5 + 0.5 clamps to 1

    def test_invalid_impairment_rejected(self, sim):
        _machines, net = make_net(sim)
        with pytest.raises(NetworkError):
            net.links.impair_link(0, 1, loss_rate=1.5)
        with pytest.raises(NetworkError):
            net.links.impair_link(0, 1, reorder_delay=-1.0)
        with pytest.raises(UnknownDestinationError):
            net.links.impair_link(0, 99, loss_rate=0.1)

    def test_global_extra_latency_applies_everywhere(self, sim):
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 2)
        net.links.extra_latency = 0.030
        net.send(NetMessage(0, 2, "p", 100))
        sim.run()
        ((_msg, arrival),) = received
        assert arrival >= 0.030

    def test_duplicate_pays_link_latency_too(self, sim):
        """A duplicate crosses the same impaired link as the original."""
        _machines, net = make_net(sim)
        received = self._attach_counter(net, 1)
        net.links.impair_link(0, 1, duplicate_rate=1.0, extra_latency=0.050)
        net.send(NetMessage(0, 1, "p", 100))
        sim.run()
        assert len(received) == 2
        assert all(arrival >= 0.050 for _msg, arrival in received)


class TestOneWayPartitions:
    def test_blocks_only_the_recorded_direction(self, sim):
        machines, net = make_net(sim)
        fwd, back = [], []
        net.attach(1, lambda m, t: fwd.append(m.payload))
        net.attach(0, lambda m, t: back.append(m.payload))
        net.links.partition_oneway({0}, {1})
        net.send(NetMessage(0, 1, "lost", 10))
        net.send(NetMessage(1, 0, "heard", 10))
        sim.run()
        assert fwd == []
        assert back == ["heard"]
        assert net.stats()["dropped_partition"] == 1

    def test_is_partitioned_is_directional(self, sim):
        machines, net = make_net(sim)
        net.links.partition_oneway({0, 2}, {1})
        assert net.links.is_partitioned(0, 1)
        assert net.links.is_partitioned(2, 1)
        assert not net.links.is_partitioned(1, 0)
        assert not net.links.is_partitioned(1, 2)
        assert not net.links.is_partitioned(0, 2)

    def test_heal_clears_oneway_too(self, sim):
        machines, net = make_net(sim)
        net.links.partition_oneway({0}, {1, 2})
        net.links.partition({0}, {2})
        net.links.heal()
        got = []
        net.attach(1, lambda m, t: got.append(m.payload))
        net.send(NetMessage(0, 1, "post-heal", 10))
        sim.run()
        assert got == ["post-heal"]

    def test_symmetric_partition_still_blocks_both_ways(self, sim):
        machines, net = make_net(sim)
        net.links.partition({0}, {1})
        assert net.links.is_partitioned(0, 1)
        assert net.links.is_partitioned(1, 0)
