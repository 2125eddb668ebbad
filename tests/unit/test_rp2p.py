"""Unit tests: reliable FIFO point-to-point channels."""


import pytest

from repro.kernel import Module, System, WellKnown
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.sim import ConstantLatency


def build(n=2, loss=0.0, dup=0.0, seed=5, ack_delay=0.0):
    sys_ = System(n=n, seed=seed)
    lan = SwitchedLan(
        latency=ConstantLatency(0.0002), loss_rate=loss, duplicate_rate=dup
    )
    net = SimNetwork(sys_.sim, sys_.machines, lan)

    class App(Module):
        REQUIRES = (WellKnown.RP2P,)
        PROTOCOL = "app"

        def __init__(self, stack):
            super().__init__(stack)
            self.got = []
            self.subscribe(
                WellKnown.RP2P, "deliver", lambda s, p, z: self.got.append((s, p))
            )

    apps, rp2ps = [], []
    for st in sys_.stacks:
        st.add_module(UdpModule(st, net))
        rp = Rp2pModule(st, ack_delay=ack_delay)
        st.add_module(rp)
        rp2ps.append(rp)
        a = App(st)
        st.add_module(a)
        apps.append(a)
    return sys_, net, apps, rp2ps


class TestReliableDelivery:
    def test_basic_send(self):
        sys_, net, apps, rp2ps = build()
        apps[0].call(WellKnown.RP2P, "send", 1, "hello", 64)
        sys_.run(until=1.0)
        assert apps[1].got == [(0, "hello")]

    def test_fifo_order_no_loss(self):
        sys_, net, apps, rp2ps = build()
        for i in range(20):
            apps[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_.run(until=1.0)
        assert [p for _s, p in apps[1].got] == list(range(20))

    def test_fifo_exactly_once_under_heavy_loss(self):
        sys_, net, apps, rp2ps = build(loss=0.4)
        for i in range(30):
            apps[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_.run(until=20.0)
        assert [p for _s, p in apps[1].got] == list(range(30))
        assert rp2ps[0].counters.get("retransmissions") > 0
        assert rp2ps[0].unacked_count() == 0

    def test_exactly_once_under_duplication(self):
        sys_, net, apps, rp2ps = build(dup=0.4)
        for i in range(30):
            apps[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_.run(until=20.0)
        assert [p for _s, p in apps[1].got] == list(range(30))

    def test_self_send_delivers_locally(self):
        sys_, net, apps, rp2ps = build()
        apps[0].call(WellKnown.RP2P, "send", 0, "me", 64)
        sys_.run(until=1.0)
        assert apps[0].got == [(0, "me")]
        assert net.stats().get("sent", 0) == 0  # never touched the wire

    def test_bidirectional_channels_independent(self):
        sys_, net, apps, rp2ps = build()
        apps[0].call(WellKnown.RP2P, "send", 1, "a", 64)
        apps[1].call(WellKnown.RP2P, "send", 0, "b", 64)
        sys_.run(until=1.0)
        assert apps[1].got == [(0, "a")]
        assert apps[0].got == [(1, "b")]


class TestAcks:
    def test_unacked_drains(self):
        sys_, net, apps, rp2ps = build()
        for i in range(5):
            apps[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_.run(until=1.0)
        assert rp2ps[0].unacked_count(1) == 0

    def test_delayed_acks_aggregate(self):
        sys_imm, _, apps_imm, rp_imm = build(ack_delay=0.0)
        for i in range(20):
            apps_imm[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_imm.run(until=1.0)
        immediate_acks = rp_imm[1].counters.get("acks_sent")

        sys_del, _, apps_del, rp_del = build(ack_delay=0.002)
        for i in range(20):
            apps_del[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_del.run(until=1.0)
        delayed_acks = rp_del[1].counters.get("acks_sent")
        assert delayed_acks < immediate_acks
        assert rp_del[0].unacked_count() == 0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the retransmission timer is not restarted when "
        "an ack makes progress (RFC 6298 section 5.3), so every RTO resends "
        "the in-flight frames of a loss-free stream (8 here)",
    )
    def test_a_loss_free_stream_is_never_retransmitted(self):
        sys_, net, apps, rp2ps = build(ack_delay=0.001)
        for i in range(200):
            apps[0].call(WellKnown.RP2P, "send", 1, i, 64)
            sys_.run(until=sys_.sim.now + 0.001)
        sys_.run(until=sys_.sim.now + 1.0)
        assert [p for _s, p in apps[1].got] == list(range(200))
        assert rp2ps[0].counters.get("retransmissions") == 0
        assert rp2ps[1].counters.get("duplicates_dropped") == 0

    def test_retransmit_to_crashed_peer_stops_mattering(self):
        sys_, net, apps, rp2ps = build()
        sys_.machines[1].crash()
        apps[0].call(WellKnown.RP2P, "send", 1, "lost", 64)
        sys_.run(until=2.0)
        # The message is never acked; rp2p keeps it buffered (crash-stop).
        assert rp2ps[0].unacked_count(1) == 1
        assert apps[1].got == []


class TestDedup:
    def test_stale_duplicates_dropped(self):
        sys_, net, apps, rp2ps = build(loss=0.3, seed=11)
        for i in range(20):
            apps[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_.run(until=20.0)
        deliveries = [p for _s, p in apps[1].got]
        assert deliveries == sorted(set(deliveries))
