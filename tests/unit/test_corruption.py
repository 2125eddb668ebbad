"""Unit tests: the wire-corruption link model and its containment checker.

Two regimes, both exercised in both directions:

* ``checksum=True`` (default) — corruption is **tolerated**: the
  receiver NIC detects the mangled frame and drops it; reliable layers
  retransmit; the containment checker stays quiet.
* ``checksum=False`` — mangled frames are **delivered** wrapped in
  :class:`CorruptedPayload`; the network counts the breach, the UDP
  doorway defensively discards the garbage, and the containment checker
  flags the run.
"""

import pytest

from repro.dpu.abcast_checker import check_corruption_containment
from repro.kernel import Module, System, WellKnown
from repro.net import (
    CorruptedPayload,
    NetMessage,
    SimNetwork,
    SwitchedLan,
    UdpModule,
)
from repro.sim import ConstantLatency, Machine


def make_net(sim, n=3, **lan_kwargs):
    lan_kwargs.setdefault("latency", ConstantLatency(0.001))
    machines = [Machine(sim, i) for i in range(n)]
    return machines, SimNetwork(sim, machines, SwitchedLan(**lan_kwargs))


def blast(net, sim, count=400, src=0, dst=1):
    got = []
    net.attach(dst, lambda m, t: got.append(m.payload))
    for i in range(count):
        net.send(NetMessage(src, dst, f"m{i}", 100))
    sim.run()
    return got


class TestNetworkCorruption:
    def test_checksum_on_detects_and_drops(self, sim):
        _machines, net = make_net(sim)
        net.links.corrupt_rate = 0.25
        got = blast(net, sim)
        stats = net.stats()
        # Seeded draws: deterministic counts, all corrupted frames dropped.
        assert stats["corrupted"] > 0
        assert stats["corrupted_dropped"] == stats["corrupted"]
        assert "corrupted_delivered" not in stats  # zero => key omitted
        assert len(got) == 400 - stats["corrupted"]
        assert not any(isinstance(p, CorruptedPayload) for p in got)

    def test_checksum_off_delivers_wrapped_garbage(self, sim):
        _machines, net = make_net(sim)
        net.links.corrupt_rate = 0.25
        net.links.checksum = False
        got = blast(net, sim)
        stats = net.stats()
        assert stats["corrupted"] > 0
        assert stats["corrupted_delivered"] == stats["corrupted"]
        assert "corrupted_dropped" not in stats
        assert len(got) == 400  # nothing dropped: the damage arrives
        wrapped = [p for p in got if isinstance(p, CorruptedPayload)]
        assert len(wrapped) == stats["corrupted"]
        # The original payload survives inside the wrapper (diagnostics).
        assert all(str(w.original).startswith("m") for w in wrapped)

    def test_seeded_counts_are_deterministic(self):
        from repro.sim import Simulator

        def run():
            sim = Simulator(seed=42)
            _machines, net = make_net(sim)
            net.links.corrupt_rate = 0.1
            blast(net, sim)
            return net.stats()

        assert run() == run()

    def test_per_link_rate_composes_with_floor(self, sim):
        _machines, net = make_net(sim)
        net.links.corrupt_rate = 0.05
        net.links.impair_link(0, 1, corrupt_rate=0.2)
        got_impaired = blast(net, sim)
        corrupted_01 = net.stats()["corrupted"]
        assert corrupted_01 > 0
        # The 0→2 link only has the floor: far fewer corruptions.
        got_floor = blast(net, sim, dst=2)
        assert net.stats()["corrupted"] - corrupted_01 < corrupted_01
        assert len(got_floor) > len(got_impaired)

    def test_zero_rate_never_draws(self, sim):
        _machines, net = make_net(sim)
        got = blast(net, sim)
        stats = net.stats()
        assert "corrupted" not in stats
        assert len(got) == 400

    def test_corrupt_rate_validated(self, sim):
        from repro.errors import NetworkError

        _machines, net = make_net(sim)
        with pytest.raises(NetworkError):
            net.links.impair_link(0, 1, corrupt_rate=1.5)


class UdpApp(Module):
    REQUIRES = (WellKnown.UDP,)
    PROTOCOL = "udp-app"

    def __init__(self, stack):
        super().__init__(stack)
        self.got = []
        self.subscribe(
            WellKnown.UDP, "deliver", lambda s, p, z: self.got.append((s, p, z))
        )


class TestUdpDoorway:
    def test_garbage_discarded_at_the_module_boundary(self):
        # Checksum off: the network delivers wrapped garbage; the UDP
        # module must drop it (garbage fails frame parsing) rather than
        # hand corrupted bytes to a typed protocol handler.
        sys_ = System(n=2, seed=0)
        net = SimNetwork(
            sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.001))
        )
        net.links.corrupt_rate = 0.5
        net.links.checksum = False
        udps = []
        apps = []
        for st in sys_.stacks:
            udp = UdpModule(st, net)
            st.add_module(udp)
            udps.append(udp)
            app = UdpApp(st)
            st.add_module(app)
            apps.append(app)
        for i in range(100):
            apps[0].call(WellKnown.UDP, "send", 1, f"p{i}", 50)
        sys_.run()
        assert udps[1].garbage_dropped > 0
        assert udps[1].garbage_dropped == net.stats()["corrupted_delivered"]
        assert len(apps[1].got) == 100 - udps[1].garbage_dropped
        assert all(isinstance(p, str) for _s, p, _z in apps[1].got)


class TestContainmentChecker:
    def test_quiet_when_nothing_delivered(self):
        assert check_corruption_containment({}) == []
        assert (
            check_corruption_containment(
                {"corrupted": 5, "corrupted_dropped": 5}, checksum=True
            )
            == []
        )

    def test_flags_breach_with_checksum_on(self):
        violations = check_corruption_containment(
            {"corrupted": 5, "corrupted_delivered": 2}, checksum=True
        )
        assert len(violations) == 1
        assert "slipped past" in violations[0]

    def test_flags_breach_with_checksum_off(self):
        violations = check_corruption_containment(
            {"corrupted": 5, "corrupted_delivered": 5}, checksum=False
        )
        assert len(violations) == 1
        assert "no checksum" in violations[0]
