"""Property tests: RP2P gives FIFO exactly-once delivery under any loss."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Module, System, WellKnown
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.sim import ConstantLatency


class Collector(Module):
    REQUIRES = (WellKnown.RP2P,)
    PROTOCOL = "collector"

    def __init__(self, stack):
        super().__init__(stack)
        self.got = {}
        self.subscribe(
            WellKnown.RP2P,
            "deliver",
            lambda s, p, z: self.got.setdefault(s, []).append(p),
        )


@st.composite
def traffic(draw):
    """Random per-sender message counts and a loss rate."""
    n = draw(st.integers(min_value=2, max_value=4))
    counts = [draw(st.integers(min_value=0, max_value=12)) for _ in range(n)]
    loss = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, counts, loss, seed


class TestRp2pProperties:
    @given(traffic())
    @settings(max_examples=25, deadline=None)
    def test_fifo_exactly_once_to_every_peer(self, spec):
        n, counts, loss, seed = spec
        sys_ = System(n=n, seed=seed)
        net = SimNetwork(
            sys_.sim,
            sys_.machines,
            SwitchedLan(latency=ConstantLatency(0.0002), loss_rate=loss),
        )
        collectors = []
        for stck in sys_.stacks:
            stck.add_module(UdpModule(stck, net))
            stck.add_module(Rp2pModule(stck))
            c = Collector(stck)
            stck.add_module(c)
            collectors.append(c)
        for sender in range(n):
            for k in range(counts[sender]):
                for dst in range(n):
                    if dst != sender:
                        collectors[sender].call(
                            WellKnown.RP2P, "send", dst, (sender, k), 64
                        )
        sys_.run(until=60.0)
        for receiver in range(n):
            for sender in range(n):
                if sender == receiver:
                    continue
                expected = [(sender, k) for k in range(counts[sender])]
                assert collectors[receiver].got.get(sender, []) == expected


def _sender_pair():
    """Two stacks with RP2P over UDP; nothing runs, so nothing is acked
    unless a test feeds ``_on_ack`` by hand."""
    sys_ = System(n=2, seed=0)
    net = SimNetwork(sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.0002)))
    rp2ps = []
    for stck in sys_.stacks:
        stck.add_module(UdpModule(stck, net))
        rp = Rp2pModule(stck)
        stck.add_module(rp)
        rp2ps.append(rp)
    return rp2ps[0]


class TestCumulativeAckScan:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_exactly_the_frames_above_the_ack_stay_pending(self, data):
        """Stale, duplicate, out-of-order and beyond-the-window cumulative
        acks, interleaved with sends: after every ack exactly the frames
        in flight above it stay pending, and the timer runs iff any do."""
        rp = _sender_pair()
        sent, pending = 0, []
        for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
            if data.draw(st.booleans()):
                for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
                    rp._send(1, ("frame", sent), 64)
                    pending.append(sent)
                    sent += 1
            else:
                cum_ack = data.draw(st.integers(min_value=-2, max_value=sent + 2))
                rp._on_ack(1, cum_ack)
                pending = [s for s in pending if s > cum_ack]
            assert list(rp._unacked.get(1, {})) == pending
            assert rp.unacked_count(1) == len(pending)
            assert (1 in rp._retx_timer) == bool(pending)
