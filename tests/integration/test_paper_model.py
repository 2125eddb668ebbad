"""The paper's Figures 1–3, as executable tests.

* **Figure 1** — protocols P, Q, R stacked over the network: P requires
  q, Q requires r, R requires the network.  Built on three stacks; a
  call travels down and the responses travel back up.
* **Figure 2** — service calls and responses: "responses can occur in
  one or many stacks"; a response is an invocation of the *consumer*
  module by the provider, locally or remotely.
* **Figure 3** — the module composition with the replacement module:
  consumers call ``r-p``; ``Repl-P`` requires ``p``; the updateable
  provider is bound to ``p`` and swapped without the consumers noticing.
"""

import pytest

from repro.kernel import Module, System, WellKnown
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.sim import ConstantLatency


class ProtocolR(Module):
    """Bottom protocol: provides r over the network (Fig. 1's R)."""

    PROVIDES = ("r",)
    REQUIRES = (WellKnown.RP2P,)
    PROTOCOL = "R"

    def __init__(self, stack, group):
        super().__init__(stack)
        self.group = group
        self.export_call("r", "spread", self._spread)
        self.subscribe(WellKnown.RP2P, "deliver", self._on_net)

    def _spread(self, m):
        for dst in self.group:
            self.call(WellKnown.RP2P, "send", dst, ("R", m), 64)

    def _on_net(self, src, payload, size):
        from repro.kernel import NOT_MINE

        if not (isinstance(payload, tuple) and payload[0] == "R"):
            return NOT_MINE
        self.respond("r", "arrived", src, payload[1])


class ProtocolQ(Module):
    """Middle protocol: provides q, requires r (Fig. 1's Q)."""

    PROVIDES = ("q",)
    REQUIRES = ("r",)
    PROTOCOL = "Q"

    def __init__(self, stack):
        super().__init__(stack)
        self.export_call("q", "publish", lambda m: self.call("r", "spread", ("q", m)))
        self.subscribe("r", "arrived", self._up)

    def _up(self, src, m):
        tag, inner = m
        self.respond("q", "notify", src, inner)


class ProtocolP(Module):
    """Top protocol: provides p, requires q (Fig. 1's P / Fig. 2's caller)."""

    PROVIDES = ("p",)
    REQUIRES = ("q",)
    PROTOCOL = "P"

    def __init__(self, stack):
        super().__init__(stack)
        self.responses = []
        self.export_call("p", "go", lambda m: self.call("q", "publish", m))
        self.subscribe("q", "notify", lambda src, m: self.responses.append((src, m)))


def build_figure1(n=3):
    sys_ = System(n=n, seed=91)
    net = SimNetwork(
        sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.0002))
    )
    group = list(range(n))
    ps = []
    for st in sys_.stacks:
        st.add_module(UdpModule(st, net))
        st.add_module(Rp2pModule(st))
        st.add_module(ProtocolR(st, group))
        st.add_module(ProtocolQ(st))
        p = ProtocolP(st)
        st.add_module(p)
        ps.append(p)
    return sys_, ps


class TestFigure1Architecture:
    def test_stacked_services_compose(self):
        sys_, ps = build_figure1()
        ps[0].call("p", "go", "hello")
        sys_.run(until=1.0)
        # The call descended P -> Q -> R -> network, and the responses
        # ascended on *every* stack (remote interaction of P1 with P2, P3).
        for p in ps:
            assert (0, "hello") in p.responses

    def test_bindings_one_per_service(self):
        sys_, ps = build_figure1()
        for st in sys_.stacks:
            for service in ("p", "q", "r"):
                assert st.bound_module(service) is not None


class TestFigure2CallsAndResponses:
    def test_responses_occur_in_one_or_many_stacks(self):
        sys_, ps = build_figure1()
        ps[1].call("p", "go", "multi")
        sys_.run(until=1.0)
        receivers = [i for i, p in enumerate(ps) if (1, "multi") in p.responses]
        assert receivers == [0, 1, 2]  # "responses can occur in one or many stacks"

    def test_unbound_provider_still_responds(self):
        """Fig. 2's note: Qi can respond even after being unbound."""
        sys_, ps = build_figure1()
        ps[0].call("p", "go", "before")
        sys_.run(until=1.0)
        q0 = sys_.stack(0).bound_module("q")
        sys_.stack(0).unbind("q")
        q0.respond("q", "notify", 9, "after-unbind")
        sys_.run(until=2.0)
        assert (9, "after-unbind") in ps[0].responses


class Impl(Module):
    """An updateable provider of ``p`` (Fig. 3's P1 or newP1)."""

    PROVIDES = ("p",)

    def __init__(self, stack, tag):
        super().__init__(stack, protocol=f"P-{tag}")
        self.tag = tag
        self.export_call("p", "ping", lambda: self.respond("p", "pong", self.tag))


class ReplP(Module):
    """Fig. 3's Repl-P reduced to its structure: provides ``r-p``,
    requires ``p``, and relays ``ping`` down and ``pong`` up verbatim."""

    PROVIDES = ("r-p",)
    REQUIRES = ("p",)
    PROTOCOL = "repl-p"

    def __init__(self, stack):
        super().__init__(stack)
        self.export_call("r-p", "ping", lambda *args: self.call("p", "ping", *args))
        self.subscribe("p", "pong", lambda *args: self.respond("r-p", "pong", *args))


class Consumer(Module):
    """Calls ``ping`` on *service* and collects the ``pong`` answers."""

    PROTOCOL = "consumer"

    def __init__(self, stack, service="r-p"):
        super().__init__(stack, requires=(service,))
        self.service = service
        self.pongs = []
        self.subscribe(service, "pong", self.pongs.append)

    def ping(self):
        self.call(self.service, "ping")


class TestFigure3Composition:
    def test_indirection_hides_the_swap_from_consumers(self):
        """Fig. 3 (right): consumers call r-p; Repl-P requires p; P1 is
        replaced by newP1 behind the indirection."""
        sys_ = System(n=1, seed=92)
        st = sys_.stack(0)
        st.add_module(Impl(st, "old"))
        st.add_module(ReplP(st))
        consumer = st.add_module(Consumer(st))
        consumer.ping()
        sys_.run()
        # Swap the provider behind the indirection:
        st.unbind("p")
        st.add_module(Impl(st, "new"))
        consumer.ping()
        sys_.run()
        assert consumer.pongs == ["old", "new"]
        # The consumer never referenced either implementation: its only
        # dependency is the indirection service.
        assert consumer.requires == ("r-p",)

    def test_extra_dispatch_cost_is_paid(self):
        """The indirection level costs exactly one extra call dispatch and
        one extra response dispatch — the structural price the paper
        measures as ≈5%."""

        def round_trip(service):
            sys_ = System(n=1, seed=92)
            st = sys_.stack(0)
            st.add_module(Impl(st, "old"))
            if service == "r-p":
                st.add_module(ReplP(st))
            consumer = st.add_module(Consumer(st, service))
            consumer.ping()
            sys_.run()
            assert consumer.pongs == ["old"]
            return st, sys_.sim.now

        st, direct = round_trip("p")
        _, relayed = round_trip("r-p")
        assert direct == pytest.approx(st.call_cost + st.response_cost)
        assert relayed - direct == pytest.approx(st.call_cost + st.response_cost)
