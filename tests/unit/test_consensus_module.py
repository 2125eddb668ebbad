"""Unit tests: the consensus kernel module (membership, dedup, re-respond)."""

import pytest

from repro.consensus import CtConsensusModule
from repro.errors import PropertyViolation
from repro.fd import OracleFd
from repro.kernel import Module, System, WellKnown
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.rbcast import RbcastModule
from repro.sim import ConstantLatency


class App(Module):
    REQUIRES = (WellKnown.CONSENSUS,)
    PROTOCOL = "app"

    def __init__(self, stack):
        super().__init__(stack)
        self.decides = []
        self.subscribe(
            WellKnown.CONSENSUS, "decide", lambda iid, v, s: self.decides.append((iid, v))
        )


def build(n=3, seed=0):
    sys_ = System(n=n, seed=seed)
    net = SimNetwork(
        sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.0002))
    )
    group = list(range(n))
    apps, cts = [], []
    for st in sys_.stacks:
        st.add_module(UdpModule(st, net))
        st.add_module(Rp2pModule(st))
        st.add_module(OracleFd(st, group))
        st.add_module(RbcastModule(st, group))
        ct = CtConsensusModule(st, group)
        st.add_module(ct)
        cts.append(ct)
        a = App(st)
        st.add_module(a)
        apps.append(a)
    return sys_, apps, cts


class TestChanneling:
    def test_member_validation(self):
        sys_ = System(n=2, seed=0)
        with pytest.raises(ValueError):
            CtConsensusModule(sys_.stack(0), group=[1])


class TestDecisionHandling:
    def test_propose_after_decide_rereponds(self):
        sys_, apps, cts = build()
        for i, a in enumerate(apps):
            a.call(WellKnown.CONSENSUS, "propose", 0, f"v{i}", 32)
        sys_.run(until=2.0)
        first = list(apps[0].decides)
        # A late proposal for the decided instance re-emits the decision
        # (catch-up path for modules installed by a replacement).
        apps[0].call(WellKnown.CONSENSUS, "propose", 0, "late", 32)
        sys_.run(until=3.0)
        assert len(apps[0].decides) == len(first) + 1
        assert apps[0].decides[-1] == apps[0].decides[0]

    def test_conflicting_decides_raise(self):
        """The built-in agreement cross-check: a second decide frame with
        a different value is a safety bug and must not be masked."""
        sys_, apps, cts = build()
        ct0 = cts[0]
        ct0._on_rbcast(0, ("ct.dec", 7, "value-A", 8), 8)
        with pytest.raises(PropertyViolation, match="agreement"):
            ct0._on_rbcast(1, ("ct.dec", 7, "value-B", 8), 8)

    def test_duplicate_decides_ignored(self):
        sys_, apps, cts = build()
        ct0 = cts[0]
        ct0._on_rbcast(0, ("ct.dec", 7, "same", 8), 8)
        ct0._on_rbcast(1, ("ct.dec", 7, "same", 8), 8)
        assert ct0.counters.get("decisions") == 1

    def test_open_instances_gauge(self):
        sys_, apps, cts = build()
        apps[0].call(WellKnown.CONSENSUS, "propose", 0, "v", 32)
        sys_.run(until=0.001)
        # One proposer is not a majority: the instance stays open.
        assert cts[0].open_instances == 1
        for a in apps[1:]:
            a.call(WellKnown.CONSENSUS, "propose", 0, f"w{a.stack_id}", 32)
        sys_.run(until=3.0)
        # With a quorum of proposals it decides and is garbage-collected.
        assert cts[0].open_instances == 0
