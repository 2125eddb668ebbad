"""Benchmark X4 — the future-work extension: replacing consensus live.

Paper, Section 7: "we have actually already designed an algorithm to
replace consensus protocols".  Measures ABcast latency before/after a
live CT→CT consensus swap under load: the swap must not disturb the
service it sits beneath.
"""

import pytest

from conftest import QUICK, q, report
from repro.abcast import CtAbcastModule
from repro.consensus import CtConsensusModule
from repro.dpu import ReplConsensusModule
from repro.dpu.probes import DeliveryLog
from repro.fd import HeartbeatFd
from repro.kernel import Module, System, WellKnown
from repro.metrics import windowed_mean_latency
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.rbcast import RBCAST_SERVICE, RbcastModule
from repro.viz import render_table
from repro.workload import FixedPayload, LoadGeneratorModule


DURATION = q(10.0, 4.0)


def build_and_run(n=5, seed=14, duration=DURATION, load=100.0, swap_at=DURATION / 2):
    sys_ = System(n=n, seed=seed)
    net = SimNetwork(sys_.sim, sys_.machines, SwitchedLan())
    group = list(range(n))
    sys_.registry.register(
        "consensus-ct",
        lambda st, **kw: CtConsensusModule(st, group, **kw),
        provides=(WellKnown.CONSENSUS,),
        requires=(WellKnown.RP2P, WellKnown.FD, RBCAST_SERVICE),
        default_for=(WellKnown.CONSENSUS,),
    )
    log = DeliveryLog()

    class Probe(Module):
        REQUIRES = (WellKnown.ABCAST,)
        PROTOCOL = "probe"

        def __init__(self, stack):
            super().__init__(stack)
            self.subscribe(
                WellKnown.ABCAST,
                "adeliver",
                lambda o, p, s: log.note_delivery(p[0], self.stack_id, self.now),
            )

    repls = []
    for st in sys_.stacks:
        st.add_module(UdpModule(st, net))
        st.add_module(Rp2pModule(st))
        st.add_module(HeartbeatFd(st, group))
        st.add_module(RbcastModule(st, group))
        st.add_module(CtConsensusModule(st, group))
        repl = ReplConsensusModule(st, sys_.registry, "consensus-ct")
        st.add_module(repl)
        repls.append(repl)
        st.add_module(
            CtAbcastModule(st, group, consensus_service=WellKnown.R_CONSENSUS)
        )
        st.add_module(Probe(st))
        st.add_module(
            LoadGeneratorModule(
                st,
                log,
                rate_per_sec=load / n,
                stop_at=duration,
                service=WellKnown.ABCAST,
                payload=FixedPayload(1024),
            )
        )
    sys_.sim.schedule_at(
        swap_at, repls[0].call, (WellKnown.R_CONSENSUS, "change_protocol", "consensus-ct")
    )
    sys_.run(until=duration + 3.0)
    return sys_, repls, log


@pytest.mark.benchmark(group="consensus-swap")
def test_consensus_replacement_under_load(benchmark):
    sys_, repls, log = benchmark.pedantic(
        build_and_run, rounds=1, iterations=1
    )
    before = windowed_mean_latency(log, 1.0, DURATION / 2)
    after = windowed_mean_latency(log, DURATION / 2 + 1.0, DURATION)
    rows = [
        ("latency before swap [ms]", before * 1e3),
        ("latency after swap [ms]", after * 1e3),
        ("stacks switched", sum(r.counters.get("switches") for r in repls)),
    ]
    report(
        "consensus_swap_x4",
        render_table(["metric", "value"], rows, title="X4 — live consensus swap"),
    )
    assert all(r.counters.get("switches") == 1 for r in repls)
    # The layer above (ABcast) keeps its latency profile across the swap.
    if not QUICK:
        assert after == pytest.approx(before, rel=0.5)
