"""Microbenchmarks — substrate hot paths (pytest-benchmark timed loops).

These are classic repeated-measurement benchmarks (unlike the figure
regenerations, which are single deterministic simulations): event-loop
throughput, CPU-queue submission, kernel call dispatch, and the RP2P
message path.  They explain the end-to-end numbers of bench-e2e
(``benchmarks/e2e``), whose per-layer metrics measure the same layers
inside a whole campaign cell; they do not substitute for them.
"""

from dataclasses import replace

import pytest

from conftest import q
from repro.experiments import build_group_comm_system
from repro.kernel import Module, System, WellKnown
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.scenarios.spec import PAPER_SPEC
from repro.sim import ConstantLatency, Machine, Simulator

N_EVENTS = q(10_000, 1_000)
N_TASKS = q(5_000, 500)
N_CALLS = q(2_000, 200)
N_QUERIES = q(20_000, 2_000)
N_MSGS = q(500, 100)
FULLSTACK_SIM_SECONDS = q(2.0, 0.5)


@pytest.mark.benchmark(group="kernel-micro")
def test_event_loop_throughput(benchmark):
    def run():
        sim = Simulator(seed=0)
        for i in range(N_EVENTS):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == N_EVENTS


@pytest.mark.benchmark(group="kernel-micro")
def test_machine_execute_throughput(benchmark):
    def run():
        sim = Simulator(seed=0)
        machine = Machine(sim, 0)
        for _ in range(N_TASKS):
            machine.execute(1e-6, lambda: None)
        sim.run()
        return machine.tasks_executed

    assert benchmark(run) == N_TASKS


@pytest.mark.benchmark(group="kernel-micro")
def test_call_dispatch_throughput(benchmark):
    class Ping(Module):
        PROVIDES = ("p",)
        PROTOCOL = "ping"

        def __init__(self, stack):
            super().__init__(stack)
            self.count = 0
            self.export_call("p", "go", self._go)

        def _go(self):
            self.count += 1

    def run():
        sys_ = System(n=1, seed=0, trace_kinds=frozenset())
        st = sys_.stack(0)
        ping = st.add_module(Ping(st))
        for _ in range(N_CALLS):
            st.issue_call(None, "p", "go", (), cost=0.0)
        sys_.run()
        return ping.count

    assert benchmark(run) == N_CALLS


@pytest.mark.benchmark(group="kernel-micro")
def test_query_throughput(benchmark):
    """N synchronous queries against a bound provider.

    The shape consensus rounds hammer (``is_suspected`` asking the FD for
    its suspect list on every round): a zero-cost read through the
    binding and handler tables.
    """

    class Oracle(Module):
        PROVIDES = ("o",)
        PROTOCOL = "oracle"

        def __init__(self, stack):
            super().__init__(stack)
            self.export_query("o", "read", lambda: 42)

    def run():
        sys_ = System(n=1, seed=0, trace_kinds=frozenset())
        st = sys_.stack(0)
        st.add_module(Oracle(st))
        count = 0
        for _ in range(N_QUERIES):
            if st.query("o", "read") == 42:
                count += 1
        return count

    assert benchmark(run) == N_QUERIES


@pytest.mark.benchmark(group="kernel-micro")
def test_rp2p_message_path(benchmark):
    class Sink(Module):
        REQUIRES = (WellKnown.RP2P,)
        PROTOCOL = "sink"

        def __init__(self, stack):
            super().__init__(stack)
            self.count = 0
            self.subscribe(
                WellKnown.RP2P, "deliver", lambda s, p, z: setattr(self, "count", self.count + 1)
            )

    def run():
        sys_ = System(n=2, seed=0, trace_kinds=frozenset())
        net = SimNetwork(
            sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(1e-4))
        )
        sinks = []
        for st in sys_.stacks:
            st.add_module(UdpModule(st, net))
            st.add_module(Rp2pModule(st))
            snk = Sink(st)
            st.add_module(snk)
            sinks.append(snk)
        for i in range(N_MSGS):
            sinks[0].call(WellKnown.RP2P, "send", 1, i, 64)
        sys_.run(until=30.0)
        return sinks[1].count

    assert benchmark(run) == N_MSGS


@pytest.mark.benchmark(group="kernel-fullstack")
def test_full_stack_call_throughput(benchmark):
    """One full Figure-4 stack run, counted in kernel dispatches.

    Builds the complete group-communication stack (UDP → RP2P → FD →
    consensus → CT-ABcast → Repl) on three machines, drives the paper's
    workload through it, and counts every kernel call and response
    issued — the paper-shaped workload the dispatch fast path is tuned
    for, as opposed to the synthetic single-module loop of
    ``test_call_dispatch_throughput``.
    """

    def run():
        spec = replace(
            PAPER_SPEC, n=3, load_msgs_per_sec=120.0, duration=FULLSTACK_SIM_SECONDS
        )
        gcs = build_group_comm_system(spec, seed=7, trace="off")
        gcs.run(until=FULLSTACK_SIM_SECONDS)
        return sum(st.calls_issued + st.responses_issued for st in gcs.backend.stacks)

    assert benchmark(run) > 0
