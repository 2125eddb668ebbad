"""Unit tests: the kernel restart path (crash-recovery incarnations).

``Machine.recover()`` fires the restart hooks the kernel consumes:
``Stack.restart()`` gives every module its ``on_restart`` and re-starts
blocked-call drains that died with the old incarnation's CPU.
"""

from repro.kernel import Module, System, TraceKind
from repro.net import Rp2pModule, SimNetwork, SwitchedLan, UdpModule
from repro.sim import ConstantLatency


class TickModule(Module):
    """A module whose liveness depends on a periodic timer."""

    PROTOCOL = "ticker"

    def __init__(self, stack, period=0.1):
        super().__init__(stack)
        self.period = period
        self.ticks = []
        self.restarts = 0

    def on_start(self):
        self._tick()

    def on_restart(self):
        self.restarts += 1
        self._tick()

    def _tick(self):
        self.ticks.append(self.now)
        self.set_timer(self.period, self._tick)


class PlainModule(Module):
    """Message-driven module: relies on the default no-op on_restart."""

    PROTOCOL = "plain"


class TestStackRestart:
    def test_recover_reinvokes_on_restart_on_every_module(self):
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        ticker = st.add_module(TickModule(st))
        st.add_module(PlainModule(st))  # must not blow up (default no-op)
        sys_.run(until=0.55)
        assert len(ticker.ticks) == 6  # 0.0 .. 0.5
        st.machine.crash()
        sys_.run(until=1.0)
        n_at_crash = len(ticker.ticks)
        sys_.run(until=1.35)
        assert len(ticker.ticks) == n_at_crash  # timers died with the epoch
        st.machine.recover()
        sys_.run(until=2.0)
        assert ticker.restarts == 1
        assert len(ticker.ticks) > n_at_crash  # the wheel is re-armed

    def test_recover_records_trace_event_with_epoch(self):
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        st.machine.crash()
        st.machine.recover()
        recovers = sys_.trace.of_kind(TraceKind.RECOVER)
        assert [e.stack_id for e in recovers] == [0]
        assert recovers[0].get("epoch") == 1

    def test_machine_epoch_counts_incarnations(self):
        sys_ = System(n=1, seed=0)
        m = sys_.machine(0)
        assert m.epoch == 0
        m.crash()
        m.recover()
        m.crash()
        m.recover()
        assert m.epoch == 2
        assert m.last_recovered_at == sys_.sim.now

    def test_timer_of_old_epoch_never_fires_after_restart(self):
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        fired = []
        st.machine.set_timer(1.0, fired.append, ("old",))
        st.machine.crash()
        st.machine.recover()
        st.machine.set_timer(1.0, fired.append, ("new",))
        sys_.run(until=3.0)
        assert fired == ["new"]


class TestRp2pRestart:
    def _world(self, n=2):
        sys_ = System(n=n, seed=3)
        net = SimNetwork(
            sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.0002))
        )
        rp2ps = []
        for st in sys_.stacks:
            st.add_module(UdpModule(st, net))
            rp2p = Rp2pModule(st)
            st.add_module(rp2p)
            rp2ps.append(rp2p)
        return sys_, net, rp2ps

    def test_sender_retransmits_again_after_its_own_restart(self):
        """A sender that crashes with unacked frames re-arms its
        retransmission timers on recovery instead of never retrying."""
        sys_, net, rp2ps = self._world()
        # Partition so the send stays unacked, then crash the sender.
        net.links.partition({0}, {1})
        sys_.sim.schedule_at(0.1, rp2ps[0].call, ("rp2p", "send", 1, ("hello",), 10))
        sys_.sim.schedule_at(0.2, sys_.machines[0].crash)
        sys_.run(until=1.0)
        assert rp2ps[0].unacked_count(1) == 1
        retx_before = rp2ps[0].counters.get("retransmissions")
        sys_.machines[0].recover()
        net.links.heal()
        sys_.run(until=3.0)
        assert rp2ps[0].counters.get("retransmissions") > retx_before
        assert rp2ps[0].unacked_count(1) == 0  # delivered and acked
        assert rp2ps[1].counters.get("delivered") == 1
