"""Unit tests: failure detectors."""

import pytest

from repro.kernel import Module, System, WellKnown
from repro.net import SimNetwork, SwitchedLan, UdpModule
from repro.fd import HeartbeatFd, OracleFd
from repro.sim import ConstantLatency, ms


class FdWatcher(Module):
    REQUIRES = (WellKnown.FD,)
    PROTOCOL = "fd-watcher"

    def __init__(self, stack):
        super().__init__(stack)
        self.events = []
        self.subscribe(WellKnown.FD, "suspect", lambda r: self.events.append(("suspect", r, self.now)))
        self.subscribe(WellKnown.FD, "restore", lambda r: self.events.append(("restore", r, self.now)))


def build_hb(n=3, seed=9, **fd_kwargs):
    sys_ = System(n=n, seed=seed)
    net = SimNetwork(sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.0002)))
    fds, watchers = [], []
    group = list(range(n))
    for st in sys_.stacks:
        st.add_module(UdpModule(st, net))
        fd = HeartbeatFd(st, group, **fd_kwargs)
        st.add_module(fd)
        w = FdWatcher(st)
        st.add_module(w)
        fds.append(fd)
        watchers.append(w)
    return sys_, fds, watchers


class TestHeartbeatFd:
    def test_no_suspicions_in_calm_run(self):
        sys_, fds, watchers = build_hb()
        sys_.run(until=3.0)
        assert all(not fd.suspects() for fd in fds)
        assert all(w.events == [] for w in watchers)

    def test_crashed_peer_eventually_suspected_by_all(self):
        sys_, fds, watchers = build_hb()
        sys_.machines[2].crash_at(1.0)
        sys_.run(until=3.0)
        for i in (0, 1):
            assert 2 in fds[i].suspects()
            assert ("suspect", 2) in [(k, r) for k, r, _t in watchers[i].events]

    def test_suspicion_latency_bounded_by_timeout_plus_period(self):
        sys_, fds, watchers = build_hb(timeout=ms(200), period=ms(50))
        sys_.machines[2].crash_at(1.0)
        sys_.run(until=3.0)
        t_suspect = [t for k, r, t in watchers[0].events if k == "suspect" and r == 2][0]
        assert 1.0 < t_suspect < 1.0 + 0.200 + 2 * 0.050 + 0.01

    def test_suspicion_is_permanent_for_crashed_peer(self):
        sys_, fds, watchers = build_hb()
        sys_.machines[2].crash_at(0.5)
        sys_.run(until=5.0)
        restores = [e for e in watchers[0].events if e[0] == "restore"]
        assert restores == []

    def test_queries(self):
        sys_, fds, watchers = build_hb()
        sys_.machines[1].crash_at(0.5)
        sys_.run(until=2.0)
        stack0 = sys_.stack(0)
        assert stack0.query(WellKnown.FD, "is_suspected", 1)
        assert 1 in stack0.query(WellKnown.FD, "suspects")

    def test_adaptive_timeout_grows_after_false_suspicion(self):
        # Partition briefly so heartbeats are lost, then heal: the FD
        # wrongly suspects, repents, and raises that peer's timeout.
        sys_, fds, watchers = build_hb(timeout=ms(150), period=ms(40))
        # grab the network from the udp module
        udp = next(m for m in sys_.stack(0).modules.values() if m.protocol == "udp")
        network = udp.network
        sys_.sim.schedule(1.0, network.links.partition, {0}, {1, 2})
        sys_.sim.schedule(1.5, network.links.heal)
        sys_.run(until=4.0)
        fd0 = fds[0]
        assert fd0.false_suspicions > 0
        assert fd0.current_timeout(1) > ms(150)
        assert not fd0.suspects()  # repented after heal

    def test_validation(self):
        sys_ = System(n=2, seed=0)
        with pytest.raises(ValueError):
            HeartbeatFd(sys_.stack(0), [0, 1], period=0.0)
        with pytest.raises(ValueError):
            HeartbeatFd(sys_.stack(0), [0, 1], backoff=0.5)


class TestHeartbeatRestart:
    """Crash-recovery: epoch-carrying heartbeats and tick re-arming."""

    def test_recovered_peer_is_restored_without_backoff_penalty(self):
        sys_, fds, watchers = build_hb()
        sys_.machines[2].crash_at(1.0)
        sys_.machines[2].recover_at(2.0)
        sys_.run(until=4.0)
        fd0 = fds[0]
        assert 2 not in fd0.suspects()  # the restart lifted the suspicion
        assert fd0.restarts_observed >= 1
        # A genuine restart is not a false suspicion: no adaptive backoff.
        assert fd0.false_suspicions == 0
        assert fd0.current_timeout(2) == fd0.initial_timeout
        events = [(k, r) for k, r, _t in watchers[0].events]
        assert events == [("suspect", 2), ("restore", 2)]

    def test_restarted_detector_rearms_its_tick(self):
        sys_, fds, watchers = build_hb()
        sys_.machines[0].crash_at(1.0)
        sys_.machines[0].recover_at(1.5)
        sys_.run(until=4.0)
        # The restarted detector keeps monitoring: it neither stalls nor
        # suspects the peers that kept running.
        assert fds[0].suspects() == frozenset()
        # And the peers lifted their (correct) suspicion of stack 0.
        assert all(0 not in fds[i].suspects() for i in (1, 2))

    def test_stale_incarnation_heartbeat_is_dropped(self):
        """Satellite regression: a heartbeat from a dead incarnation must
        not falsely restore (or refresh) a suspected peer."""
        sys_, fds, watchers = build_hb()
        fd0, fd2 = fds[0], fds[2]
        sys_.run(until=0.5)
        # Learn epoch 1 for peer 2 first, then replay an epoch-0 frame.
        fd0._on_udp(2, ("fd.hb", 2, 1), 12)
        dropped_before = fd0.stale_heartbeats_dropped
        heard_before = fd0._last_heard[2]
        fd0._on_udp(2, ("fd.hb", 2, 0), 12)
        assert fd0.stale_heartbeats_dropped == dropped_before + 1
        assert fd0._last_heard[2] == heard_before  # liveness not refreshed

    def test_dynamically_joined_peer_does_not_keyerror(self):
        """Satellite regression: ``_tick``/``current_timeout`` indexed the
        per-peer tables by rank and blew up for peers added after
        construction — exactly what a GM re-join produces."""
        sys_ = System(n=4, seed=11)
        net = SimNetwork(
            sys_.sim, sys_.machines, SwitchedLan(latency=ConstantLatency(0.0002))
        )
        fds = []
        for st in sys_.stacks:
            st.add_module(UdpModule(st, net))
            # Stack 3 is unknown to everyone at construction time.
            fd = HeartbeatFd(st, [0, 1, 2])
            st.add_module(fd)
            fds.append(fd)
        # current_timeout on an unknown rank: default, not KeyError.
        assert fds[0].current_timeout(3) == fds[0].initial_timeout
        fds[0].watch(3)
        assert 3 in fds[0].peers
        sys_.run(until=1.0)
        # Stack 3's heartbeats auto-register it at stacks 1 and 2 too.
        assert 3 in fds[1].peers and 3 in fds[2].peers
        sys_.run(until=2.0)
        assert all(not fd.suspects() for fd in fds)


class TestOracleFd:
    def test_scripted_suspicions(self):
        sys_ = System(n=2, seed=0)
        st = sys_.stack(0)
        fd = OracleFd(st, [0, 1], script=[(0.5, "suspect", 1), (1.0, "restore", 1)])
        st.add_module(fd)
        w = FdWatcher(st)
        st.add_module(w)
        sys_.run(until=2.0)
        assert [(k, r) for k, r, _t in w.events] == [("suspect", 1), ("restore", 1)]

    def test_manual_injection(self):
        sys_ = System(n=2, seed=0)
        st = sys_.stack(0)
        fd = OracleFd(st, [0, 1])
        st.add_module(fd)
        fd.inject_suspicion(1)
        assert fd.suspects() == {1}
        fd.inject_restore(1)
        assert fd.suspects() == frozenset()

    def test_never_suspects_self(self):
        sys_ = System(n=2, seed=0)
        st = sys_.stack(0)
        fd = OracleFd(st, [0, 1])
        st.add_module(fd)
        fd.inject_suspicion(0)
        assert fd.suspects() == frozenset()

    def test_bad_script_action(self):
        sys_ = System(n=2, seed=0)
        st = sys_.stack(0)
        fd = OracleFd(st, [0, 1], script=[(0.5, "explode", 1)])
        with pytest.raises(ValueError):
            st.add_module(fd)
