"""Unit tests: Algorithm 1, line by line, against a scripted ABcast.

The fake ABcast module gives the tests total control over delivery
content and order, so every branch of the replacement algorithm is
exercised deterministically — including the concurrent-change anomaly of
the paper-literal variant documented in ``repro.dpu.repl``'s module
docstring.
"""

import pytest

from repro.dpu.repl import NEW_ABCAST, NIL, ReplAbcastModule
from repro.errors import ReplacementError
from repro.kernel import Module, System, WellKnown


class FakeAbcast(Module):
    """An ABcast provider the test drives by hand.

    ``abcast`` calls are captured in :attr:`sent`; the test delivers
    frames explicitly with :meth:`deliver` (to every instance of the
    protocol that is currently in a stack, in stack order — mimicking a
    totally ordered delivery)."""

    PROVIDES = (WellKnown.ABCAST,)
    PROTOCOL = "fake-abcast"

    instances: list = []  # class-level: all live instances, all stacks

    def __init__(self, stack, **kwargs):
        super().__init__(stack)
        self.sent = []
        self.export_call(WellKnown.ABCAST, "abcast", self.sent_append)
        FakeAbcast.instances.append(self)

    def sent_append(self, frame, size):
        self.sent.append(frame)

    def deliver(self, origin, frame, size=64):
        self.respond(WellKnown.ABCAST, "adeliver", origin, frame, size)


class AppSink(Module):
    REQUIRES = (WellKnown.R_ABCAST,)
    PROTOCOL = "sink"

    def __init__(self, stack):
        super().__init__(stack)
        self.delivered = []
        self.subscribe(
            WellKnown.R_ABCAST,
            "adeliver",
            lambda o, m, s: self.delivered.append(m),
        )


@pytest.fixture(autouse=True)
def _clear_fake_instances():
    FakeAbcast.instances = []
    yield
    FakeAbcast.instances = []


def build(guard=True, policy="drop", creation_cost=0.0, dedup=False):
    sys_ = System(n=1, seed=0)
    st = sys_.stack(0)
    sys_.registry.register(
        "fake-abcast",
        lambda stack, **kw: FakeAbcast(stack, **kw),
        provides=(WellKnown.ABCAST,),
        default_for=(WellKnown.ABCAST,),
    )
    fake = sys_.registry.create_module(st, "fake-abcast")
    repl = ReplAbcastModule(
        st,
        sys_.registry,
        initial_protocol="fake-abcast",
        guard_change_sn=guard,
        reissue_policy=policy,
        creation_cost=creation_cost,
        dedup_deliveries=dedup,
    )
    st.add_module(repl)
    app = AppSink(st)
    st.add_module(app)
    return sys_, st, fake, repl, app


class TestOrdinaryPath:
    def test_rabcast_adds_to_undelivered_and_forwards(self):
        """Lines 7-9."""
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "abcast", "m1", 64)
        sys_.run()
        assert repl.undelivered_count == 1
        assert len(fake.sent) == 1
        tag, sn, rid, m, size = fake.sent[0]
        assert (tag, sn, m) == (NIL, 0, "m1")

    def test_matching_sn_delivers_and_clears_undelivered(self):
        """Lines 17-21, local message."""
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "abcast", "m1", 64)
        sys_.run()
        fake.deliver(0, fake.sent[0])
        sys_.run()
        assert app.delivered == ["m1"]
        assert repl.undelivered_count == 0

    def test_remote_message_delivered_without_undelivered_entry(self):
        """Line 19's membership test only gates the removal, not rAdeliver."""
        sys_, st, fake, repl, app = build()
        fake.deliver(1, (NIL, 0, (1, 0), "remote", 64))
        sys_.run()
        assert app.delivered == ["remote"]

    def test_stale_sn_discarded(self):
        """Line 18."""
        sys_, st, fake, repl, app = build()
        repl.seq_number = 3
        fake.deliver(1, (NIL, 2, (1, 0), "old", 64))
        sys_.run()
        assert app.delivered == []
        assert repl.counters.get("stale_messages_discarded") == 1


class TestChangePath:
    def test_change_abcasts_request_through_current_protocol(self):
        """Lines 5-6."""
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "change_protocol", "fake-abcast")
        sys_.run()
        tag, sn, rid, prot = fake.sent[0]
        assert (tag, sn, prot) == (NEW_ABCAST, 0, "fake-abcast")

    def test_unknown_protocol_fails_fast(self):
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "change_protocol", "ghost")
        with pytest.raises(Exception):
            sys_.run()

    def test_switch_increments_rebinds_and_reissues(self):
        """Lines 10-16."""
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "abcast", "m1", 64)
        app.call(WellKnown.R_ABCAST, "abcast", "m2", 64)
        sys_.run()
        old = st.bound_module(WellKnown.ABCAST)
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run()
        assert repl.seq_number == 1                            # line 11
        new = st.bound_module(WellKnown.ABCAST)
        assert new is not old                                  # lines 12-14
        assert old.name in st.modules                          # unbind ≠ remove
        # lines 15-16: both undelivered messages re-issued with new sn
        reissues = [f for f in new.sent if f[0] == NIL]
        assert [(f[1], f[3]) for f in reissues] == [(1, "m1"), (1, "m2")]
        assert repl.counters.get("reissues") == 2

    def test_reissued_message_delivered_once(self):
        """Integrity across the switch: old-sn copy discarded, new-sn
        copy delivered."""
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "abcast", "m1", 64)
        sys_.run()
        original = fake.sent[0]
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run()
        new = st.bound_module(WellKnown.ABCAST)
        # old protocol delivers the original late -> discarded
        fake.deliver(0, original)
        sys_.run()
        assert app.delivered == []
        # new protocol delivers the reissue -> delivered exactly once
        new.deliver(0, new.sent[0])
        sys_.run()
        assert app.delivered == ["m1"]

    def test_delivered_message_not_reissued(self):
        """Line 19-20 removal prevents re-issue of delivered messages."""
        sys_, st, fake, repl, app = build()
        app.call(WellKnown.R_ABCAST, "abcast", "m1", 64)
        sys_.run()
        fake.deliver(0, fake.sent[0])
        sys_.run()
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run()
        new = st.bound_module(WellKnown.ABCAST)
        assert [f for f in new.sent if f[0] == NIL] == []

    def test_switch_with_creation_cost_blocks_calls_until_bind(self):
        sys_, st, fake, repl, app = build(creation_cost=0.050)
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run(until=0.001)
        assert st.bound_module(WellKnown.ABCAST) is None  # gap is real
        app.call(WellKnown.R_ABCAST, "abcast", "during-gap", 64)
        sys_.run(until=0.010)
        assert st.blocked_call_count(WellKnown.ABCAST) == 1
        sys_.run()  # creation completes, blocked call released
        new = st.bound_module(WellKnown.ABCAST)
        assert new is not None
        assert any(f[0] == NIL and f[3] == "during-gap" for f in new.sent)

    def test_message_sent_inside_creation_gap_not_reissued(self):
        """Regression (found by hypothesis): a message ABcast during the
        unbind→bind gap already carries the new sn and its blocked call
        is released at bind; reissuing it too would deliver it twice."""
        sys_, st, fake, repl, app = build(creation_cost=0.050)
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run(until=0.001)
        app.call(WellKnown.R_ABCAST, "abcast", "gap-msg", 64)
        sys_.run()  # switch completes, blocked call released
        new = st.bound_module(WellKnown.ABCAST)
        frames = [f for f in new.sent if f[0] == NIL and f[3] == "gap-msg"]
        assert len(frames) == 1  # sent exactly once, not also reissued
        assert repl.counters.get("reissues") == 0
        # and it is delivered exactly once end-to-end:
        new.deliver(0, frames[0])
        sys_.run()
        assert app.delivered == ["gap-msg"]

    def test_status_query(self):
        sys_, st, fake, repl, app = build()
        status = st.query(WellKnown.R_ABCAST, "status")
        assert status["seq_number"] == 0
        assert status["current_protocol"] == "fake-abcast"


class TestGuardedVariant:
    def test_stale_change_discarded(self):
        sys_, st, fake, repl, app = build(guard=True)
        repl.seq_number = 2
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run()
        assert repl.seq_number == 2  # no switch
        assert repl.counters.get("stale_changes_discarded") == 1

    def test_own_stale_change_dropped_under_drop_policy(self):
        sys_, st, fake, repl, app = build(guard=True, policy="drop")
        app.call(WellKnown.R_ABCAST, "change_protocol", "fake-abcast")
        sys_.run()
        my_change = fake.sent[0]
        # another switch happens first (e.g. someone else's change)
        fake.deliver(1, (NEW_ABCAST, 0, (1, 99), "fake-abcast"))
        sys_.run()
        new = st.bound_module(WellKnown.ABCAST)
        # now my own change arrives, stale
        new.deliver(0, my_change)
        sys_.run()
        assert repl.counters.get("changes_dropped_superseded") == 1
        assert len(repl._pending_changes) == 0

    def test_own_stale_change_reissued_under_reissue_policy(self):
        sys_, st, fake, repl, app = build(guard=True, policy="reissue")
        app.call(WellKnown.R_ABCAST, "change_protocol", "fake-abcast")
        sys_.run()
        my_change = fake.sent[0]
        fake.deliver(1, (NEW_ABCAST, 0, (1, 99), "fake-abcast"))
        sys_.run()
        new = st.bound_module(WellKnown.ABCAST)
        new.deliver(0, my_change)
        sys_.run()
        assert repl.counters.get("changes_reissued") == 1
        reissued = [f for f in new.sent if f[0] == NEW_ABCAST]
        assert reissued and reissued[0][1] == 1  # carries the current sn

    def test_invalid_policy_rejected(self):
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        with pytest.raises(ReplacementError):
            ReplAbcastModule(
                st, sys_.registry, initial_protocol="x", reissue_policy="maybe"
            )


class TestPaperLiteralAnomaly:
    """Without the sn guard (``repro.dpu.repl``), a stale change message is
    processed at an unsynchronised point; messages delivered by the new
    protocol at one stack before the stale change can be discarded at
    another stack after it — and never re-issued.

    Driving two Repl instances (two 'stacks') by hand over fake abcasts,
    we reproduce the divergence deterministically.
    """

    def _build_pair(self, guard):
        systems = []
        for _ in range(2):
            systems.append(build(guard=guard))
        return systems

    def test_literal_variant_can_lose_a_message(self):
        (sysA, stA, fakeA, replA, appA), (sysB, stB, fakeB, replB, appB) = (
            self._build_pair(guard=False)
        )
        # Stack A sends m via protocol v0; both stacks request changes
        # concurrently: c1 (applied first) and c2 (stale, applied late).
        appA.call(WellKnown.R_ABCAST, "abcast", "m", 64)
        sysA.run()
        c1 = (NEW_ABCAST, 0, (1, 0), "fake-abcast")
        c2 = (NEW_ABCAST, 0, (0, 99), "fake-abcast")

        # Both stacks process c1: switch to v1; A re-issues m with sn=1.
        for sys_, fake in ((sysA, fakeA), (sysB, fakeB)):
            fake.deliver(1, c1)
            sys_.run()
        newA = stA.bound_module(WellKnown.ABCAST)
        newB = stB.bound_module(WellKnown.ABCAST)
        m_reissue = [f for f in newA.sent if f[0] == NIL][0]
        assert m_reissue[1] == 1

        # Interleaving divergence: A delivers the re-issued m (sn=1 ==
        # seqNumber=1) BEFORE processing the stale c2...
        newA.deliver(0, m_reissue)
        sysA.run()
        assert appA.delivered == ["m"]
        newA.deliver(0, c2)       # literal: unguarded -> switches again
        sysA.run()
        assert replA.seq_number == 2

        # ...while B processes the stale c2 FIRST (seq -> 2), then the
        # re-issued m arrives with sn=1 and is discarded.
        newB.deliver(0, c2)
        sysB.run()
        assert replB.seq_number == 2
        newB.deliver(0, m_reissue)
        sysB.run()
        # m was removed from A's undelivered when A delivered it, so A's
        # second switch re-issues nothing: B never gets m.
        finalA = stA.bound_module(WellKnown.ABCAST)
        assert [f for f in finalA.sent if f[0] == NIL] == []
        assert appB.delivered == []  # uniform agreement violated

    def test_guarded_variant_discards_stale_change_consistently(self):
        (sysA, stA, fakeA, replA, appA), (sysB, stB, fakeB, replB, appB) = (
            self._build_pair(guard=True)
        )
        appA.call(WellKnown.R_ABCAST, "abcast", "m", 64)
        sysA.run()
        c1 = (NEW_ABCAST, 0, (1, 0), "fake-abcast")
        c2 = (NEW_ABCAST, 0, (0, 99), "fake-abcast")
        for sys_, fake in ((sysA, fakeA), (sysB, fakeB)):
            fake.deliver(1, c1)
            sys_.run()
        newA = stA.bound_module(WellKnown.ABCAST)
        newB = stB.bound_module(WellKnown.ABCAST)
        m_reissue = [f for f in newA.sent if f[0] == NIL][0]

        # Same adversarial interleaving as above:
        newA.deliver(0, m_reissue)
        newA.deliver(0, c2)
        sysA.run()
        newB.deliver(0, c2)       # guarded: stale change discarded
        newB.deliver(0, m_reissue)
        sysB.run()
        assert replA.seq_number == replB.seq_number == 1
        assert appA.delivered == ["m"]
        assert appB.delivered == ["m"]  # agreement preserved


class TestDedupOption:
    def test_dedup_suppresses_double_delivery(self):
        sys_, st, fake, repl, app = build(dedup=True)
        frame = (NIL, 0, (1, 0), "m", 64)
        fake.deliver(1, frame)
        fake.deliver(1, frame)
        sys_.run()
        assert app.delivered == ["m"]
        assert repl.counters.get("dedup_suppressed") == 1


class TestSwitchChain:
    """The per-version SwitchTask state machine and version chain."""

    def test_single_switch_task_lifecycle(self):
        sys_, st, fake, repl, app = build(creation_cost=0.050)
        assert repl.switch_chain == []
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run(until=0.010)
        (task,) = repl.switch_chain
        assert (task.version, task.protocol, task.state) == (1, "fake-abcast", "creating")
        assert task.ordered_at == task.creating_at  # started immediately
        sys_.run()
        assert task.state == "reissued"
        assert task.bound_at == task.reissued_at
        assert task.bound_at == pytest.approx(task.creating_at + 0.050)
        assert repl.protocol_trajectory() == [(0, "fake-abcast"), (1, "fake-abcast")]

    def test_status_exposes_chain(self):
        sys_, st, fake, repl, app = build()
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run()
        status = st.query(WellKnown.R_ABCAST, "status")
        assert status["pending_chain"] == 0
        assert [t["state"] for t in status["chain"]] == ["reissued"]
        assert status["chain"][0]["version"] == 1

    def test_paper_literal_pipelined_chain_queues_and_completes_in_order(self):
        """Guard off + a stale change mid-gap: the second task waits in
        state ``ordered`` behind the creating one, then the chain runs
        both — per-task version tags, not the live seq_number."""
        sys_, st, fake, repl, app = build(guard=False, creation_cost=0.050)
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run(until=0.010)
        # Second change (stale sn=0) delivered by the still-running old
        # module inside the creation gap.
        fake.deliver(1, (NEW_ABCAST, 0, (2, 0), "fake-abcast"))
        sys_.run(until=0.011)
        assert repl.seq_number == 2            # line 11 ran at ordering time
        states = [t.state for t in repl.switch_chain]
        assert states == ["creating", "ordered"]  # pipelined, serialised
        sys_.run()
        assert [t.state for t in repl.switch_chain] == ["reissued", "reissued"]
        v2 = repl.switch_chain[1]
        assert v2.creating_at > 0.049  # queued behind v1's creation
        assert v2.ordered_at < v2.creating_at
        # The bound module carries the *task's* version tag, v2 not v1.
        bound = st.bound_module(WellKnown.ABCAST)
        assert bound.name in st.modules
        assert repl.protocol_trajectory() == [
            (0, "fake-abcast"), (1, "fake-abcast"), (2, "fake-abcast")
        ]

    def test_crash_mid_chain_restart_resumes_whole_chain(self):
        """A crash while v1 is creating (with v2 already ordered) must
        resume the *chain*: v1's creation re-arms, v2 follows."""
        sys_, st, fake, repl, app = build(guard=False, creation_cost=0.050)
        fake.deliver(1, (NEW_ABCAST, 0, (1, 0), "fake-abcast"))
        sys_.run(until=0.010)
        fake.deliver(1, (NEW_ABCAST, 0, (2, 0), "fake-abcast"))
        sys_.run(until=0.020)
        assert [t.state for t in repl.switch_chain] == ["creating", "ordered"]
        st.machine.crash()
        sys_.run(until=0.200)
        # Dead incarnation: nothing moved, abcast still unbound.
        assert [t.state for t in repl.switch_chain] == ["creating", "ordered"]
        assert st.bound_module(WellKnown.ABCAST) is None
        st.machine.recover()
        sys_.run(until=0.200 + 0.049)
        assert [t.state for t in repl.switch_chain] == ["creating", "ordered"]
        sys_.run()
        assert [t.state for t in repl.switch_chain] == ["reissued", "reissued"]
        assert st.bound_module(WellKnown.ABCAST) is not None
        assert repl.seq_number == 2

    def test_multi_version_stale_classification(self):
        sys_, st, fake, repl, app = build()
        repl.seq_number = 3
        fake.deliver(1, (NIL, 2, (1, 0), "one-behind", 64))
        fake.deliver(1, (NIL, 1, (1, 1), "two-behind", 64))
        fake.deliver(1, (NIL, 5, (1, 2), "from-the-future", 64))
        sys_.run()
        assert repl.counters.get("stale_messages_discarded") == 3
        assert repl.counters.get("stale_multi_version") == 2
        assert repl.stale_gaps == {1: 1, 2: 1, -2: 1}

    def test_task_transitions_are_forward_only(self):
        from repro.dpu import SwitchTask
        task = SwitchTask(1, "p", (0, 0), 0.0)
        task.advance("creating", 1.0)
        task.advance("bound", 2.0)
        with pytest.raises(ReplacementError):
            task.advance("creating", 3.0)
        assert task.to_dict()["state"] == "bound"


class TestPipelinedAnomaly:
    """The paper-literal anomaly *under pipelining* (ISSUE 5 satellite):
    two overlapping changes, the second landing inside stack B's
    creation gap — B's chain genuinely pipelines (ordered behind
    creating) and uniform agreement still breaks without the guard,
    while the guarded variant stays consistent."""

    def _run(self, guard):
        (sysA, stA, fakeA, replA, appA) = build(guard=guard, creation_cost=0.050)
        (sysB, stB, fakeB, replB, appB) = build(guard=guard, creation_cost=0.050)
        # A's message m rides v0; c1 and c2 are concurrent changes (both
        # stamped sn=0; c2 ordered after c1 in v0's total order).
        appA.call(WellKnown.R_ABCAST, "abcast", "m", 64)
        sysA.run()
        c1 = (NEW_ABCAST, 0, (1, 0), "fake-abcast")
        c2 = (NEW_ABCAST, 0, (0, 99), "fake-abcast")

        # Both stacks process c1 and complete the v1 switch; A re-issues
        # m under sn=1.
        for sys_, fake in ((sysA, fakeA), (sysB, fakeB)):
            fake.deliver(1, c1)
            sys_.run()
        newA = stA.bound_module(WellKnown.ABCAST)
        newB = stB.bound_module(WellKnown.ABCAST)
        m_reissue = [f for f in newA.sent if f[0] == NIL][0]
        assert m_reissue[1] == 1

        # A delivers the re-issued m, THEN processes the stale c2.
        newA.deliver(0, m_reissue)
        sysA.run()
        newA.deliver(0, c2)
        sysA.run()

        # B processes the stale c2 FIRST — and (pipelining) the re-issued
        # m arrives while B is still creating the v2 module.
        newB.deliver(0, c2)
        sysB.run(until=sysB.sim.now + 0.010)
        if not guard:
            # The genuine pipelined shape: with a second change accepted
            # mid-window, B's v1 instance keeps delivering (unbound) but
            # the chain serialises v2 behind it.
            assert replB.seq_number == 2
        newB.deliver(0, m_reissue)
        sysB.run()
        sysA.run()
        return appA, appB, replA, replB

    def test_literal_variant_loses_m_under_pipelining(self):
        appA, appB, replA, replB = self._run(guard=False)
        assert replA.seq_number == replB.seq_number == 2
        assert appA.delivered == ["m"]
        assert appB.delivered == []  # uniform agreement violated
        # B classified the lost copy as a stale discard.
        assert replB.counters.get("stale_messages_discarded") >= 1

    def test_guard_prevents_the_pipelined_anomaly(self):
        appA, appB, replA, replB = self._run(guard=True)
        assert replA.seq_number == replB.seq_number == 1
        assert appA.delivered == ["m"]
        assert appB.delivered == ["m"]  # agreement preserved
