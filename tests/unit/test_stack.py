"""Unit tests: stack dispatch semantics — calls, blocking, responses, buffering.

These pin down the exact kernel behaviours the replacement algorithm
relies on (paper, Sections 2-3): blocked calls released on bind, unbound
modules still responding, unclaimed responses completed when the matching
module is added.
"""

import pytest

from repro.errors import KernelError, ModuleNotInStackError, UnknownServiceError
from repro.kernel import Module, NOT_MINE, NULL_TRACE, Stack, System, TraceKind, TraceRecorder
from repro.sim import Machine, Simulator


class Echo(Module):
    PROVIDES = ("echo",)
    PROTOCOL = "echo"

    def __init__(self, stack, reply=True):
        super().__init__(stack)
        self.reply = reply
        self.calls = []
        self.export_call("echo", "ping", self._ping)
        self.export_query("echo", "count", lambda: len(self.calls))

    def _ping(self, value):
        self.calls.append(value)
        if self.reply:
            self.respond("echo", "pong", value)


class Listener(Module):
    REQUIRES = ("echo",)
    PROTOCOL = "listener"

    def __init__(self, stack, claim=True):
        super().__init__(stack)
        self.claim = claim
        self.heard = []
        self.subscribe("echo", "pong", self._on_pong)

    def _on_pong(self, value):
        if not self.claim:
            return NOT_MINE
        self.heard.append(value)


@pytest.fixture
def stack(system):
    return system.stack(0)


class TestCalls:
    def test_call_dispatches_to_bound_module(self, system, stack):
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 42)
        system.run()
        assert echo.calls == [42]
        assert listener.heard == [42]

    def test_call_costs_cpu_time(self, system, stack):
        stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 1)
        system.run()
        assert system.sim.now == pytest.approx(
            stack.call_cost + stack.response_cost
        )

    def test_unknown_method_raises(self, system, stack):
        stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "nosuch")
        with pytest.raises(KernelError, match="no handler"):
            system.run()

    def test_calls_on_crashed_stack_dropped(self, system, stack):
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        stack.machine.crash()
        listener.call("echo", "ping", 1)
        system.run()
        assert echo.calls == []


class TestBlockedCalls:
    def test_call_on_unbound_service_blocks(self, system, stack):
        echo = stack.add_module(Echo(stack), bind=False)
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 7)
        system.run()
        assert echo.calls == []
        assert stack.blocked_call_count("echo") == 1
        blocked = system.trace.of_kind(TraceKind.CALL_BLOCKED)
        assert len(blocked) == 1

    def test_bind_releases_blocked_calls_in_order(self, system, stack):
        echo = stack.add_module(Echo(stack), bind=False)
        listener = stack.add_module(Listener(stack))
        for i in range(3):
            listener.call("echo", "ping", i)
        system.run()
        stack.bind("echo", echo)
        system.run()
        assert echo.calls == [0, 1, 2]
        assert stack.blocked_call_count("echo") == 0
        unblocked = system.trace.of_kind(TraceKind.CALL_UNBLOCKED)
        assert len(unblocked) == 3

    def test_in_flight_call_does_not_overtake_released_backlog(self):
        """A call whose CPU completion lands just after a bind must not
        jump ahead of calls issued earlier that blocked on the unbound
        service (regression: served [1, 0] instead of [0, 1]).

        The race needs the second call's dispatch completion (issue
        instant + call_cost) to land fractionally *after* the bind, so it
        carries an older heap seq than the released backlog's dispatch.
        """
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        echo = st.add_module(Echo(st), bind=False)
        listener = st.add_module(Listener(st))
        sys_.sim.schedule_at(0.0, listener.call, ("echo", "ping", 0))
        sys_.sim.schedule_at(0.99999, listener.call, ("echo", "ping", 1))
        sys_.sim.schedule_at(1.0, st.bind, ("echo", echo))
        sys_.run()
        assert echo.calls == [0, 1]
        assert st.blocked_call_count("echo") == 0

    def test_backlog_drains_after_crash_kills_pending_drain(self):
        """A crash that lands between a bind and its scheduled drain task
        must not wedge the backlog: the drain task died with the old
        incarnation, and the restart path re-starts it on recovery
        (regression: the drain-pending flag stayed set forever and the
        backlog was stuck even across later binds)."""
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        echo = st.add_module(Echo(st), bind=False)
        listener = st.add_module(Listener(st))
        listener.call("echo", "ping", 0)
        sys_.run()  # the call blocks on the unbound service
        st.bind("echo", echo)  # schedules the 0-cost drain task...
        st.machine.crash()  # ...which dies with the old incarnation
        assert echo.calls == []  # the drain really was killed
        st.machine.recover()  # restart protocol re-starts the drain
        sys_.run()
        assert echo.calls == [0]
        assert st.blocked_call_count("echo") == 0

    def test_blocked_time_is_accounted(self, system, stack):
        echo = stack.add_module(Echo(stack), bind=False)
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 1)
        system.run()
        system.sim.schedule(0.5, stack.bind, "echo", echo)
        system.run()
        assert stack.blocked_time_total == pytest.approx(0.5, abs=1e-3)

    def test_unbind_then_call_blocks_again(self, system, stack):
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        stack.unbind("echo")
        listener.call("echo", "ping", 5)
        system.run()
        assert echo.calls == []
        stack.bind("echo", echo)
        system.run()
        assert echo.calls == [5]


class TestResponses:
    def test_unbound_module_can_still_respond(self, system, stack):
        """Paper, Section 2: a module can respond even after unbind."""
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 1)
        system.run()
        stack.unbind("echo")
        echo.respond("echo", "pong", "late")
        system.run()
        assert "late" in listener.heard

    def test_response_to_all_subscribers(self, system, stack):
        stack.add_module(Echo(stack))
        l1 = stack.add_module(Listener(stack))
        l2 = stack.add_module(Listener(stack))
        l1.call("echo", "ping", 9)
        system.run()
        assert l1.heard == [9] and l2.heard == [9]

    def test_respond_on_unprovided_service_rejected(self, system, stack):
        listener = stack.add_module(Listener(stack))
        with pytest.raises(KernelError):
            listener.respond("echo", "pong", 1)


class TestResponseBuffering:
    def test_unclaimed_response_buffered_and_replayed(self, system, stack):
        """Paper, Section 2: responses complete when the module is added."""
        echo = stack.add_module(Echo(stack))
        echo.respond("echo", "pong", "early")
        system.run()
        assert stack.buffered_response_count("echo") == 1
        late_listener = stack.add_module(Listener(stack))
        system.run()
        assert late_listener.heard == ["early"]
        assert stack.buffered_response_count("echo") == 0

    def test_disclaimed_response_buffered(self, system, stack):
        echo = stack.add_module(Echo(stack))
        stack.add_module(Listener(stack, claim=False))
        echo.respond("echo", "pong", "nobody-wants-me")
        system.run()
        assert stack.buffered_response_count("echo") == 1
        claimer = stack.add_module(Listener(stack, claim=True))
        system.run()
        assert claimer.heard == ["nobody-wants-me"]

    def test_buffered_replay_preserves_order(self, system, stack):
        echo = stack.add_module(Echo(stack))
        for i in range(3):
            echo.respond("echo", "pong", i)
        system.run()
        listener = stack.add_module(Listener(stack))
        system.run()
        assert listener.heard == [0, 1, 2]


class TestQueries:
    def test_query_returns_synchronously(self, system, stack):
        stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 1)
        system.run()
        assert stack.query("echo", "count") == 1

    def test_query_unbound_raises(self, stack):
        with pytest.raises(UnknownServiceError):
            stack.query("echo", "count")

    def test_query_unknown_name_raises(self, system, stack):
        stack.add_module(Echo(stack))
        with pytest.raises(KernelError):
            stack.query("echo", "nosuch")


class TestModuleLifecycle:
    def test_duplicate_names_rejected(self, stack):
        stack.add_module(Echo(stack, reply=True))
        m2 = Echo(stack)
        m2.name = list(stack.modules)[0]
        with pytest.raises(KernelError):
            stack.add_module(m2, bind=False)

    def test_wrong_stack_rejected(self, system):
        s0, s1 = system.stack(0), system.stack(1)
        m = Echo(s0)
        with pytest.raises(KernelError):
            s1.add_module(m)

    def test_remove_unbinds_and_stops(self, system, stack):
        echo = stack.add_module(Echo(stack))
        stack.remove_module(echo.name)
        assert not stack.bindings.is_bound("echo")
        assert echo.stopped
        assert echo.name not in stack.modules

    def test_remove_missing_raises(self, stack):
        with pytest.raises(ModuleNotInStackError):
            stack.remove_module("ghost")

    def test_fresh_module_names_unique(self, stack):
        names = {Echo(stack).name for _ in range(5)}
        assert len(names) == 5

    def test_multiple_providers_one_bound(self, system, stack):
        e1 = stack.add_module(Echo(stack))
        e2 = stack.add_module(Echo(stack), bind=False)
        assert stack.bound_module("echo") is e1
        assert set(stack.modules_providing("echo")) == {e1, e2}


class TestHandlerRegistrationGuards:
    def test_export_call_requires_provides(self, stack):
        listener = Listener(stack)
        with pytest.raises(KernelError):
            listener.export_call("echo", "x", lambda: None)

    def test_subscribe_requires_requires(self, stack):
        echo = Echo(stack)
        with pytest.raises(KernelError):
            echo.subscribe("other", "ev", lambda: None)


class TestDispatchFastPath:
    """The cached-binding fast path must be observably identical to the
    uncached slow path: same providers, same ordering, correct
    invalidation on every rebind/re-registration."""

    def test_warm_cache_keeps_dispatching(self, system, stack):
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        for i in range(5):
            listener.call("echo", "ping", i)
        system.run()
        assert echo.calls == [0, 1, 2, 3, 4]

    def test_rebind_to_other_module_invalidates_cache(self, system, stack):
        e1 = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", "first")
        system.run()  # warm the (echo, ping) cache entry with e1
        stack.unbind("echo")
        e2 = stack.add_module(Echo(stack))  # binds e2
        listener.call("echo", "ping", "second")
        system.run()
        assert e1.calls == ["first"]
        assert e2.calls == ["second"]

    def test_reexported_handler_replaces_cached_one(self, system, stack):
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 1)
        system.run()  # cache now holds the original handler
        swapped = []
        echo.export_call("echo", "ping", swapped.append)
        listener.call("echo", "ping", 2)
        system.run()
        assert echo.calls == [1]
        assert swapped == [2]

    def test_dispatch_during_backlog_takes_slow_path(self, system):
        """A call on a *different* service while some backlog exists must
        still dispatch (the global blocked-counter guard is conservative,
        not wrong)."""
        stack = system.stack(0)
        dormant = stack.add_module(Echo(stack), bind=False)
        other = stack.add_module(OtherService(stack))
        stack.issue_call(None, "echo", "ping", (0,))  # blocks (unbound)
        system.run()
        assert stack.blocked_call_count() == 1
        stack.issue_call(None, "other", "go", ("x",))
        system.run()
        assert other.got == ["x"]  # dispatched despite the backlog
        stack.bind("echo", dormant)
        system.run()
        assert dormant.calls == [0]

    def test_negative_call_cost_rejected(self, system, stack):
        stack.add_module(Echo(stack))
        with pytest.raises(KernelError, match="negative call cost"):
            stack.issue_call(None, "echo", "ping", (1,), cost=-1.0)

    def test_nan_call_cost_rejected(self, system, stack):
        stack.add_module(Echo(stack))
        with pytest.raises(KernelError, match="negative call cost"):
            stack.issue_call(None, "echo", "ping", (1,), cost=float("nan"))
        assert system.sim.pending_events == 0

    def test_nan_response_cost_rejected(self, system, stack):
        echo = stack.add_module(Echo(stack))
        with pytest.raises(KernelError, match="negative response cost"):
            stack.issue_response(echo, "echo", "pong", (1,), cost=float("nan"))
        assert system.sim.pending_events == 0

    def test_dispatch_counters(self, system, stack):
        echo = stack.add_module(Echo(stack))
        listener = stack.add_module(Listener(stack))
        listener.call("echo", "ping", 1)  # 1 call -> 1 response (pong)
        system.run()
        assert stack.calls_issued == 1
        assert stack.responses_issued == 1
        assert echo.calls == [1]


class OtherService(Module):
    PROVIDES = ("other",)
    PROTOCOL = "other"

    def __init__(self, stack):
        super().__init__(stack)
        self.got = []
        self.export_call("other", "go", self.got.append)


class TestBatchedDrain:
    """Blocked-call backlogs drain as a chain of 0-cost CPU tasks, one
    per released call: each task pops one call, re-arms the next, then
    invokes.  (The ids predate the chain-only drain, when a quiet release
    ran the whole backlog in one task; they are kept for continuity.)"""

    def test_quiet_release_uses_one_task(self):
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        echo = st.add_module(Echo(st, reply=False), bind=False)
        for i in range(5):
            st.issue_call(None, "echo", "ping", (i,))
        sys_.run()
        before = st.machine.tasks_executed
        st.bind("echo", echo)
        sys_.run()
        assert echo.calls == [0, 1, 2, 3, 4]
        assert st.machine.tasks_executed - before == 5  # one drain task per call
        assert st.blocked_call_count("echo") == 0

    def test_already_fired_same_instant_event_still_batches(self):
        """A same-instant event that fires *before* the drain task leaves
        the chain as it is: one drain task per released call."""
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        echo = st.add_module(Echo(st, reply=False), bind=False)
        for i in range(3):
            st.issue_call(None, "echo", "ping", (i,))
        sys_.run()
        interleaved = []
        sys_.sim.schedule_at(1.0, st.bind, ("echo", echo))
        sys_.sim.schedule_at(1.0, interleaved.append, ("bystander",))
        before = st.machine.tasks_executed
        sys_.run()
        assert echo.calls == [0, 1, 2]
        assert interleaved == ["bystander"]
        assert st.machine.tasks_executed - before == 3  # one drain task per call

    def test_handler_scheduling_same_instant_work_falls_back_to_chain(self):
        """A drained handler's zero-delay work interleaves with the chain:
        the next backlog call is served before the handler's same-instant
        work, the rest after it."""
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        order = []

        class Noisy(Module):
            PROVIDES = ("svc",)
            PROTOCOL = "noisy"

            def __init__(self, stack):
                super().__init__(stack)
                self.export_call("svc", "go", self._go)

            def _go(self, value):
                order.append(("call", value))
                if value == 0:
                    self.set_timer(0.0, order.append, ("timer", value))

        mod = st.add_module(Noisy(st), bind=False)
        for i in range(3):
            st.issue_call(None, "svc", "go", (i,))
        sys_.run()
        before = st.machine.tasks_executed
        st.bind("svc", mod)
        sys_.run()
        # Chain order: c0 invoked, c1's drain was armed before c0's
        # handler ran (so c1 beats the timer), then the timer, then c2.
        assert order == [("call", 0), ("call", 1), ("timer", 0), ("call", 2)]
        assert st.machine.tasks_executed - before == 3  # one drain task per call

    def test_unbind_mid_drain_pauses_until_next_bind(self):
        """A released handler that unbinds its own service must stop the
        drain: the rest of the backlog waits for the next bind."""
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)

        class SelfUnbinder(Module):
            PROVIDES = ("svc",)
            PROTOCOL = "selfunbinder"

            def __init__(self, stack):
                super().__init__(stack)
                self.calls = []
                self.export_call("svc", "go", self._go)

            def _go(self, value):
                self.calls.append(value)
                if value == 0:
                    self.stack.unbind("svc")

        mod = st.add_module(SelfUnbinder(st), bind=False)
        for i in range(3):
            st.issue_call(None, "svc", "go", (i,))
        sys_.run()
        st.bind("svc", mod)
        sys_.run()
        assert mod.calls == [0]  # the handler unbound itself mid-drain
        assert st.blocked_call_count("svc") == 2
        st.bind("svc", mod)
        sys_.run()
        assert mod.calls == [0, 1, 2]

    def test_cpu_occupying_handler_falls_back_to_chain(self):
        """A drained handler that issues CPU-costing work queues behind
        the already re-armed drain task: the drain task after it starts
        only when the CPU frees (regression: a batched drain once kept
        draining at the release instant, shifting every later dispatch
        ~one call cost earlier)."""
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        events = []

        class Busy(Module):
            PROVIDES = ("svc",)
            PROTOCOL = "busy"

            def __init__(self, stack):
                super().__init__(stack)
                self.export_call("svc", "go", self._go)
                self.export_call("svc", "follow", self._follow)

            def _go(self, value):
                events.append(("go", value, round(self.now * 1e6)))
                self.call("svc", "follow", value)  # default (nonzero) cost

            def _follow(self, value):
                events.append(("follow", value, round(self.now * 1e6)))

        mod = st.add_module(Busy(st), bind=False)
        for i in range(3):
            st.issue_call(None, "svc", "go", (i,))
        sys_.run()
        st.bind("svc", mod)
        sys_.run()
        # Timing of the one-task-per-call chain (call_cost = 10 us):
        # go2 waits for go0's follow-up to occupy the CPU; the follow-ups
        # then drain in FIFO completion order.
        assert events == [
            ("go", 0, 30), ("go", 1, 30), ("go", 2, 40),
            ("follow", 0, 50), ("follow", 1, 60), ("follow", 2, 60),
        ]

    def test_crash_mid_drain_stops_batch(self):
        """A handler that crashes the machine mid-drain must not drain the
        rest (the re-armed task dies with the epoch); recovery restarts
        the drain in the new incarnation."""
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)

        class Crasher(Module):
            PROVIDES = ("svc",)
            PROTOCOL = "crasher"

            def __init__(self, stack):
                super().__init__(stack)
                self.calls = []
                self.export_call("svc", "go", self._go)

            def _go(self, value):
                self.calls.append(value)
                if value == 0:
                    self.stack.machine.crash()

        mod = st.add_module(Crasher(st), bind=False)
        for i in range(3):
            st.issue_call(None, "svc", "go", (i,))
        sys_.run()
        st.bind("svc", mod)
        sys_.run()
        assert mod.calls == [0]
        assert st.blocked_call_count("svc") == 2
        st.machine.recover()  # restart protocol re-releases the backlog
        sys_.run()
        assert mod.calls == [0, 1, 2]


class TestStandaloneTraceModes:
    def test_default_is_null_trace(self):
        sim = Simulator(seed=0)
        st = Stack(Machine(sim, 0))
        assert st.trace is NULL_TRACE
        st.issue_call(None, "nosuch", "x", ())  # blocks silently, no records
        sim.run()
        assert len(NULL_TRACE) == 0

    def test_keep_filtered_recorder_still_records_blocks(self):
        """A structural recorder must keep blocked/unblocked records (and
        their lazily-built call ids) while dropping the call firehose."""
        sim = Simulator(seed=0)
        machine = Machine(sim, 3)
        recorder = TraceRecorder(keep=[TraceKind.CALL_BLOCKED, TraceKind.CALL_UNBLOCKED])
        st = Stack(machine, trace=recorder)
        echo = Echo(st, reply=False)
        st.add_module(echo, bind=False)
        st.issue_call(None, "echo", "ping", (9,))
        sim.run()
        st.bind("echo", echo)
        sim.run()
        records = recorder.of_kind(*TraceKind)
        assert [e.kind for e in records] == [TraceKind.CALL_BLOCKED, TraceKind.CALL_UNBLOCKED]
        assert [e.call_id for e in records] == ["3:1", "3:1"]


class TestQueryFastPath:
    """Query resolution follows the live binding and handler tables."""

    def _stack(self):
        sys_ = System(n=1, seed=0)
        st = sys_.stack(0)
        echo = st.add_module(Echo(st))
        return sys_, st, echo

    def test_cached_query_returns_live_data(self):
        sys_, st, echo = self._stack()
        assert st.query("echo", "count") == 0
        st.issue_call(None, "echo", "ping", ("a",))
        sys_.run()
        # The handler reads the provider's live state.
        assert st.query("echo", "count") == 1

    def test_bind_unbind_invalidate(self):
        sys_, st, echo = self._stack()
        st.query("echo", "count")
        st.unbind("echo")
        with pytest.raises(UnknownServiceError):
            st.query("echo", "count")
        # Re-bind a *different* provider: the query must resolve to it.
        other = Echo(st)
        st.add_module(other, bind=False)
        st.bind("echo", other)
        st.issue_call(None, "echo", "ping", ("b",))
        sys_.run()
        assert st.query("echo", "count") == 1  # other's count, not echo's
        assert echo.calls == []

    def test_reexport_invalidates_single_entry(self):
        sys_, st, echo = self._stack()
        assert st.query("echo", "count") == 0
        echo.export_query("echo", "count", lambda: 999)
        assert st.query("echo", "count") == 999

    def test_unknown_query_still_raises(self):
        sys_, st, echo = self._stack()
        with pytest.raises(KernelError):
            st.query("echo", "no-such-query")
