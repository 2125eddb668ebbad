"""Unit tests: the simulator engine."""

import pytest

from repro.errors import ScheduleInPastError, SimulationError
from repro.sim import PRIORITY_CONTROL, PRIORITY_LATE, Simulator


class TestScheduling:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(0.5, fired.append, "a")
        sim.schedule(0.25, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 0.5

    def test_schedule_at_absolute(self, sim):
        fired = []
        assert sim.schedule_at(1.5, fired.append, ("x",)) is None
        sim.run()
        assert fired == ["x"] and sim.now == 1.5

    def test_priority_breaks_ties_at_one_instant(self, sim):
        """PRIORITY_LATE fires after, PRIORITY_CONTROL before, the normal
        events of the same instant — whatever the scheduling order."""
        order = []
        sim.schedule_at(1.0, order.append, ("late",), priority=PRIORITY_LATE)
        sim.schedule(1.0, order.append, "normal")
        sim.schedule_at(1.0, order.append, ("control",), priority=PRIORITY_CONTROL)
        sim.run()
        assert order == ["control", "normal", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ScheduleInPastError):
            sim.schedule_at(0.5, lambda: None)

    def test_schedule_at_nan_rejected(self, sim):
        with pytest.raises(ScheduleInPastError, match="cannot schedule at nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_call_soon_runs_at_current_instant(self, sim):
        order = []

        def first():
            order.append("first")
            sim.call_soon(lambda: order.append("soon"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        # call_soon fires after everything already queued for that instant.
        assert order == ["first", "second", "soon"]
        assert sim.now == 1.0

    def test_cancel(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, fired.append, ("no",), cancellable=True)
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_of_a_non_handle_raises(self, sim):
        # Fire-and-forget scheduling returns None; cancelling that (or any
        # other non-handle) is a bug at the call site, never a silent no-op.
        with pytest.raises(SimulationError, match="cancellable=True"):
            sim.cancel(sim.schedule(1.0, lambda: None))


class TestRunControl:
    def test_until_inclusive_and_clock_advances(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock reaches the horizon
        sim.run(until=4.0)
        assert fired == [1, 3]

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_max_events_budget(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=5)

    def test_stop_from_callback(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, fired.append, "late")
        sim.run()
        assert fired == ["stop"]
        sim.run()  # resumable
        assert fired == ["stop", "late"]

    def test_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_exceptions_propagate(self, sim):
        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_at_end_hooks(self, sim):
        calls = []
        sim.at_end.append(lambda: calls.append("done"))
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert calls == ["done"]


class TestBookkeeping:
    def test_events_processed_counts(self, sim):
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_pending_events(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_trace_hook_called(self):
        seen = []
        sim = Simulator(seed=0, trace_hook=lambda t, h: seen.append(t))
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert seen == [0.5]

    def test_events_processed_is_live_mid_run(self, sim):
        """Callbacks (and probes) read an up-to-date count during run()."""
        seen = []
        for i in range(3):
            sim.schedule(float(i + 1), lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [1, 2, 3]
