"""Unit tests: the simulator's event heap — ordering and cancellation
across its cancellable and fire-and-forget entries."""

from repro.sim.events import PRIORITY_CONTROL, PRIORITY_LATE, PRIORITY_NORMAL


def handle_at(sim, time, fired, label, priority=PRIORITY_NORMAL):
    """Schedule ``fired.append(label)`` at *time* with a cancel handle."""
    return sim.schedule_at(time, fired.append, (label,), priority=priority, cancellable=True)


class TestOrdering:
    def test_time_order(self, sim):
        fired = []
        for time in (2.0, 1.0, 3.0):
            handle_at(sim, time, fired, time)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self, sim):
        fired = []
        handle_at(sim, 1.0, fired, "late", PRIORITY_LATE)
        handle_at(sim, 1.0, fired, "control", PRIORITY_CONTROL)
        handle_at(sim, 1.0, fired, "normal", PRIORITY_NORMAL)
        sim.run()
        assert fired == ["control", "normal", "late"]

    def test_fifo_among_equal_time_and_priority(self, sim):
        fired = []
        for i in range(10):
            handle_at(sim, 1.0, fired, i)
        sim.run()
        assert fired == list(range(10))

    def test_peek_time(self, sim):
        assert sim.peek_time() is None
        handle_at(sim, 5.0, [], "a")
        handle_at(sim, 2.0, [], "b")
        assert sim.peek_time() == 2.0


class TestCancellation:
    def test_cancel_removes_from_len(self, sim):
        h = handle_at(sim, 1.0, [], "x")
        assert sim.pending_events == 1
        sim.cancel(h)
        assert sim.pending_events == 0

    def test_cancelled_event_not_popped(self, sim):
        fired = []
        h1 = handle_at(sim, 1.0, fired, 1)
        handle_at(sim, 2.0, fired, 2)
        sim.cancel(h1)
        sim.run()
        assert fired == [2]
        assert sim.pending_events == 0 and sim.events_processed == 1

    def test_cancel_is_idempotent(self, sim):
        h = handle_at(sim, 1.0, [], "x")
        sim.cancel(h)
        sim.cancel(h)
        assert sim.pending_events == 0

    def test_cancel_releases_references(self, sim):
        h = sim.schedule_at(1.0, print, ("payload",), cancellable=True)
        sim.cancel(h)
        assert h.cancelled
        assert h.callback is None
        assert h.args == ()


class TestFastPath:
    """The fire-and-forget entries ``Simulator.schedule_at`` pushes without
    a handle obey the same ordering contract as cancellable ones."""

    def test_fast_entries_order_with_handles(self, sim):
        fired = []
        sim.schedule_at(2.0, fired.append, ("fast2",))
        handle_at(sim, 1.0, fired, "slow1")
        sim.schedule_at(1.0, fired.append, ("fast1-later",))
        handle_at(sim, 3.0, fired, "slow3")
        sim.run()
        assert fired == ["slow1", "fast1-later", "fast2", "slow3"]

    def test_fast_priority_breaks_ties(self, sim):
        fired = []
        sim.schedule_at(1.0, fired.append, ("late",), priority=PRIORITY_LATE)
        sim.schedule_at(1.0, fired.append, ("control",), priority=PRIORITY_CONTROL)
        sim.schedule_at(1.0, fired.append, ("normal",), priority=PRIORITY_NORMAL)
        sim.run()
        assert fired == ["control", "normal", "late"]

    def test_fifo_among_mixed_equal_entries(self, sim):
        fired = []
        for i in range(6):
            if i % 2:
                handle_at(sim, 1.0, fired, i)
            else:
                sim.schedule_at(1.0, fired.append, (i,))
        sim.run()
        assert fired == list(range(6))

    def test_len_counts_fast_entries(self, sim):
        sim.schedule_at(1.0, lambda: None)
        handle_at(sim, 2.0, [], "x")
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert sim.pending_events == 1

    def test_peek_time_sees_fast_entries(self, sim):
        handle_at(sim, 5.0, [], "x")
        sim.schedule_at(2.0, lambda: None)
        assert sim.peek_time() == 2.0


class TestCancelAfterFire:
    def test_cancel_of_fired_handle_keeps_count_consistent(self, sim):
        fired = []
        h = handle_at(sim, 1.0, fired, 1)
        handle_at(sim, 2.0, fired, 2)
        sim.run(until=1.0)
        assert fired == [1] and h.callback is None  # released on fire
        sim.cancel(h)  # late cancel: must be a no-op
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 2]
        assert sim.pending_events == 0
