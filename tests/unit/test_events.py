"""Unit tests: the deterministic event queue."""

import pytest

from repro.sim.events import (
    PRIORITY_CONTROL,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    EventQueue,
)
from repro.sim.process import Machine


def drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(2.0, lambda: None)
        q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        assert [h.time for h in drain(q)] == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None, priority=PRIORITY_LATE)
        b = q.push(1.0, lambda: None, priority=PRIORITY_CONTROL)
        c = q.push(1.0, lambda: None, priority=PRIORITY_NORMAL)
        assert drain(q) == [b, c, a]

    def test_fifo_among_equal_time_and_priority(self):
        q = EventQueue()
        handles = [q.push(1.0, lambda: None) for _ in range(10)]
        assert drain(q) == handles

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.peek_time() == 2.0


class TestCancellation:
    def test_cancel_removes_from_len(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        assert len(q) == 1
        q.cancel(h)
        assert len(q) == 0
        assert not q

    def test_cancelled_event_not_popped(self):
        q = EventQueue()
        h1 = q.push(1.0, lambda: None)
        h2 = q.push(2.0, lambda: None)
        q.cancel(h1)
        assert drain(q) == [h2]

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.cancel(h)
        q.cancel(h)
        assert len(q) == 0

    def test_cancel_releases_references(self):
        q = EventQueue()
        h = q.push(1.0, print, ("payload",))
        q.cancel(h)
        assert h.callback is None
        assert h.args == ()

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        h1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(h1)
        assert q.peek_time() == 2.0

    def test_clear(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(5)]
        q.clear()
        assert len(q) == 0
        assert all(h.cancelled for h in handles)


class TestErrors:
    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestFastPath:
    """The fire-and-forget entries ``Simulator.schedule_at`` pushes straight
    onto the queue's heap obey the same ordering contract as handles."""

    def test_fast_entries_order_with_handles(self, sim):
        q = sim._queue
        fired = []
        sim.schedule_at(2.0, fired.append, ("fast2",))
        q.push(1.0, fired.append, ("slow1",))
        sim.schedule_at(1.0, fired.append, ("fast1-later",))
        q.push(3.0, fired.append, ("slow3",))
        while q:
            h = q.pop()
            h.callback(*h.args)
        assert fired == ["slow1", "fast1-later", "fast2", "slow3"]

    def test_fast_priority_breaks_ties(self, sim):
        q = sim._queue
        fired = []
        sim.schedule_at(1.0, fired.append, ("late",), priority=PRIORITY_LATE)
        sim.schedule_at(1.0, fired.append, ("control",), priority=PRIORITY_CONTROL)
        sim.schedule_at(1.0, fired.append, ("normal",), priority=PRIORITY_NORMAL)
        while q:
            h = q.pop()
            h.callback(*h.args)
        assert fired == ["control", "normal", "late"]

    def test_fifo_among_mixed_equal_entries(self, sim):
        q = sim._queue
        fired = []
        for i in range(6):
            if i % 2:
                q.push(1.0, fired.append, (i,))
            else:
                sim.schedule_at(1.0, fired.append, (i,))
        while q:
            h = q.pop()
            h.callback(*h.args)
        assert fired == list(range(6))

    def test_pop_materialises_transient_handle(self, sim):
        q = sim._queue
        sim.schedule_at(1.5, print, ("x",), priority=PRIORITY_LATE)
        h = q.pop()
        assert (h.time, h.priority) == (1.5, PRIORITY_LATE)
        assert h.callback is print and h.args == ("x",)

    def test_cpu_task_surfaces_as_a_run_task_call(self, sim):
        """A Machine.execute entry is seen by pop() and a trace hook as
        the call ``node._run_task(epoch, fn, args)``."""
        machine = Machine(sim, 0)
        machine.execute(0.25, print, ("x",))
        q = sim._queue
        assert len(q) == 1 and q.peek_time() == 0.25
        h = q.pop()
        assert (h.time, h.priority, h.fired) == (0.25, PRIORITY_NORMAL, True)
        assert h.callback == machine._run_task and h.args == (0, print, ("x",))

        seen = []
        sim.trace_hook = lambda time, handle: seen.append((handle.callback, handle.args))
        machine.execute(0.0, seen.append, ("ran",))
        sim.run()
        assert seen == [(machine._run_task, (0, seen.append, ("ran",))), "ran"]

    def test_len_counts_fast_entries(self, sim):
        q = sim._queue
        sim.schedule_at(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_peek_time_sees_fast_entries(self, sim):
        q = sim._queue
        q.push(5.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert q.peek_time() == 2.0

    def test_clear_drops_fast_entries(self, sim):
        q = sim._queue
        sim.schedule_at(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.clear()
        assert len(q) == 0 and q.peek_time() is None


class TestCancelAfterFire:
    def test_cancel_of_fired_handle_keeps_count_consistent(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        other = q.push(2.0, lambda: None)
        fired = q.pop()
        assert fired is h
        fired.callback, fired.args = None, ()  # what the engine does on fire
        q.cancel(h)  # late cancel: must be a no-op
        assert len(q) == 1
        assert q.pop() is other
        assert len(q) == 0

    def test_cancel_of_popped_fast_entry_handle_is_noop(self, sim):
        """The transient handle pop() materialises for a fire-and-forget
        entry is already fired; cancelling it must not corrupt the count."""
        q = sim._queue
        sim.schedule_at(1.0, lambda: None)
        q.push(2.0, lambda: None)
        transient = q.pop()
        q.cancel(transient)
        assert len(q) == 1 and bool(q)
        assert q.peek_time() == 2.0

    def test_cancel_after_pop_without_engine_is_still_noop(self):
        """pop() marks the handle fired, so a consumer that pops and
        invokes the callback itself cannot corrupt the count either."""
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        popped.callback(*popped.args)  # fire without nulling anything
        q.cancel(h)
        assert len(q) == 1 and bool(q)
        assert q.peek_time() == 2.0
