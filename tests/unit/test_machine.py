"""Unit tests: the machine CPU/queueing/crash model."""

import pytest

from repro.errors import SimulationError
from repro.sim import Machine


@pytest.fixture
def machine(sim):
    return Machine(sim, 0)


class TestCpuQueueing:
    def test_single_task_completes_after_cost(self, sim, machine):
        done = []
        machine.execute(0.010, done.append, ("a",))
        sim.run()
        assert done == ["a"]
        assert sim.now == pytest.approx(0.010)

    def test_tasks_serialise(self, sim, machine):
        completions = []
        machine.execute(0.010, lambda: completions.append(sim.now))
        machine.execute(0.010, lambda: completions.append(sim.now))
        machine.execute(0.010, lambda: completions.append(sim.now))
        sim.run()
        assert completions == pytest.approx([0.010, 0.020, 0.030])

    def test_queueing_after_idle_gap(self, sim, machine):
        completions = []
        machine.execute(0.010, lambda: completions.append(sim.now))
        sim.schedule(0.050, lambda: machine.execute(0.010, lambda: completions.append(sim.now)))
        sim.run()
        # Second task starts when submitted (CPU idle), not at busy_until.
        assert completions == pytest.approx([0.010, 0.060])

    def test_zero_cost_task(self, sim, machine):
        done = []
        machine.execute(0.0, done.append, (1,))
        sim.run()
        assert done == [1] and sim.now == 0.0

    def test_negative_cost_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.execute(-0.001, lambda: None)

    def test_backlog_accounting(self, sim, machine):
        machine.execute(0.010, lambda: None)
        machine.execute(0.010, lambda: None)
        assert machine.cpu_backlog == pytest.approx(0.020)
        sim.run()
        assert machine.cpu_backlog == 0.0

    def test_busy_total_accumulates(self, sim, machine):
        machine.execute(0.010, lambda: None)
        machine.execute(0.005, lambda: None)
        sim.run()
        assert machine.cpu_busy_total == pytest.approx(0.015)
        assert machine.tasks_executed == 2


class TestTimers:
    def test_timer_fires(self, sim, machine):
        fired = []
        machine.set_timer(0.5, fired.append, ("t",))
        sim.run()
        assert fired == ["t"] and sim.now == 0.5

    def test_timer_does_not_occupy_cpu(self, sim, machine):
        order = []
        machine.set_timer(0.010, lambda: order.append(("timer", sim.now)))
        machine.execute(0.020, lambda: order.append(("task", sim.now)))
        sim.run()
        assert order == [("timer", 0.010), ("task", 0.020)]


class TestCrash:
    def test_crash_suppresses_queued_work(self, sim, machine):
        done = []
        machine.execute(0.010, done.append, ("x",))
        machine.crash()
        sim.run()
        assert done == []

    def test_crash_suppresses_timers(self, sim, machine):
        fired = []
        machine.set_timer(0.5, fired.append, ("t",))
        machine.crash_at(0.1)
        sim.run()
        assert fired == []

    def test_execute_after_crash_is_dropped(self, sim, machine):
        machine.crash()
        assert machine.execute(0.010, lambda: None) is None
        assert machine.set_timer(0.010, lambda: None) is None

    def test_crash_is_idempotent_and_records_time(self, sim, machine):
        sim.schedule(0.3, machine.crash)
        sim.run()
        t = machine.crashed_at
        machine.crash()
        assert machine.crashed_at == t == 0.3

    def test_crash_hooks_fire_once(self, sim, machine):
        calls = []
        machine.on_crash.append(calls.append)
        machine.crash()
        machine.crash()
        assert calls == [0.0]

    def test_crash_at_schedules_control_priority(self, sim, machine):
        # A crash and an ordinary event at the same instant: crash first.
        order = []
        machine.crash_at(1.0)
        sim.schedule_at(1.0, lambda: order.append(machine.crashed))
        sim.run()
        assert order == [True]


class TestRecovery:
    def test_recover_brings_machine_back(self, sim, machine):
        machine.crash_at(1.0)
        machine.recover_at(2.0)
        done = []
        sim.schedule_at(2.5, lambda: machine.execute(0.01, done.append, ("x",)))
        sim.run()
        assert not machine.crashed
        assert machine.ever_crashed and machine.crash_count == 1
        assert done == ["x"]

    def test_precrash_work_stays_dead_after_recovery(self, sim, machine):
        """Tasks and timers from the old incarnation never fire."""
        fired = []
        machine.execute(1.5, fired.append, ("task",))   # would complete at 1.5
        machine.set_timer(1.5, fired.append, ("timer",))
        machine.crash_at(1.0)
        machine.recover_at(1.2)                       # recovery before t=1.5
        sim.run()
        assert fired == []

    def test_recovered_cpu_starts_idle(self, sim, machine):
        machine.execute(5.0, lambda: None)            # long task queued
        machine.crash_at(1.0)
        machine.recover_at(2.0)
        sim.run(until=2.0)
        assert machine.cpu_backlog == 0.0

    def test_restart_hook_work_starts_on_idle_cpu(self, sim, machine):
        """The CPU is reset before the restart hooks run: work a hook
        submits is not queued behind the dead incarnation's backlog."""
        done = []
        machine.execute(5.0, lambda: None)            # long task queued
        machine.on_recover.append(
            lambda now: machine.execute(0.01, lambda: done.append(sim.now)))
        machine.crash_at(1.0)
        machine.recover_at(2.0)
        sim.run()
        assert done == [pytest.approx(2.01)]

    def test_recover_is_noop_when_up(self, sim, machine):
        machine.recover()
        assert not machine.crashed and machine.crash_count == 0

    def test_on_recover_hooks_fire(self, sim, machine):
        times = []
        machine.on_recover.append(times.append)
        machine.crash_at(1.0)
        machine.recover_at(2.0)
        sim.run()
        assert times == [2.0]

    def test_second_incarnation_can_crash_again(self, sim, machine):
        machine.crash_at(1.0)
        machine.recover_at(2.0)
        machine.crash_at(3.0)
        sim.run()
        assert machine.crashed and machine.crash_count == 2
        assert machine.crashed_at == 3.0


class TestSetTimerFast:
    """Handle-free timers (the default) next to cancellable ones."""

    def test_fires_like_set_timer(self, sim, machine):
        fired = []
        assert machine.set_timer(0.5, fired.append, ("plain",)) is None
        assert machine.set_timer(0.5, fired.append, ("handle",), cancellable=True)
        sim.run()
        assert fired == ["plain", "handle"]  # scheduling order preserved
        assert sim.now == pytest.approx(0.5)

    def test_dies_with_the_epoch(self, sim, machine):
        fired = []
        machine.set_timer(1.0, fired.append, ("old",))
        machine.crash()
        machine.recover()
        machine.set_timer(1.0, fired.append, ("new",))
        sim.run()
        assert fired == ["new"]

    def test_noop_on_crashed_machine(self, sim, machine):
        fired = []
        machine.crash()
        assert machine.set_timer(0.1, fired.append, ("never",), cancellable=True) is None
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self, sim, machine):
        with pytest.raises(SimulationError):
            machine.set_timer(-0.1, lambda: None)
