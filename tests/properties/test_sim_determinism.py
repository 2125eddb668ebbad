"""Property tests: the simulator is deterministic and order-correct."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import PROTOCOL_SEQ
from repro.scenarios import (
    Campaign,
    Crash,
    ImpairLink,
    ScenarioSpec,
    SwitchOnFault,
    run_campaign,
)
from repro.sim import FaultInjector, Machine, Simulator


@st.composite
def schedules(draw):
    """A random batch of (delay, priority) events."""
    n = draw(st.integers(min_value=1, max_value=30))
    return [
        (
            draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
            draw(st.sampled_from([0, 10, 20])),
        )
        for _ in range(n)
    ]


class TestDeterminism:
    @given(schedules(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_execution(self, sched, seed):
        def run():
            sim = Simulator(seed=seed)
            order = []
            for i, (delay, prio) in enumerate(sched):
                sim.schedule_at(delay, order.append, (i,), priority=prio)
            # sprinkle some randomness consumption in the middle
            sim.schedule(5.0, lambda: sim.rng.stream("x").random(3))
            sim.run()
            return order, sim.now

        assert run() == run()

    @given(schedules())
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time(self, sched):
        sim = Simulator(seed=0)
        times = []
        for delay, prio in sched:
            sim.schedule_at(delay, lambda: times.append(sim.now), priority=prio)
        sim.run()
        assert times == sorted(times)

    @given(schedules())
    @settings(max_examples=50, deadline=None)
    def test_all_scheduled_events_fire(self, sched):
        sim = Simulator(seed=0)
        fired = []
        for i, (delay, prio) in enumerate(sched):
            sim.schedule_at(delay, fired.append, (i,), priority=prio)
        sim.run()
        assert sorted(fired) == list(range(len(sched)))


class TestMachineInvariants:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_serial_cpu_completion_times(self, costs):
        """Completion time of task k = sum of costs up to k (all queued
        at t=0 on an idle machine)."""
        sim = Simulator(seed=0)
        machine = Machine(sim, 0)
        completions = []
        for cost in costs:
            machine.execute(cost, lambda: completions.append(sim.now))
        sim.run()
        expected, acc = [], 0.0
        for cost in costs:
            acc += cost
            expected.append(acc)
        assert all(abs(a - b) < 1e-9 for a, b in zip(completions, expected))
        assert abs(machine.cpu_busy_total - acc) < 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
            ),
            min_size=1,
            max_size=15,
        ),
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_crash_stops_everything_after(self, tasks, crash_at):
        sim = Simulator(seed=0)
        machine = Machine(sim, 0)
        completions = []
        for submit_at, cost in tasks:
            sim.schedule_at(
                submit_at,
                lambda c=cost: machine.execute(c, lambda: completions.append(sim.now)),
            )
        machine.crash_at(crash_at)
        sim.run()
        assert all(t <= crash_at + 1e-12 for t in completions)


class TestFaultInjectionDeterminism:
    """Fault injection preserves the seed ⇒ execution contract."""

    # A scenario exercising every fault-path RNG consumer at once: an
    # injected crash, a fault-triggered switch, and a lossy/reordering
    # link, on a short run so the property test stays fast.
    SPEC = ScenarioSpec(
        name="determinism-probe",
        n=3,
        duration=2.0,
        load_msgs_per_sec=80.0,
        faults=(
            Crash(at=1.0, machine=2),
            ImpairLink(at=0.5, src=0, dst=1, loss_rate=0.2,
                       reorder_rate=0.3, reorder_delay=0.002, until=1.5),
        ),
        switches=(SwitchOnFault(protocol=PROTOCOL_SEQ, fault_index=0, delay=0.1),),
        quiescence_extra=8.0,
    )

    def _campaign_json(self, seeds) -> str:
        campaign = Campaign(name="det", scenarios=(self.SPEC,))
        return run_campaign(campaign, seeds=seeds).to_json()

    def test_same_seed_byte_identical_campaign_json(self):
        assert self._campaign_json((0, 1)) == self._campaign_json((0, 1))

    def test_different_seed_changes_execution(self):
        campaign = Campaign(name="det", scenarios=(self.SPEC,))
        runs = {
            seed: run_campaign(campaign, seeds=(seed,)).results[0]
            for seed in (0, 1)
        }
        # Same structural outcome...
        assert all(r.ok for r in runs.values())
        # ...but genuinely different executions (jitter/loss draws differ).
        assert runs[0].events_processed != runs[1].events_processed

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_crash_schedule_reproducible(self, seed):
        def draw():
            sim = Simulator(seed=seed)
            machines = [Machine(sim, i) for i in range(5)]
            injector = FaultInjector(sim, machines, name="prop")
            return injector.random_crashes(3, start=0.5, window=2.0)

        assert draw() == draw()
