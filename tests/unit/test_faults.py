"""Unit tests: the FaultInjector (crash/recover/partition/link faults)."""

import pytest

from repro.errors import SimulationError
from repro.net import SimNetwork, SwitchedLan
from repro.sim import ConstantLatency, FaultInjector, Machine, Simulator


def make_world(n=3, seed=7):
    sim = Simulator(seed=seed)
    machines = [Machine(sim, i) for i in range(n)]
    net = SimNetwork(sim, machines, SwitchedLan(latency=ConstantLatency(1e-4)))
    return sim, machines, net


class TestCrashRecover:
    def test_scheduled_crash_and_recover_fire_and_record(self):
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.crash_at(1.0, 2)
        inj.recover_at(2.0, 2)
        sim.run(until=3.0)
        assert not machines[2].crashed
        assert machines[2].ever_crashed
        assert [(r.time, r.kind) for r in inj.records] == [
            (1.0, "crash"),
            (2.0, "recover"),
        ]

    def test_crash_is_idempotent_and_recorded_once(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines)
        inj.crash_at(1.0, 0)
        inj.crash_at(1.5, 0)  # already down: no second record
        sim.run(until=2.0)
        assert len(inj.records) == 1

    def test_recover_of_live_machine_is_noop(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines)
        inj.recover_at(1.0, 0)
        sim.run(until=2.0)
        assert inj.records == []

    def test_unknown_machine_rejected(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines)
        with pytest.raises(SimulationError):
            inj.crash(99)

    def test_crashed_ever_reports_first_crash_time(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines)
        inj.crash_at(1.0, 1)
        inj.recover_at(2.0, 1)
        inj.crash_at(3.0, 1)
        sim.run(until=4.0)
        assert inj.crashed_ever() == {1: 1.0}

    def test_on_fault_hook_sees_index_and_record(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines)
        seen = []
        inj.on_fault.append(lambda i, r: seen.append((i, r.kind, r.time)))
        inj.crash_at(1.0, 0)
        inj.crash_at(2.0, 1)
        sim.run(until=3.0)
        assert seen == [(0, "crash", 1.0), (1, "crash", 2.0)]


class TestNetworkFaults:
    def test_partition_splits_groups_pairwise(self):
        sim, machines, net = make_world(n=4)
        inj = FaultInjector(sim, machines, network=net)
        inj.partition_at(1.0, (0, 1), (2, 3))
        sim.run(until=1.5)
        assert net.links.is_partitioned(0, 2)
        assert net.links.is_partitioned(1, 3)
        assert not net.links.is_partitioned(0, 1)
        assert not net.links.is_partitioned(2, 3)

    def test_heal_removes_partitions_and_records(self):
        sim, machines, net = make_world(n=4)
        inj = FaultInjector(sim, machines, network=net)
        inj.partition_at(1.0, (0,), (1, 2, 3))
        inj.heal_at(2.0)
        sim.run(until=3.0)
        assert not net.links.is_partitioned(0, 1)
        assert [r.kind for r in inj.records] == ["partition", "heal"]

    def test_impair_and_clear_link(self):
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.impair_link_at(1.0, 0, 1, loss_rate=0.5)
        inj.clear_link_at(2.0, 0, 1)
        sim.run(until=1.5)
        assert net.links.link_impairment(0, 1).loss_rate == 0.5
        assert net.links.link_impairment(1, 0).loss_rate == 0.5  # symmetric
        sim.run(until=3.0)
        assert net.links.link_impairment(0, 1) is None

    def test_latency_spike_sets_and_clears(self):
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.latency_spike_at(1.0, 0.005, duration=1.0)
        sim.run(until=1.5)
        assert net.links.extra_latency == 0.005
        sim.run(until=3.0)
        assert net.links.extra_latency == 0.0

    def test_network_faults_require_network(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines, network=None)
        with pytest.raises(SimulationError):
            inj.partition((0,), (1, 2))


class TestRandomSchedules:
    def test_random_crashes_deterministic_per_seed(self):
        def schedule(seed):
            sim, machines, _net = make_world(n=5, seed=seed)
            inj = FaultInjector(sim, machines)
            return inj.random_crashes(3, start=1.0, window=2.0)

        assert schedule(42) == schedule(42)
        assert schedule(42) != schedule(43)

    def test_random_crashes_distinct_victims_in_window(self):
        sim, machines, _net = make_world(n=5)
        inj = FaultInjector(sim, machines)
        plan = inj.random_crashes(3, start=1.0, window=2.0)
        victims = [m for _t, m in plan]
        assert len(set(victims)) == 3
        assert all(1.0 <= t < 3.0 for t, _m in plan)
        sim.run(until=4.0)
        assert sum(m.crashed for m in machines) == 3

    def test_random_crashes_with_recovery(self):
        sim, machines, _net = make_world(n=4)
        inj = FaultInjector(sim, machines)
        inj.random_crashes(2, start=0.5, window=1.0, recover_after=0.5)
        sim.run(until=3.0)
        assert all(not m.crashed for m in machines)
        assert sum(m.ever_crashed for m in machines) == 2

    def test_random_crashes_rejects_oversized_count(self):
        sim, machines, _net = make_world(n=3)
        inj = FaultInjector(sim, machines)
        with pytest.raises(SimulationError):
            inj.random_crashes(4, start=0.0, window=1.0)

    def test_injector_stream_does_not_perturb_other_streams(self):
        def draw(with_faults):
            sim, machines, _net = make_world(seed=5)
            inj = FaultInjector(sim, machines)
            if with_faults:
                inj.random_crashes(2, start=0.5, window=1.0)
            sim.run(until=2.0)
            return list(sim.rng.stream("app").random(4))

        assert draw(True) == draw(False)

    def test_churn_cycles(self):
        sim, machines, _net = make_world(n=3)
        inj = FaultInjector(sim, machines)
        inj.churn([0, 1], start=1.0, period=1.0, downtime=0.4, cycles=2)
        sim.run(until=5.0)
        assert all(not m.crashed for m in machines[:2])
        assert machines[0].crash_count == 2
        assert machines[1].crash_count == 2
        assert machines[2].crash_count == 0

    def test_churn_rejects_downtime_ge_period(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines)
        with pytest.raises(SimulationError):
            inj.churn([0], start=0.0, period=1.0, downtime=1.0)


class TestOverlappingSpikes:
    def test_overlapping_latency_spikes_compose(self):
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.latency_spike_at(1.0, 0.005, duration=2.0)   # 1.0 .. 3.0
        inj.latency_spike_at(2.0, 0.010, duration=2.0)   # 2.0 .. 4.0
        sim.run(until=2.5)
        assert net.links.extra_latency == pytest.approx(0.015)
        sim.run(until=3.5)      # first spike ended, second still active
        assert net.links.extra_latency == pytest.approx(0.010)
        sim.run(until=4.5)
        assert net.links.extra_latency == 0.0

    def test_immediate_and_scheduled_spikes_share_additive_semantics(self):
        """Satellite regression: the immediate form used to *set* the
        network-wide latency absolutely while scheduled spikes were
        additive, so mixing them corrupted the revert (and the old
        ``max(0, ...)`` clamp silently hid the corruption)."""
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.latency_spike_at(1.0, 0.005, duration=2.0)   # 1.0 .. 3.0
        sim.run(until=1.5)
        inj.latency_spike(0.010, duration=1.0)           # 1.5 .. 2.5
        assert net.links.extra_latency == pytest.approx(0.015)  # composes
        sim.run(until=2.7)      # immediate spike reverted its own delta
        assert net.links.extra_latency == pytest.approx(0.005)
        sim.run(until=3.5)      # scheduled spike reverted too: clean zero
        assert net.links.extra_latency == 0.0

    def test_spike_records_carry_delta_and_total(self):
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.latency_spike_at(1.0, 0.005, duration=1.0)
        sim.run(until=3.0)
        details = [r.detail for r in inj.records if r.kind == "latency-spike"]
        assert details == [(0.005, 0.005), (-0.005, 0.0)]

    def test_stale_revert_does_not_cancel_spikes_started_after_a_clear(self):
        """A scheduled revert whose spike was already wiped by
        clear_latency_spikes must not eat a *newer* spike's delta."""
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.latency_spike_at(1.0, 0.005, duration=2.0)   # revert due t=3.0
        sim.run(until=1.5)
        inj.clear_latency_spikes()                        # wipes the 0.005
        sim.run(until=2.0)
        inj.latency_spike(0.010, duration=2.0)           # 2.0 .. 4.0
        sim.run(until=3.5)   # the stale t=3.0 revert must be a no-op
        assert net.links.extra_latency == pytest.approx(0.010)
        sim.run(until=4.5)   # the new spike's own revert still works
        assert net.links.extra_latency == 0.0

    def test_clear_latency_spikes_reverts_everything(self):
        sim, machines, net = make_world()
        inj = FaultInjector(sim, machines, network=net)
        inj.latency_spike(0.005)
        inj.latency_spike(0.003)
        assert net.links.extra_latency == pytest.approx(0.008)
        inj.clear_latency_spikes()
        assert net.links.extra_latency == 0.0
        # A stale scheduled revert after the wholesale clear is a no-op.
        inj.latency_spike_at(1.0, 0.002, duration=0.5)
        sim.run(until=1.2)
        inj.clear_latency_spikes()
        sim.run(until=2.0)
        assert net.links.extra_latency == 0.0


class TestOneWayPartitionFaults:
    def test_partition_oneway_blocks_and_records(self):
        sim, machines, net = make_world(n=4)
        inj = FaultInjector(sim, machines, network=net)
        inj.partition_oneway_at(1.0, (2, 3), (0, 1))
        sim.run(until=1.5)
        assert net.links.is_partitioned(2, 0)
        assert net.links.is_partitioned(3, 1)
        assert not net.links.is_partitioned(0, 2)
        assert not net.links.is_partitioned(1, 3)
        record = inj.records[0]
        assert record.kind == "partition-oneway"
        assert record.detail == ((2, 3), (0, 1))
        assert record.to_dict()["detail"] == [(2, 3), (0, 1)]

    def test_heal_clears_oneway(self):
        sim, machines, net = make_world(n=3)
        inj = FaultInjector(sim, machines, network=net)
        inj.partition_oneway_at(1.0, (0,), (1, 2))
        inj.heal_at(2.0)
        sim.run(until=2.5)
        assert not net.links.is_partitioned(0, 1)
        assert [r.kind for r in inj.records] == ["partition-oneway", "heal"]

    def test_requires_network(self):
        sim, machines, _net = make_world()
        inj = FaultInjector(sim, machines, network=None)
        with pytest.raises(SimulationError):
            inj.partition_oneway((0,), (1,))
