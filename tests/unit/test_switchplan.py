"""Unit tests: switch-plan triggers (time / deliveries / fault detection)."""

from dataclasses import replace

import pytest

from repro.errors import ScenarioError
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    build_group_comm_system,
)
from repro.scenarios import (
    SwitchAfterDeliveries,
    SwitchAt,
    SwitchIfStalled,
    SwitchOnFault,
    SwitchPlan,
)
from repro.scenarios.spec import PAPER_SPEC
from repro.sim import FaultInjector


def build(n=3, seed=3, load=60.0, stop=3.0):
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=load, duration=stop)
    gcs = build_group_comm_system(spec, seed)
    injector = FaultInjector(
        gcs.system.sim, gcs.system.machines, network=gcs.network, name="t"
    )
    return gcs, injector


class TestSwitchAt:
    def test_fires_at_time_and_records(self):
        gcs, inj = build()
        plan = SwitchPlan([SwitchAt(protocol=PROTOCOL_CT, at=1.5)])
        plan.arm(gcs, inj)
        gcs.run(until=4.0)
        assert len(plan.fired) == 1
        fired = plan.fired[0]
        assert fired["trigger"] == "SwitchAt"
        assert fired["time"] == pytest.approx(1.5)
        assert gcs.manager.module(0).seq_number == 1

    def test_falls_back_to_alive_stack(self):
        gcs, inj = build(n=3)
        inj.crash_at(1.0, 0)
        plan = SwitchPlan([SwitchAt(protocol=PROTOCOL_CT, at=1.5, from_stack=0)])
        plan.arm(gcs, inj)
        gcs.run(until=4.0)
        gcs.run_to_quiescence()
        assert plan.fired[0]["from_stack"] == 1
        assert gcs.manager.module(1).seq_number == 1


class TestSwitchAfterDeliveries:
    def test_fires_after_count(self):
        gcs, inj = build(load=100.0)
        plan = SwitchPlan(
            [SwitchAfterDeliveries(protocol=PROTOCOL_SEQ, count=30, on_stack=0)]
        )
        plan.arm(gcs, inj)
        gcs.run(until=5.0)
        gcs.run_to_quiescence()
        assert len(plan.fired) == 1
        # The trigger saw the 30th delivery strictly before the switch fired.
        assert gcs.log.delivered_count(0) >= 30
        assert gcs.manager.current_protocols()[0] == PROTOCOL_SEQ

    def test_never_fires_when_count_unreached(self):
        gcs, inj = build(load=60.0, stop=1.0)
        plan = SwitchPlan(
            [SwitchAfterDeliveries(protocol=PROTOCOL_SEQ, count=10_000)]
        )
        plan.arm(gcs, inj)
        gcs.run(until=3.0)
        assert plan.fired == []
        assert gcs.manager.module(0).seq_number == 0


class TestSwitchOnFault:
    def test_fires_after_fault_with_delay(self):
        gcs, inj = build(n=5)
        inj.crash_at(1.0, 4)
        plan = SwitchPlan(
            [SwitchOnFault(protocol=PROTOCOL_SEQ, fault_index=0, delay=0.2)]
        )
        plan.arm(gcs, inj)
        gcs.run(until=5.0)
        gcs.run_to_quiescence()
        assert len(plan.fired) == 1
        assert plan.fired[0]["time"] == pytest.approx(1.2)
        assert gcs.manager.current_protocols()[0] == PROTOCOL_SEQ

    def test_only_designated_fault_index_triggers(self):
        gcs, inj = build(n=5)
        inj.crash_at(1.0, 4)
        plan = SwitchPlan(
            [SwitchOnFault(protocol=PROTOCOL_SEQ, fault_index=1, delay=0.1)]
        )
        plan.arm(gcs, inj)
        gcs.run(until=4.0)
        assert plan.fired == []


class TestPlanValidation:
    def test_plan_requires_manager(self):
        spec = replace(PAPER_SPEC, n=3, duration=1.0)
        gcs = build_group_comm_system(spec, seed=1, with_repl_layer=False)
        inj = FaultInjector(gcs.system.sim, gcs.system.machines)
        plan = SwitchPlan([SwitchAt(protocol=PROTOCOL_CT, at=1.0)])
        with pytest.raises(ScenarioError):
            plan.arm(gcs, inj)

    def test_empty_plan_is_fine_without_manager(self):
        spec = replace(PAPER_SPEC, n=3, duration=1.0)
        gcs = build_group_comm_system(spec, seed=1, with_repl_layer=False)
        inj = FaultInjector(gcs.system.sim, gcs.system.machines)
        SwitchPlan([]).arm(gcs, inj)  # no-op


class TestSwitchAfterSwitch:
    def test_completed_phase_pipelines_windows(self):
        """The chained change fires at the first completion of v1, so the
        v2 window opens while the v1 window is still closing elsewhere."""
        from repro.scenarios import SwitchAfterSwitch

        gcs, inj = build(n=5, load=80.0, stop=4.0)
        plan = SwitchPlan([
            SwitchAt(protocol=PROTOCOL_SEQ, at=1.5, from_stack=0),
            SwitchAfterSwitch(protocol=PROTOCOL_CT, version=1, phase="completed"),
        ])
        plan.arm(gcs, inj)
        gcs.run(until=5.0)
        gcs.run_to_quiescence()
        assert len(plan.fired) == 2
        chained = plan.fired[1]
        assert chained["trigger"] == "SwitchAfterSwitch"
        assert chained["after_version"] == 1
        assert chained["phase"] == "completed"
        w1, w2 = gcs.manager.window(1), gcs.manager.window(2)
        assert w2.start < w1.end          # requested inside the open window
        assert w2.overlap_with_prev > 0.0  # the windows genuinely overlap
        assert gcs.manager.chain_metrics()["pipelined"] is True

    def test_started_phase_fires_from_starting_stack(self):
        from repro.scenarios import SwitchAfterSwitch

        gcs, inj = build(n=3, load=60.0, stop=4.0)
        plan = SwitchPlan([
            SwitchAt(protocol=PROTOCOL_SEQ, at=1.5, from_stack=0),
            SwitchAfterSwitch(protocol=PROTOCOL_CT, version=1, phase="started"),
        ])
        plan.arm(gcs, inj)
        gcs.run(until=5.0)
        gcs.run_to_quiescence()
        assert len(plan.fired) == 2
        assert gcs.manager.module(0).seq_number == 2
        # The chained request was issued the instant v1 started anywhere:
        # strictly before any stack completed it.
        assert plan.fired[1]["time"] < gcs.manager.window(1).end

    def test_closed_phase_is_back_to_back(self):
        from repro.scenarios import SwitchAfterSwitch

        gcs, inj = build(n=3, load=60.0, stop=4.0)
        plan = SwitchPlan([
            SwitchAt(protocol=PROTOCOL_SEQ, at=1.5, from_stack=0),
            SwitchAfterSwitch(protocol=PROTOCOL_CT, version=1, phase="closed",
                              delay=0.01),
        ])
        plan.arm(gcs, inj)
        gcs.run(until=5.0)
        gcs.run_to_quiescence()
        assert len(plan.fired) == 2
        w1, w2 = gcs.manager.window(1), gcs.manager.window(2)
        assert w2.start >= w1.end           # strictly after the window closed
        assert w2.overlap_with_prev == 0.0

    def test_invalid_phase_and_version_rejected(self):
        from repro.scenarios import SwitchAfterSwitch

        with pytest.raises(ScenarioError):
            SwitchAfterSwitch(protocol=PROTOCOL_CT, phase="midway")
        with pytest.raises(ScenarioError):
            SwitchAfterSwitch(protocol=PROTOCOL_CT, version=0)


class TestClosedPhaseUnderCrash:
    def test_straggler_crash_closes_the_window_and_fires_the_chain(self):
        """A window whose last straggler *crashes* (instead of completing)
        still closes — the chained switch must fire, not stall forever."""
        from repro.scenarios import SwitchAfterSwitch

        gcs, inj = build(n=3, load=60.0, stop=5.0)
        # Stack 2 is partitioned away before the switch: it never sees
        # the change, so it can never complete v1.  Crashing it later is
        # then the only event that closes the v1 window.
        inj.partition_at(1.0, (0, 1), (2,))
        inj.crash_at(3.0, 2)
        plan = SwitchPlan([
            SwitchAt(protocol=PROTOCOL_SEQ, at=1.5, from_stack=0),
            SwitchAfterSwitch(protocol=PROTOCOL_CT, version=1, phase="closed"),
        ])
        plan.arm(gcs, inj)
        gcs.run(until=6.0)
        gcs.run_to_quiescence(exempt=(2,))
        assert len(plan.fired) == 2
        # The chain fired at (or after) the crash that closed the window.
        assert plan.fired[1]["time"] >= 3.0
        for s in (0, 1):
            assert gcs.manager.module(s).seq_number == 2


class TestOverlapClamping:
    def test_overlap_clamped_to_own_window_end(self):
        """A straggler closing the *previous* window late must not
        overstate the overlap beyond this window's own open interval."""
        from repro.dpu import ReplacementWindow

        w1 = ReplacementWindow(version=1, protocol="p", requested_at=1.0)
        w1.completed = {0: 2.0, 1: 10.0}     # straggler closes v1 at t=10
        w2 = ReplacementWindow(version=2, protocol="p", requested_at=1.5, prev=w1)
        w2.completed = {0: 1.9, 1: 2.0}      # v2 itself closed at t=2
        assert w2.overlap_with_prev == pytest.approx(0.5)  # min(10,2) - 1.5
        # Open-ended current window falls back to the previous end.
        w3 = ReplacementWindow(version=3, protocol="p", requested_at=1.5, prev=w1)
        assert w3.overlap_with_prev == pytest.approx(8.5)


class TestClosedPhaseFullOutage:
    def test_full_outage_does_not_vacuously_close_windows(self):
        """With every machine down, replacement_complete is vacuously
        true; the closed announcement must NOT fire (it would consume
        one-shot chained triggers with nobody able to act on them)."""
        gcs, inj = build(n=3, load=60.0, stop=3.0)
        plan = SwitchPlan([SwitchAt(protocol=PROTOCOL_SEQ, at=1.5, from_stack=0)])
        plan.arm(gcs, inj)
        closed = []
        gcs.manager.on_version_closed.append(
            lambda version, prot, at: closed.append(version)
        )
        gcs.run(until=1.505)  # the switch is in flight, window open
        for m in gcs.system.machines:
            m.crash()
        assert closed == []  # vacuous closure suppressed


class TestSwitchIfStalled:
    def test_fires_when_convergence_exceeds_timeout(self):
        # Module creation takes 0.5 s: 0.1 s after v1 starts, the window
        # is provably still open, so the stall escape must fire.
        spec = replace(PAPER_SPEC, n=3, load_msgs_per_sec=60.0, duration=3.0, creation_cost=0.5)
        gcs = build_group_comm_system(spec, seed=3)
        inj = FaultInjector(gcs.system.sim, gcs.system.machines,
                            network=gcs.network, name="t")
        plan = SwitchPlan([
            SwitchAt(protocol=PROTOCOL_CT, at=1.0),
            SwitchIfStalled(protocol=PROTOCOL_CT, version=1, timeout=0.1),
        ])
        plan.arm(gcs, inj)
        gcs.run(until=6.0)
        gcs.run_to_quiescence()
        assert len(plan.fired) == 2
        stalled = plan.fired[1]
        assert stalled["trigger"] == "SwitchIfStalled"
        assert stalled["stalled_version"] == 1
        assert stalled["timeout"] == pytest.approx(0.1)
        assert stalled["time"] == pytest.approx(1.1, abs=0.01)
        assert gcs.manager.module(0).seq_number == 2  # the escape switched

    def test_never_fires_when_window_closes_in_time(self):
        gcs, inj = build()  # default creation cost: ~5 ms per module
        plan = SwitchPlan([
            SwitchAt(protocol=PROTOCOL_CT, at=1.0),
            SwitchIfStalled(protocol=PROTOCOL_CT, version=1, timeout=1.0),
        ])
        plan.arm(gcs, inj)
        gcs.run(until=4.0)
        gcs.run_to_quiescence()
        assert [f["trigger"] for f in plan.fired] == ["SwitchAt"]
        assert gcs.manager.module(0).seq_number == 1  # no second switch

    def test_validation(self):
        with pytest.raises(ScenarioError):
            SwitchIfStalled(protocol=PROTOCOL_CT, version=0)
        with pytest.raises(ScenarioError):
            SwitchIfStalled(protocol=PROTOCOL_CT, timeout=0.0)
