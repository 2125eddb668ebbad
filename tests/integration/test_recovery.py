"""Integration tests: the crash-recovery restart protocol end to end.

A crashed machine used to come back as a passive zombie (its timers died
with the old incarnation).  These tests pin the full restart path: the
kernel re-arms every module, the heartbeat FD announces the new
incarnation epoch, the GM re-join handshake transfers state through the
(replaceable) abcast total order, and the recovered stack delivers
post-recovery messages again — with the property checkers' exemptions
narrowed back accordingly.
"""

import json
import pathlib

import pytest

from repro.experiments import PROTOCOL_SEQ
from repro.kernel import WellKnown
from repro.scenarios import (
    Campaign,
    Crash,
    Recover,
    ScenarioSpec,
    SwitchAt,
    get_campaign,
    get_scenario,
    run_campaign,
    run_scenario,
)
from repro.experiments.common import build_group_comm_system
from repro.scenarios.engine import ScenarioRun, compare_reports

#: ``python -m repro.scenarios --campaign recovery --seeds 2 --out ...``
RECOVERY_GOLDEN = (
    pathlib.Path(__file__).parent.parent / "golden" / "recovery_seeds2_structural.json"
)

RECOVERY_SCENARIOS = (
    "recover-during-switch",
    "churn-with-rejoin",
    "recovery-storm-after-heal",
)


class TestRestartProtocol:
    def _run(self, spec, seed=0):
        """The engine's arm + drive on a full-trace build; the system is
        returned for inspection."""
        run = ScenarioRun(build_group_comm_system(spec, seed))
        run.drive()
        return run.gcs

    def test_recovered_stack_rejoins_and_delivers_post_recovery_traffic(self):
        spec = get_scenario("recover-during-switch")
        gcs = self._run(spec)
        system = gcs.system

        # The machine is back up in a new incarnation.
        machine = system.machine(3)
        assert not machine.crashed and machine.ever_crashed
        assert machine.epoch == 1

        # FD re-arm: no stack suspects the recovered machine any more,
        # and its peers observed the new incarnation epoch.
        for s in (0, 1, 2, 4):
            fd = system.stack(s).bound_module(WellKnown.FD)
            assert 3 not in fd.suspects()
            assert fd.restarts_observed >= 1

        # GM re-join: the handshake completed via a state transfer from
        # the lowest-ranked live member, and every member logged it.
        gm3 = system.stack(3).bound_module(WellKnown.GM)
        assert gm3.rejoined_epoch == 1
        assert gm3.rejoined_at is not None
        donor_gm = system.stack(0).bound_module(WellKnown.GM)
        assert donor_gm.counters.get("state_snapshots_sent") >= 1
        assert any(rank == 3 and epoch == 1 for rank, epoch, _t in donor_gm.rejoin_log)
        # The snapshot carried the donor's abcast sequence position
        # (the replacement layer's version counter: one switch happened).
        assert gm3.last_snapshot_abcast_sn == 1

        # Views converged everywhere (same id, same members).
        views = {
            s: system.stack(s).bound_module(WellKnown.GM)._current_view()
            for s in range(5)
        }
        assert len(set(views.values())) == 1
        assert views[0][1] == frozenset(range(5))

        # The recovered stack finished the switch it slept through and
        # delivers post-recovery traffic: full convergence on the order.
        status = system.stack(3).query(WellKnown.R_ABCAST, "status")
        assert status["seq_number"] == 1
        post = {
            key
            for key, (_s, t) in gcs.log.sends.items()
            if t > gm3.rejoined_at
        }
        assert post and post <= gcs.log.delivered_set(3)

    def test_rejoin_repeats_across_churn_incarnations(self):
        spec = get_scenario("churn-with-rejoin")
        gcs = self._run(spec)
        machine = gcs.system.machine(3)
        gm3 = gcs.system.stack(3).bound_module(WellKnown.GM)
        assert machine.epoch == 2  # two outages, two incarnations
        assert gm3.rejoined_epoch == 2  # the *current* incarnation rejoined
        epochs = sorted(e for r, e, _t in gm3.rejoin_log if r == 3)
        assert epochs == [1, 2]  # both incarnations completed the handshake

    def test_recovery_scenarios_are_green_and_report_rejoins(self):
        for name in RECOVERY_SCENARIOS:
            result = run_scenario(get_scenario(name), seed=0)
            assert result.ok, (name, result.violations)
            assert result.rejoined, name
            # The rejoined stacks delivered the full common order here.
            for s in result.rejoined:
                assert result.delivered_per_stack[s] > 0
            assert result.ordered_common == result.sent_total, name


class TestRecoveryLivenessNarrowing:
    def test_zombie_without_gm_stays_exempt(self):
        """Without the GM handshake there is no re-join marker: the
        ever-crashed exemption stays wide (conservative, as before)."""
        spec = ScenarioSpec(
            name="tiny-recover-no-gm",
            n=3,
            duration=2.5,
            load_msgs_per_sec=60.0,
            faults=(Crash(at=1.0, machine=2), Recover(at=1.6, machine=2)),
            quiescence_extra=8.0,
        )
        result = run_scenario(spec, seed=0)
        assert result.ok
        assert result.rejoined == {}
        assert result.crashed == {2: 1.0}

    def test_rejoined_stack_is_held_to_post_rejoin_obligations(self):
        spec = ScenarioSpec(
            name="tiny-rejoin",
            n=3,
            duration=3.0,
            load_msgs_per_sec=60.0,
            with_gm=True,
            faults=(Crash(at=1.0, machine=2), Recover(at=1.5, machine=2)),
            quiescence_extra=10.0,
        )
        result = run_scenario(spec, seed=0)
        assert result.ok
        assert list(result.rejoined) == [2]

    def test_checker_flags_missing_post_rejoin_delivery(self):
        """The narrowed exemption has teeth: a rejoined stack that skips
        a post-rejoin message is flagged; without a re-join marker the
        wide exemption keeps it silent."""
        from repro.dpu import DeliveryLog, check_recovery_liveness

        log = DeliveryLog()
        log.note_send("m1", 0, 1.0)   # pre-rejoin: stays exempt
        log.note_send("m2", 0, 3.0)   # post-rejoin, delivered by 2
        log.note_send("m3", 0, 4.0)   # post-rejoin, NOT delivered by 2
        log.note_delivery("m2", 2, 3.1)
        crashed = {2: 0.5}
        violations = check_recovery_liveness(log, {2: 2.0}, crashed)
        assert len(violations) == 1 and "'m3'" in violations[0]
        assert check_recovery_liveness(log, {}, crashed) == []


class TestRecoveryDeterminism:
    def test_same_seed_byte_identical_reports(self):
        """One run against the committed golden pins more than two runs
        against each other: it also catches drift both runs would share."""
        golden = RECOVERY_GOLDEN.read_text()
        result = run_campaign(get_campaign("recovery"), seeds=(0, 1))
        current = result.to_json() + "\n"
        if current != golden:
            drift = compare_reports(json.loads(golden), json.loads(current))
            pytest.fail(
                "recovery report drifted from its golden:\n" + "\n".join(drift[:20])
            )
        assert result.ok

    def test_parallel_jobs_byte_identical(self):
        campaign = Campaign(
            name="recovery-par",
            scenarios=(
                get_scenario("recover-during-switch"),
                get_scenario("churn-with-rejoin"),
            ),
        )
        serial = run_campaign(campaign, seeds=(0, 1), jobs=1)
        parallel = run_campaign(campaign, seeds=(0, 1), jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.ok

    def test_distinct_seeds_differ(self):
        spec = get_scenario("recover-during-switch")
        r0 = run_scenario(spec, seed=0)
        r1 = run_scenario(spec, seed=1)
        assert r0.ok and r1.ok
        assert r0.to_dict() != r1.to_dict()


class TestRecoverDuringSwitchEdge:
    def test_crash_between_unbind_and_bind_resumes_switch_after_recovery(self):
        """The hardest schedule: the machine crashes *inside* its own
        switch window (service unbound, creation timer in flight).  The
        restart path re-arms the creation timer, the switch completes in
        the new incarnation, and the stack converges."""
        spec = ScenarioSpec(
            name="crash-inside-own-switch",
            n=5,
            duration=5.0,
            load_msgs_per_sec=80.0,
            with_gm=True,
            switches=(SwitchAt(protocol=PROTOCOL_SEQ, at=2.0, from_stack=0),),
            # The switch's change message Adelivers shortly after 2.0 and
            # module creation takes 5 ms; crash stack 4 inside that window
            # (cushion for dissemination/ordering latency), recover later.
            faults=(Crash(at=2.052, machine=4), Recover(at=2.6, machine=4)),
            quiescence_extra=14.0,
        )
        result = run_scenario(spec, seed=0)
        assert result.ok, result.violations
        assert result.final_protocols[4] == PROTOCOL_SEQ
        assert result.ordered_common == result.sent_total

    def test_churn_storm_library_scenario_now_rejoins(self):
        """The pre-existing churn-storm scenario gains real rejoins."""
        result = run_scenario(get_scenario("churn-storm"), seed=0)
        assert result.ok
        assert set(result.rejoined) == {3, 4}
