"""Integration tests: the scenario campaign engine end to end.

The CI ``scenario-smoke`` job runs the real ``smoke`` campaign through
the CLI; these tests keep the engine honest from inside the test suite
with smaller, faster scenarios, and pin the report contract (structure,
exemption accounting, exit codes).
"""

import json

import pytest

from repro.errors import ScenarioError
from repro.experiments import PROTOCOL_CT, PROTOCOL_SEQ
from repro.scenarios import (
    Campaign,
    Crash,
    Heal,
    Partition,
    Recover,
    ScenarioSpec,
    SwitchAt,
    get_campaign,
    get_scenario,
    run_campaign,
    run_scenario,
)
from repro.scenarios.__main__ import main as cli_main
from repro.scenarios.library import SCENARIOS

# Small, fast specs used across the tests.
TINY = ScenarioSpec(
    name="tiny-switch",
    n=3,
    duration=2.0,
    load_msgs_per_sec=60.0,
    switches=(SwitchAt(protocol=PROTOCOL_CT, at=1.0),),
    quiescence_extra=6.0,
)

TINY_CRASH = ScenarioSpec(
    name="tiny-crash",
    n=5,
    duration=2.5,
    load_msgs_per_sec=60.0,
    faults=(Crash(at=1.0, machine=4),),
    switches=(SwitchAt(protocol=PROTOCOL_SEQ, at=1.5),),
    quiescence_extra=8.0,
)


class TestRunScenario:
    def test_clean_switch_has_no_violations(self):
        result = run_scenario(TINY, seed=0)
        assert result.ok
        assert result.violations_total == 0
        assert result.sent_total > 0
        assert result.ordered_common == result.sent_total
        assert result.final_protocols == {0: PROTOCOL_CT, 1: PROTOCOL_CT, 2: PROTOCOL_CT}
        assert len(result.switch_windows) == 1
        assert result.switch_windows[0]["stacks_completed"] == 3

    def test_crash_scenario_accounts_faulty_stack(self):
        result = run_scenario(TINY_CRASH, seed=0)
        assert result.ok
        assert result.crashed == {4: 1.0}
        assert result.correct_stacks == [0, 1, 2, 3]
        assert [f["kind"] for f in result.faults] == ["crash"]
        # Survivors all finished the switch to the sequencer.
        assert all(
            result.final_protocols[s] == PROTOCOL_SEQ for s in result.correct_stacks
        )

    def test_crash_recover_counts_machine_as_faulty(self):
        spec = ScenarioSpec(
            name="tiny-recover",
            n=3,
            duration=2.5,
            load_msgs_per_sec=60.0,
            faults=(Crash(at=1.0, machine=2), Recover(at=1.6, machine=2)),
            quiescence_extra=6.0,
        )
        result = run_scenario(spec, seed=0)
        assert result.ok
        assert result.crashed == {2: 1.0}
        assert result.correct_stacks == [0, 1]
        assert [f["kind"] for f in result.faults] == ["crash", "recover"]

    def test_partition_heal_recovers_all_stacks(self):
        spec = ScenarioSpec(
            name="tiny-partition",
            n=3,
            duration=2.5,
            load_msgs_per_sec=60.0,
            faults=(Partition(at=1.0, groups=((0, 1), (2,))), Heal(at=1.8)),
            quiescence_extra=10.0,
        )
        result = run_scenario(spec, seed=0)
        assert result.ok
        assert result.crashed == {}
        # After heal + drain everyone converged.
        assert result.ordered_common == result.sent_total

    def test_result_round_trips_through_json(self):
        result = run_scenario(TINY, seed=1)
        blob = json.dumps(result.to_dict(), sort_keys=True)
        assert json.loads(blob)["name"] == "tiny-switch"


class TestCampaigns:
    def test_campaign_runs_scenarios_times_seeds(self):
        campaign = Campaign(name="t", scenarios=(TINY,))
        result = run_campaign(campaign, seeds=(0, 1))
        assert [r.seed for r in result.results] == [0, 1]
        assert result.ok
        assert result.violations_total == 0

    def test_campaign_rejects_duplicates_and_empties(self):
        with pytest.raises(ScenarioError):
            Campaign(name="dup", scenarios=(TINY, TINY))
        with pytest.raises(ScenarioError):
            Campaign(name="empty", scenarios=())

    def test_library_lookup_errors_are_helpful(self):
        with pytest.raises(ScenarioError, match="known:"):
            get_scenario("no-such-scenario")
        with pytest.raises(ScenarioError, match="known:"):
            get_campaign("no-such-campaign")

    def test_registered_smoke_campaign_exists(self):
        smoke = get_campaign("smoke")
        assert len(smoke.scenarios) >= 3


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "churn-storm" in out and "smoke" in out

    def test_scenario_run_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = cli_main(
            ["--scenario", "latency-spike-switch", "--seed", "0", "--out", str(out_file)]
        )
        assert code == 0
        blob = json.loads(out_file.read_text())
        assert blob["ok"] is True
        assert blob["campaign"] == "adhoc:latency-spike-switch"
        assert len(blob["runs"]) == 1

    def test_compare_against_own_report_has_no_drift(self, tmp_path, monkeypatch):
        """A rerun compared with its own ``--out`` report exits 0.

        A ``Partition`` fault's detail carries tuples, which the written
        JSON turns into lists; the comparison must see the same report
        the file holds.
        """
        spec = ScenarioSpec(
            name="tiny-partition-compare",
            n=3,
            duration=1.5,
            load_msgs_per_sec=60.0,
            faults=(Partition(at=0.5, groups=((0, 1), (2,))), Heal(at=1.0)),
            quiescence_extra=6.0,
        )
        monkeypatch.setitem(SCENARIOS, spec.name, spec)
        out_file = tmp_path / "report.json"
        argv = ["--scenario", spec.name, "--seed", "0"]
        assert cli_main(argv + ["--out", str(out_file)]) == 0
        assert cli_main(argv + ["--compare", str(out_file)]) == 0
