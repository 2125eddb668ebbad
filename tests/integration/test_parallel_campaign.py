"""Integration tests: process-parallel campaigns and the --compare gate.

The contract under test is the deterministic merge: ``run_campaign`` with
any ``jobs`` value must produce a **byte-identical** report, because each
``(spec, seed)`` cell is a pure function and results are merged in
submission order.  ``compare_reports`` then exploits that determinism as
a cross-commit regression gate.
"""

import copy
import json

import pytest

from repro.errors import ScenarioError
from repro.experiments import PROTOCOL_SEQ
from repro.scenarios import (
    Campaign,
    Crash,
    ScenarioSpec,
    SwitchAt,
    compare_reports,
    run_campaign,
)
from repro.scenarios.__main__ import main as cli_main

SPEC_A = ScenarioSpec(
    name="par-switch",
    n=3,
    duration=1.5,
    load_msgs_per_sec=50.0,
    switches=(SwitchAt(protocol=PROTOCOL_SEQ, at=0.8),),
    quiescence_extra=6.0,
)
SPEC_B = ScenarioSpec(
    name="par-crash",
    n=3,
    duration=1.5,
    load_msgs_per_sec=50.0,
    faults=(Crash(at=1.0, machine=2),),
    quiescence_extra=6.0,
)
CAMPAIGN = Campaign(name="par", scenarios=(SPEC_A, SPEC_B))


class TestParallelIdentity:
    def test_jobs1_and_jobs4_reports_byte_identical(self):
        serial = run_campaign(CAMPAIGN, seeds=(0, 1), jobs=1)
        parallel = run_campaign(CAMPAIGN, seeds=(0, 1), jobs=4)
        assert serial.to_json() == parallel.to_json()

    def test_jobs0_uses_cpu_count_and_matches(self):
        serial = run_campaign(CAMPAIGN, seeds=(0,), jobs=1)
        auto = run_campaign(CAMPAIGN, seeds=(0,), jobs=0)
        assert serial.to_json() == auto.to_json()

    def test_negative_jobs_rejected(self):
        with pytest.raises(ScenarioError):
            run_campaign(CAMPAIGN, seeds=(0,), jobs=-1)

    def test_result_order_is_spec_major_seed_minor(self):
        result = run_campaign(CAMPAIGN, seeds=(3, 1), jobs=2)
        assert [(r.name, r.seed) for r in result.results] == [
            ("par-switch", 3),
            ("par-switch", 1),
            ("par-crash", 3),
            ("par-crash", 1),
        ]


class TestCompareReports:
    def _report(self):
        return run_campaign(CAMPAIGN, seeds=(0,), jobs=1).to_dict()

    def test_identical_reports_no_drift(self):
        report = self._report()
        assert compare_reports(report, copy.deepcopy(report)) == []

    def test_violation_drift_detected(self):
        base = self._report()
        cur = copy.deepcopy(base)
        cur["runs"][0]["ok"] = False
        cur["runs"][0]["violations"]["uniform agreement"] = ["key k lost"]
        drift = compare_reports(base, cur)
        assert any("ok" in line for line in drift)
        assert any("violations" in line for line in drift)

    def test_metric_drift_detected(self):
        base = self._report()
        cur = copy.deepcopy(base)
        cur["runs"][1]["events_processed"] += 1
        drift = compare_reports(base, cur)
        assert len(drift) == 1 and "events_processed" in drift[0]

    def test_missing_run_detected(self):
        base = self._report()
        cur = copy.deepcopy(base)
        dropped = cur["runs"].pop()
        drift = compare_reports(base, cur)
        assert any(dropped["name"] in line and "baseline only" in line
                   for line in drift)


class TestCli:
    """--jobs and --compare through the real CLI entry point."""

    def test_jobs_flag_report_matches_serial(self, tmp_path, cells):
        # The CLI only exposes registered scenarios; use a library one.
        # The serial side is the session's memoised run of the cells.
        serial = cells.report("adhoc:latency-spike-switch", "latency-spike-switch", (0, 1))
        out = tmp_path / "parallel.json"
        args = ["--scenario", "latency-spike-switch", "--seeds", "2"]
        assert cli_main(args + ["--jobs", "2", "--out", str(out)]) == 0
        assert out.read_text() == serial.to_json() + "\n"

    def test_compare_clean_and_drifted(self, tmp_path, capsys, cells):
        # The baseline is the file --out writes for the memoised cell.
        baseline = tmp_path / "baseline.json"
        report = cells.report("adhoc:latency-spike-switch", "latency-spike-switch", (0,))
        baseline.write_text(report.to_json() + "\n")
        args = ["--scenario", "latency-spike-switch", "--seed", "0"]
        # Same code, same seed: no drift.
        assert cli_main(args + ["--compare", str(baseline)]) == 0
        # Tamper with the stored report: drift, exit 3.
        doc = json.loads(baseline.read_text())
        doc["runs"][0]["sent_total"] += 7
        baseline.write_text(json.dumps(doc))
        assert cli_main(args + ["--compare", str(baseline)]) == 3
        assert "DRIFT" in capsys.readouterr().err

    def test_compare_unreadable_baseline_exit_2(self, tmp_path, monkeypatch):
        # The baseline is read before any cell runs.
        def no_campaign(*args, **kwargs):
            raise AssertionError("run_campaign ran before the baseline was read")

        monkeypatch.setattr("repro.scenarios.__main__.run_campaign", no_campaign)
        missing = tmp_path / "nope.json"
        assert cli_main(["--scenario", "latency-spike-switch", "--seed", "0",
                         "--compare", str(missing)]) == 2
