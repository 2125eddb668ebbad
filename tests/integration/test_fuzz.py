"""Integration tests: fuzzer teeth, shrinking, fixture replay, determinism.

The teeth contract (both directions, at a pinned generator seed/budget):

* ``guard_change_sn=False`` — the fuzzer **rediscovers the stale-change
  anomaly** on its own: a partition-lagged stack issues a chained change
  under a stale sn, and after the heal the group splits on uniform
  agreement.  The ddmin shrinker reduces the finding to a handful of
  fault actions while *preserving guard sensitivity* (the guarded twin
  of the shrunk spec stays clean).
* ``guard_change_sn=True`` — the identical budget is violation-free: the
  sn guard is exactly the fix for everything the fuzzer finds here.

The committed fixture ``tests/fixtures/fuzz/fuzz-1-2.json`` is the
shrunk reproducer of that finding; it is replayed from JSON (generator
out of the loop) and pinned byte-identical to what the shrinker emits
today, so generator/shrinker drift cannot silently change the anomaly
this repo documents.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.fuzz import FuzzConfig, run_fuzz
from repro.fuzz.__main__ import main as fuzz_cli
from repro.scenarios.engine import run_scenario
from repro.scenarios.serde import spec_from_dict, spec_from_json, spec_to_json

#: The pinned teeth configuration: generator seed 1, indices 0..5.
#: Index 2's schedule (lopsided partition isolating stack 0 + a switch
#: chain whose chained change is issued from stack 0 mid-partition) is
#: the known guard-sensitive anomaly in this budget.
TEETH_SEED = 1
TEETH_BUDGET = 6
VIOLATOR_INDEX = 2

FIXTURE = pathlib.Path(__file__).parent.parent / "fixtures" / "fuzz" / "fuzz-1-2.json"


@pytest.fixture(scope="module")
def unguarded_report():
    return run_fuzz(
        FuzzConfig(seed=TEETH_SEED, budget=TEETH_BUDGET, guard_change_sn=False),
        jobs=2,
    )


class TestFuzzerTeeth:
    def test_unguarded_budget_rediscovers_the_anomaly(self, unguarded_report):
        assert not unguarded_report.ok
        violators = [run["index"] for run in unguarded_report.runs if not run["ok"]]
        assert violators == [VIOLATOR_INDEX]
        run = unguarded_report.runs[VIOLATOR_INDEX]
        assert "uniform agreement" in run["violated"]

    def test_guarded_budget_is_clean(self):
        report = run_fuzz(
            FuzzConfig(seed=TEETH_SEED, budget=TEETH_BUDGET, guard_change_sn=True),
            jobs=2,
        )
        assert report.ok
        assert report.violating == 0
        assert report.reproducers == []

    def test_finding_shrinks_small_and_stays_guard_sensitive(
        self, unguarded_report
    ):
        assert len(unguarded_report.reproducers) == 1
        rep = unguarded_report.reproducers[0]
        assert rep["reproducible"]
        assert rep["guard_sensitive"]
        assert rep["shrunk_size"]["faults"] <= 3
        assert rep["shrunk_size"]["faults"] < rep["original_size"]["faults"] or (
            rep["shrunk_size"]["switches"] < rep["original_size"]["switches"]
        )
        assert unguarded_report.unshrinkable == 0

    def test_shrunk_reproducer_replays_from_serde_dict(self, unguarded_report):
        spec = spec_from_dict(unguarded_report.reproducers[0]["spec"])
        result = run_scenario(spec, seed=0)
        assert not result.ok
        assert result.violations["uniform agreement"]
        # The guarded twin of the minimal spec is clean: the reproducer
        # demonstrates the guard-sensitive anomaly, nothing broader.
        from dataclasses import replace

        assert run_scenario(replace(spec, guard_change_sn=True), seed=0).ok


class TestCommittedFixture:
    def test_fixture_replays_to_the_anomaly(self):
        spec = spec_from_json(FIXTURE.read_text(encoding="utf-8"))
        assert not spec.guard_change_sn
        assert len(spec.faults) <= 3
        result = run_scenario(spec, seed=0)
        assert not result.ok
        assert result.violations["uniform agreement"]

    def test_fixture_is_byte_identical_to_fresh_shrinker_output(
        self, unguarded_report
    ):
        fresh = spec_from_dict(unguarded_report.reproducers[0]["spec"])
        assert spec_to_json(fresh) + "\n" == FIXTURE.read_text(encoding="utf-8")

    def test_fixture_replay_via_cli_exits_1(self, capsys):
        assert fuzz_cli(["--replay", str(FIXTURE)]) == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out
        assert "uniform agreement" in out.err


class TestReportDeterminism:
    """The fuzz analogue of test_parallel_campaign: byte-identical JSON."""

    CONFIG = FuzzConfig(seed=TEETH_SEED, budget=4)

    def test_rerun_is_byte_identical(self):
        a = run_fuzz(self.CONFIG, jobs=1).to_json()
        b = run_fuzz(self.CONFIG, jobs=1).to_json()
        assert a == b

    def test_jobs_fanout_is_byte_identical(self):
        serial = run_fuzz(self.CONFIG, jobs=1).to_json()
        parallel = run_fuzz(self.CONFIG, jobs=3).to_json()
        assert serial == parallel

    def test_trace_off_is_byte_identical_for_clean_budgets(self):
        structural = run_fuzz(self.CONFIG, jobs=1, trace="structural").to_json()
        off = run_fuzz(self.CONFIG, jobs=1, trace="off").to_json()
        assert structural == off

    def test_report_shape(self):
        report = run_fuzz(self.CONFIG, jobs=1)
        data = json.loads(report.to_json())
        assert data["fuzz"] == {
            "generator_seed": TEETH_SEED,
            "budget": 4,
            "run_seed": 0,
            "guard_change_sn": True,
        }
        assert [run["index"] for run in data["runs"]] == [0, 1, 2, 3]
        assert data["ok"] is True


class TestFuzzCli:
    def test_guarded_cli_exits_0(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = fuzz_cli(
            ["--seed", str(TEETH_SEED), "--budget", "3", "--jobs", "2",
             "--out", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["ok"] is True

    def test_unguarded_cli_exits_1_and_writes_shrunk_spec(self, capsys, tmp_path):
        shrunk_dir = tmp_path / "shrunk"
        # Indices 0..2 still hold the violator, and every index draws
        # from its own stream, so the shorter budget shrinks to the same
        # file as the full one (the module fixture already searched it).
        code = fuzz_cli(
            ["--seed", str(TEETH_SEED), "--budget", str(VIOLATOR_INDEX + 1),
             "--jobs", "2", "--unguarded", "--shrunk-dir", str(shrunk_dir)]
        )
        assert code == 1
        written = sorted(p.name for p in shrunk_dir.iterdir())
        assert written == [f"fuzz-{TEETH_SEED}-{VIOLATOR_INDEX}.json"]
        # The CLI's file matches the committed fixture byte-for-byte.
        assert (shrunk_dir / written[0]).read_text() == FIXTURE.read_text()
        err = capsys.readouterr().err
        assert "REPRODUCER" in err

    def test_explore_cli_both_directions(self, capsys):
        assert fuzz_cli(["--explore", "--stacks", "2", "--versions", "2"]) == 0
        assert "614" in capsys.readouterr().out
        assert fuzz_cli(
            ["--explore", "--stacks", "2", "--versions", "2",
             "--bug", "stack0_skips_guard"]
        ) == 1
        out = capsys.readouterr()
        assert "COUNTEREXAMPLE" in out.err
