"""Plant-and-catch tests for the ``repro.analysis`` contract linter.

``tests/fixtures/analysis_proj/repro`` is a miniature project tree with one
deliberate violation per rule (plus clean counterparts on the same hazard).
These tests assert that every rule fires with the right code, location, and
message, that ``# repro: ignore[RULE]`` silences exactly the named rule, and
that the linter self-hosts cleanly over the real ``src/repro`` tree.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Baseline, analyze
from repro.analysis.findings import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "analysis_proj" / "repro"
SRC_TREE = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def fixture_result():
    return analyze([str(FIXTURE)])


@pytest.fixture(scope="module")
def fixture_strict_result():
    return analyze([str(FIXTURE)], strict=True)


def _rel(finding):
    return str(Path(finding.path).relative_to(FIXTURE))


def _by_file(result, name):
    return [f for f in result.findings if _rel(f).endswith(name)]


# ---------------------------------------------------------------------------
# One deliberate violation per rule: code, location, message.
# ---------------------------------------------------------------------------


def test_all_six_rules_fire(fixture_result):
    fired = {f.rule for f in fixture_result.findings}
    assert {"R1", "R2", "R3", "R4", "R5", "R6"} <= fired


def test_r1_seam_catches_stdlib_and_engine_imports(fixture_result):
    r1 = [f for f in _by_file(fixture_result, "abcast/bad_seam.py") if f.rule == "R1"]
    assert [(f.line, f.col) for f in r1] == [(3, 0), (5, 0)]
    assert "imports 'time'" in r1[0].message
    assert "Module API" in r1[0].message
    assert "sim engine internals (repro.sim.engine)" in r1[1].message


def test_r2_determinism_catches_all_four_hazards(fixture_result):
    r2 = [f for f in _by_file(fixture_result, "sim/bad_rng.py") if f.rule == "R2"]
    by_line = {f.line: f.message for f in r2}
    assert sorted(by_line) == [11, 12, 16, 19, 43, 47]
    assert "without a seed" in by_line[11]
    assert "wall clock" in by_line[12]
    assert "id() values differ across processes" in by_line[16]
    # Set iteration feeding a send verb (19) and the seam operations the
    # rule gained when the twins were retired: execute (43), call_soon (47).
    for line in (19, 43, 47):
        assert "iteration over a set feeds sends" in by_line[line]
    # Clean counterparts in the same file stay quiet: sorted() iteration
    # (lines 23, 51) and an explicitly seeded Random (line 30).


def test_r3_wire_catches_pickle_and_unsupported_field(fixture_result):
    r3 = [f for f in _by_file(fixture_result, "net/badwire.py") if f.rule == "R3"]
    assert [f.line for f in r3] == [4, 30]
    assert "'pickle' import" in r3[0].message
    assert "fixture.BadFrame" in r3[1].message
    assert "BadFrame.blob" in r3[1].message
    assert "OpaqueBlob" in r3[1].message
    # GoodFrame (int + list[str]) registers without a finding.
    assert not any("GoodFrame" in f.message for f in r3)


def test_r4_restart_catches_timer_without_on_restart(fixture_result):
    r4 = [f for f in fixture_result.findings if f.rule == "R4"]
    assert len(r4) == 1
    assert _rel(r4[0]) == "fd/badtimer.py"
    assert r4[0].line == 6
    assert "LeakyTimer" in r4[0].message
    assert "on_restart" in r4[0].message
    # InheritsRearm (ancestor defines on_restart) and NoTimers are clean.


def test_r5_trace_catches_undeclared_and_nonstructural_kinds(fixture_result):
    r5 = {_rel(f): f for f in fixture_result.findings if f.rule == "R5"}
    assert set(r5) == {"dpu/emitter.py", "dpu/properties.py"}
    emitter = r5["dpu/emitter.py"]
    assert emitter.line == 8
    assert "TraceKind.REBOOTED" in emitter.message
    assert "not a declared member" in emitter.message
    checker = r5["dpu/properties.py"]
    assert checker.line == 9
    assert "non-structural TraceKind.CALL" in checker.message
    assert "STRUCTURAL_TRACE_KINDS" in checker.message


def test_r6_async_catches_blocking_call_in_async_def(fixture_result):
    r6 = [f for f in fixture_result.findings if f.rule == "R6"]
    assert len(r6) == 1
    assert _rel(r6[0]) == "runtime/blocking.py"
    assert r6[0].line == 9
    assert "time.sleep()" in r6[0].message
    assert "async def pump" in r6[0].message
    # pump_ok (await asyncio.sleep) and sync_helper stay quiet.


# ---------------------------------------------------------------------------
# Suppression semantics: ignore[RULE] silences exactly the named rule.
# ---------------------------------------------------------------------------


def test_justified_suppression_silences_the_named_rule(fixture_result):
    # bad_seam.py line 7 imports asyncio under `# repro: ignore[R1] -- ...`:
    # no R1 finding on that line, and the suppression is counted.
    seam = _by_file(fixture_result, "abcast/bad_seam.py")
    assert not any(f.rule == "R1" and f.line == 7 for f in seam)
    suppressed = {(s.rule, Path(s.path).name) for s in fixture_result.suppressed}
    assert ("R1", "bad_seam.py") in suppressed


def test_suppression_does_not_silence_other_rules(fixture_result):
    # bad_seam.py line 13 reads time.time() under an R1 suppression: the
    # R2 wall-clock finding on the same line must still fire.
    seam = _by_file(fixture_result, "abcast/bad_seam.py")
    assert any(f.rule == "R2" and f.line == 13 for f in seam)


def test_class_level_suppression_covers_the_class(fixture_result):
    # WaivedTimer arms a timer with no on_restart but sits under an
    # own-line `# repro: ignore[R4] -- ...`: no R4 finding for it.
    assert not any("WaivedTimer" in f.message for f in fixture_result.findings)
    assert any(s.rule == "R4" for s in fixture_result.suppressed)


def test_unjustified_suppression_is_inert_and_flagged(fixture_result):
    # bad_seam.py line 17: `# repro: ignore[R2]` with no justification.
    sup = [f for f in _by_file(fixture_result, "abcast/bad_seam.py") if f.rule == "SUP"]
    assert any(f.line == 17 and "without a justification" in f.message for f in sup)


def test_strict_mode_flags_unused_suppressions(fixture_strict_result):
    # bad_seam.py line 13 suppresses R1 but no R1 finding lands there.
    sup = [f for f in _by_file(fixture_strict_result, "abcast/bad_seam.py") if f.rule == "SUP"]
    assert any(f.line == 13 and "unused suppression for R1" in f.message for f in sup)
    # Non-strict runs do not flag it (grandfathered cleanups stay quiet).


def test_unused_suppression_not_flagged_without_strict(fixture_result):
    sup = [f for f in fixture_result.findings if f.rule == "SUP"]
    assert not any("unused suppression" in f.message for f in sup)


# ---------------------------------------------------------------------------
# Determinism, fingerprints, baseline.
# ---------------------------------------------------------------------------


def test_findings_are_sorted_and_deterministic(fixture_result):
    keys = [f.sort_key() for f in fixture_result.findings]
    assert keys == sorted(keys)
    again = analyze([str(FIXTURE)])
    assert [f.to_json() for f in again.findings] == [
        f.to_json() for f in fixture_result.findings
    ]


def test_fingerprints_are_line_number_independent():
    a = Finding(rule="R2", path="p.py", line=5, col=0, message="m", scope="f", snippet="x = 1")
    b = Finding(rule="R2", path="p.py", line=99, col=4, message="m", scope="f", snippet="x = 1")
    assert a.fingerprint == b.fingerprint
    c = Finding(rule="R2", path="p.py", line=5, col=0, message="m", scope="f", snippet="x = 2")
    assert a.fingerprint != c.fingerprint


def test_baseline_round_trip(tmp_path, fixture_result):
    path = tmp_path / "baseline.json"
    Baseline.write(path, fixture_result.findings)
    loaded = Baseline.load(path)
    rerun = analyze([str(FIXTURE)], baseline=loaded)
    assert not rerun.findings or all(f.rule == "SUP" for f in rerun.findings)
    assert len(rerun.baselined) == len(
        [f for f in fixture_result.findings if f.rule != "SUP"]
    )


def test_rule_selection_runs_only_named_rules():
    result = analyze([str(FIXTURE)], rules=("R3",))
    fired = {f.rule for f in result.findings}
    assert fired <= {"R3", "SUP"}
    assert "R3" in fired


def test_rule_registry_is_complete():
    assert list(ALL_RULES) == ["R1", "R2", "R3", "R4", "R5", "R6"]
    for code, (info, _run) in ALL_RULES.items():
        assert info.code == code
        assert info.summary


# ---------------------------------------------------------------------------
# Self-hosting: the real tree is clean with an EMPTY baseline.
# ---------------------------------------------------------------------------


def test_src_repro_is_clean_under_strict_empty_baseline():
    result = analyze([str(SRC_TREE)], strict=True)
    assert result.findings == [], "\n".join(f.render() for f in result.findings)


def test_checked_in_baseline_is_empty():
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    assert len(baseline) == 0
