"""CLI tests for ``python -m repro.analysis``: exit codes, JSON, baseline."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURE = str(REPO_ROOT / "tests" / "fixtures" / "analysis_proj" / "repro")
SRC_TREE = str(REPO_ROOT / "src" / "repro")
EMPTY_BASELINE = str(REPO_ROOT / "analysis-baseline.json")


def test_exit_zero_on_clean_tree(capsys):
    rc = main([SRC_TREE, "--strict", "--baseline", EMPTY_BASELINE])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 finding(s)" in out


def test_exit_one_on_findings(capsys):
    rc = main([FIXTURE, "--baseline", EMPTY_BASELINE])
    out = capsys.readouterr().out
    assert rc == 1
    assert "R1 " in out and "R6 " in out
    # Renderings are path:line:col: CODE message, sorted by (path, line, col).
    keys = []
    for line in out.splitlines():
        if ": R" not in line and ": SUP" not in line:
            continue
        path, lineno, col, _rest = line.split(":", 3)
        keys.append((path, int(lineno), int(col)))
    assert keys == sorted(keys)


def test_exit_two_on_bad_rule_code(capsys):
    rc = main([FIXTURE, "--rules", "R9", "--baseline", EMPTY_BASELINE])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown rule code" in err


def test_exit_two_on_bad_baseline_version(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"version": 99, "findings": []}')
    rc = main([FIXTURE, "--baseline", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "baseline version" in err


def test_json_report_shape(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(
        [FIXTURE, "--json", "--json-out", str(out_path), "--baseline", EMPTY_BASELINE]
    )
    assert rc == 1
    stdout_report = json.loads(capsys.readouterr().out)
    file_report = json.loads(out_path.read_text())
    assert stdout_report == file_report
    assert file_report["version"] == 1
    assert file_report["rules"] == ["R1", "R2", "R3", "R4", "R5", "R6"]
    assert file_report["suppressed"] == 2
    assert file_report["baselined"] == 0
    counts = file_report["counts"]
    assert all(counts[code] >= 1 for code in ("R1", "R2", "R3", "R4", "R5", "R6"))
    for entry in file_report["findings"]:
        assert set(entry) >= {"rule", "path", "line", "col", "message", "fingerprint"}


def test_json_report_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main([FIXTURE, "--json-out", str(a), "--baseline", EMPTY_BASELINE])
    main([FIXTURE, "--json-out", str(b), "--baseline", EMPTY_BASELINE])
    assert a.read_text() == b.read_text()


def test_write_baseline_then_rerun_is_grandfathered(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    rc = main([FIXTURE, "--baseline", str(baseline), "--write-baseline"])
    assert rc == 0
    capsys.readouterr()
    # Rule findings are grandfathered now; only post-baseline suppression
    # hygiene (the planted unjustified marker) remains active.
    rc = main([FIXTURE, "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert "15 baselined" in out
    active = [line for line in out.splitlines() if ": R" in line]
    assert not active
    assert rc == 1  # the SUP hygiene finding still gates


def test_stale_baseline_entries_reported(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "findings": [
                    {
                        "fingerprint": "deadbeefdeadbeefdeadbeef",
                        "rule": "R1",
                        "path": "gone.py",
                        "scope": "",
                        "snippet": "import time",
                    }
                ],
            }
        )
    )
    main([FIXTURE, "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert "1 stale baseline" in out


def test_list_rules(capsys):
    rc = main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in ("R1", "R2", "R3", "R4", "R5", "R6"):
        assert code in out


def test_no_paths_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
