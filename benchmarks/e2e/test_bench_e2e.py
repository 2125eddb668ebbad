"""Self-test of bench-e2e: ``python -m pytest benchmarks/e2e -q`` (not tier-1).

A ``--quick`` run of every workload, untraced and traced, must produce
every metric ``BENCHMARK.json`` names, finite and with its unit, and the
spans it writes must be well-formed.  Numbers are not asserted: a quick
run is too short for them to mean anything.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_quick(workload: str, trace: int, out_dir: pathlib.Path) -> dict:
    """One ``--quick`` run as the driver would start it; its last-line JSON."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--quick", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory: pytest.TempPathFactory) -> pathlib.Path:
    return tmp_path_factory.mktemp("bench-e2e")


def test_benchmark_json_meets_the_contract() -> None:
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in BENCHMARK["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_ref_performs_a_fixed_operation_count() -> None:
    assert refkernel.ref() == refkernel.REF_OPERATIONS == refkernel.ref()


def test_manifest_verifies_and_refuses_a_changed_input(
    tmp_path: pathlib.Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    manifest = workloads.load_manifest()
    assert manifest["manifest_version"] == 1
    copy = tmp_path / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    spec = copy / "specs" / "sim-steady.json"
    spec.write_text(spec.read_text().replace('"n": 7', '"n": 5'))
    monkeypatch.setattr(workloads, "HERE", copy)
    with pytest.raises(workloads.BenchError, match="sim-steady.json: sha256 differs"):
        workloads.load_manifest()


def test_panels_are_disjoint_and_skip_excluded_seeds() -> None:
    excluded = [3, 9]
    panels = [workloads.sim_panel(seed, excluded, 64) for seed in range(7)]
    flat = [s for panel in panels for s in panel]
    assert len(flat) == len(set(flat)) == 7 * workloads.PANEL
    assert not set(flat) & set(excluded)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced_run_reports_every_end_to_end_metric(
    workload: str, out_dir: pathlib.Path
) -> None:
    result = run_quick(workload, 0, out_dir)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run_reports_every_layer_metric_and_sound_spans(
    workload: str, out_dir: pathlib.Path
) -> None:
    result = run_quick(workload, 1, out_dir)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["host.trace_overhead"] > 0
    cell_shares = [n for n in value if n.endswith("_share") and not n.endswith("self_share")
                   and not n.startswith(("parallel.", "scenarios.to_json", "workload.",
                                         "failed", "runtime.realtime."))]
    assert sum(value[n] for n in cell_shares) == pytest.approx(1.0, abs=1e-9)
    assert sum(v for n, v in value.items() if n.endswith(".self_share")) == pytest.approx(1.0)

    written = json.loads((out_dir / f"spans-{workload}-seed3.json").read_text())
    assert written["spans_missing"] == []
    spans = written["spans"]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        assert span["end"] >= span["start"] and span["cpu_end"] >= span["cpu_start"]
        if span["parent"] is None:
            assert span["name"] == "bench.pass"
            continue
        parent = by_id[span["parent"]]
        assert parent["pass"] == span["pass"]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        own[span["parent"]] -= span["end"] - span["start"]
    assert min(own.values()) >= -1e-9
    for root in (s for s in spans if s["parent"] is None):
        inside = sum(own[s["id"]] for s in spans if s["pass"] == root["pass"])
        assert inside == pytest.approx(root["end"] - root["start"], abs=1e-6)


def test_compare_of_a_run_with_itself_finds_nothing_worse(
    out_dir: pathlib.Path, capsys: pytest.CaptureFixture
) -> None:
    for workload in WORKLOADS:  # uses the runs above when they ran first
        if not (out_dir / f"{workload}-seed3.json").is_file():
            run_quick(workload, 0, out_dir)
    assert compare.main(str(out_dir), str(out_dir)) == 0
    printed = capsys.readouterr().out
    # A two-pass quick run may be too noisy to resolve, never worse than itself.
    verdicts = printed.count("within-bound") + printed.count("unresolved")
    assert verdicts == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert "worse" not in printed and "DIFFERENT" not in printed
