"""``run.py --compare A B``: the A/B report a performance claim rests on.

*A* and *B* are directories of run outputs (``--out-dir``), or single
output files.  Per workload and end-to-end metric it prints both
medians, their quartiles, the ratio with its base and a verdict:

``within-bound``
    B's median is not worse than A's by more than the metric's bound.
``worse``
    it is.
``unresolved``
    the spread of either side is wider than the bound, so the medians
    cannot tell (unless every B run reads better than every A run).

With two or more runs per side the spread is the interquartile range of
the run values over their median; with one run per side it is estimated
from inside the run (interquartile range of the passes over
sqrt(passes)), which is the scale of the median's own sampling error.

Exact numbers — the report digest, the simulated metrics and the counts
of the deterministic workloads — must be *equal* for equal seeds, not
close.  Exit code 1 on any ``worse`` or any exact number that differs.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, List, Tuple

from layers import quartiles

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: Per-layer metrics that repeat exactly on the deterministic workloads.
EXACT_PREFIXES = (
    "sim.events", "kernel.stack.", "kernel.trace.records", "net.d", "net.bytes_per_msg",
    "net.rp2p.", "dpu.switches", "dpu.reissues", "dpu.stale_discards",
    "dpu.window_overlap_ms", "gm.rejoins", "workload.sent", "workload.ordered_common",
    "scenarios.report_bytes", "parallel.cells", "parallel.fragment_bytes",
    "abcast_latency_ms", "switch_convergence_ms",
)
NOT_EXACT_WORKLOADS = ("rt-steady",)


def load(path: str) -> Dict[Tuple[str, bool], List[Dict[str, Any]]]:
    """``(workload, traced) -> runs`` from a directory or one file."""
    root = pathlib.Path(path)
    files = sorted(root.glob("*.json")) if root.is_dir() else [root]
    runs: Dict[Tuple[str, bool], List[Dict[str, Any]]] = {}
    for file in files:
        if file.name.startswith("spans-"):
            continue
        run = json.loads(file.read_text())
        if "workload" in run and "metrics" in run:
            runs.setdefault((run["workload"], run["traced"]), []).append(run)
    return runs


def is_exact(name: str, workload: str) -> bool:
    """Whether per-layer metric *name* must repeat exactly on *workload*.

    Call counts repeat only where one process runs the whole pass (how
    often the pool parent wakes up depends on when the replies arrive)
    and only for the repo's own files: the interpreter makes a few
    built-in calls of its own under the profiler.
    """
    if name.endswith(".calls"):
        return workload.startswith("sim-") and name not in ("other.calls", "json.calls")
    return name.startswith(EXACT_PREFIXES) and not name.endswith("_share")


def side(runs: List[Dict[str, Any]], name: str) -> Tuple[List[float], float, float, float, float]:
    """``(run values, q1, median, q3, spread)`` of metric *name* on one side."""
    values = [run["metrics"][name]["value"] for run in runs]
    if len(values) >= 2:
        q1, median, q3 = quartiles(values)
        return values, q1, median, q3, (q3 - q1) / median if median else 0.0
    run = runs[0]
    median = values[0]
    inside: List[float] = []
    if name == "pass_cost":
        inside = [p["cost"] for p in run["passes"]]
    elif name == "setup_s":
        inside = run["setup_s"]
    if len(inside) < 2:
        return values, median, median, median, 0.0
    q1, _, q3 = quartiles(inside)
    return values, q1, median, q3, (q3 - q1) / median / math.sqrt(len(inside))


def verdict(a: List[float], b: List[float], worse_by: float, spread: float, bound: float,
            lower_is_better: bool) -> str:
    """``within-bound`` / ``worse`` / ``unresolved`` as the docstring defines them."""
    if spread > bound:
        all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
        return "within-bound" if all_better else "unresolved"
    return "worse" if worse_by > bound else "within-bound"


def main(path_a: str, path_b: str) -> int:
    """Print the comparison; return the exit code."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load(path_a), load(path_b)
    bad = 0
    print(f"A = {path_a}\nB = {path_b}\nratio = B / A (base A); quartiles in brackets")
    header = (f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':<30} "
              f"{'B median [q1, q3]':<30} {'B/A':>7} {'bound':>6}  verdict")
    print(header)
    for workload in (w["name"] for w in benchmark["workloads"]):
        a, b = runs_a.get((workload, False)), runs_b.get((workload, False))
        if not a or not b:
            print(f"{workload:<18} no untraced run on {'A' if not a else 'B'}")
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            va, a1, am, a3, sa = side(a, name)
            vb, b1, bm, b3, sb = side(b, name)
            ratio = bm / am
            worse_by = ratio - 1.0 if lower else 1.0 - ratio
            result = verdict(va, vb, worse_by, max(sa, sb), bound, lower)
            bad += result == "worse"
            print(f"{workload:<18} {name:<12} "
                  f"{f'{am:.4f} [{a1:.4f}, {a3:.4f}] n={len(va)}':<30} "
                  f"{f'{bm:.4f} [{b1:.4f}, {b3:.4f}] n={len(vb)}':<30} "
                  f"{ratio:>7.4f} {bound:>6.2f}  {result}")
        failed_a = sum(r["failed"] for r in a), sum(r["attempted"] for r in a)
        failed_b = sum(r["failed"] for r in b), sum(r["attempted"] for r in b)
        print(f"{workload:<18} failed/attempted  A {failed_a[0]}/{failed_a[1]}  "
              f"B {failed_b[0]}/{failed_b[1]}")
        bad += failed_b[0] > failed_a[0]

    print("\nexact numbers (equal seeds only; must be equal, not close)")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, traced = key
        by_seed_b = {run["seed"]: run for run in runs_b[key]}
        for run_a in runs_a[key]:
            run_b = by_seed_b.get(run_a["seed"])
            if run_b is None or workload in NOT_EXACT_WORKLOADS:
                continue
            differing = []
            if run_a["digest"] != run_b["digest"]:
                differing.append(f"digest {run_a['digest'][:12]} -> {run_b['digest'][:12]}")
            if traced:
                for name, metric in run_a["metrics"].items():
                    other = run_b["metrics"].get(name, {}).get("value")
                    if is_exact(name, workload) and metric["value"] != other:
                        differing.append(f"{name} {metric['value']!r} -> {other!r}")
            mode = "traced" if traced else "untraced"
            state = "DIFFERENT: " + "; ".join(differing) if differing else (
                f"equal (digest {run_a['digest'][:12]})")
            print(f"{workload:<18} seed {run_a['seed']:<4} {mode:<9} {state}")
            bad += bool(differing)
    return 1 if bad else 0
