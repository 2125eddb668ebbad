"""bench-e2e: one workload, one seed, a fixed measured time.

    python3 benchmarks/e2e/run.py --workload sim-steady --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload sim-steady --seed 0 --seconds 20 --trace 1
    python3 benchmarks/e2e/run.py --compare DIR_A DIR_B

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs the same entry points with span wrappers and one
profile pass and reports the per-layer metrics.  Either prints every
metric by name with its unit, checks the outputs, writes the details
under ``--out-dir`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero if any check failed.  See README.md for what the numbers mean.

Timing rule: a *pass* is one full operation on identical inputs; the
frozen reference kernel runs between every two passes; a pass costs its
seconds divided by the mean of the two adjacent kernel runs, and a
metric is the median over passes.  No flag or environment variable
changes what is timed; ``--quick`` only shortens the run (self-test).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from refkernel import REF_NOMINAL_S, REF_OPERATIONS, ref  # noqa: E402

#: Fresh interpreters ``setup_s`` is the median of.
SETUP_CHILDREN = 5
#: Kernel runs averaged on each side of a set-up child: there are only
#: five children, so each one's reference has to be steadier than a
#: single 35 ms sample of the host.
SETUP_REFS = 3


def timed_ref() -> Tuple[float, float]:
    """One reference-kernel run: ``(process-CPU seconds, wall seconds)``."""
    wall = time.perf_counter()
    cpu = time.process_time()
    operations = ref()
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    if operations != REF_OPERATIONS:
        raise RuntimeError(f"ref() did {operations} operations, not {REF_OPERATIONS}")
    return cpu, wall


# --------------------------------------------------------------------------- #
# Set-up time and memory
# --------------------------------------------------------------------------- #
def measure_setup(workload: str, seed: int, children: int) -> List[float]:
    """Drift-corrected seconds from spawn to first finished pass, per child.

    Each child is a fresh interpreter that imports the repo, loads and
    verifies the frozen inputs, warms the pool where the workload has
    one, runs one pass and exits.  Its wall time is divided by the mean
    of the reference-kernel runs before and after it and multiplied by
    the kernel's nominal duration, so the unit is seconds again.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-child", workload,
               "--seed", str(seed)]
    def reference() -> float:
        return statistics.mean(timed_ref()[1] for _ in range(SETUP_REFS))

    corrected = []
    before = reference()
    for _ in range(children):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = reference()
        corrected.append(elapsed / ((before + after) / 2.0) * REF_NOMINAL_S)
        before = after
    return corrected


def setup_child(workload_name: str, seed: int) -> int:
    """What ``measure_setup`` times: everything up to one finished pass.

    Only a crash fails the child; whether passes are *correct* is judged
    on the measured passes, not on this one.
    """
    workload = workloads.make_workload(workload_name, seed, workloads.load_manifest())
    try:
        workload.warm()
        workload.setup_pass()
    finally:
        workload.close()
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest live child, MiB."""
    peak_kib = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    largest_child = 0.0
    for child in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                largest_child = max(largest_child, float(line.split()[1]))
    return (peak_kib + largest_child) / 1024.0


# --------------------------------------------------------------------------- #
# The pass loop
# --------------------------------------------------------------------------- #
class Runner:
    """Runs passes of one workload, checks them, and costs them."""

    def __init__(self, workload: Any, tracer: Any) -> None:
        self.workload = workload
        self.tracer = tracer
        self.digests: Dict[int, str] = {}
        self.counts: Dict[Tuple[str, bool], int] = {}
        self.errors: List[str] = []
        self.missing: List[str] = []
        self.passes_run = 0

    def one_pass(self, kind: str, traced: bool, span: Any = None) -> Dict[str, Any]:
        """One checked pass of *kind*; never raises for a failing pass.

        *traced* installs the span wrappers for the pass; *span* (the
        profile's) replaces the no-op span factory of an untraced pass.
        """
        workload = self.workload
        index = self.counts.get((kind, traced), 0)
        self.counts[(kind, traced)] = index + 1
        pass_id = self.passes_run
        self.passes_run += 1
        kept: Dict[str, float] = {}
        gc.collect()
        try:
            if traced:
                with self.tracer.installed(pass_id):
                    done = workload.run_pass(index, kind, self.tracer.span)
                self.missing = list(self.tracer.missing)
                kept = layers.kept_counts(self.tracer.kept, self.missing)
                self.tracer.kept = []
            else:
                done = workload.run_pass(index, kind, span or workloads.no_span)
        except Exception:  # a pass that raises fails all its operations
            done = workloads.Pass(
                kind=kind, member=index % workload.members, cpu=0.0, wall=0.0,
                attempted=workload.operations, failed=workload.operations,
                digest=None, errors=[traceback.format_exc()],
            )
        if done.digest is not None and not done.errors:
            first = self.digests.setdefault(done.member, done.digest)
            if done.digest != first:
                done.errors.append(
                    f"report digest {done.digest[:12]} differs from {first[:12]} "
                    f"(member {done.member}, {kind}, traced={traced})"
                )
                done.failed = done.attempted
        self.errors.extend(f"pass {pass_id} ({kind}): {e}" for e in done.errors)
        return {
            "pass": pass_id, "kind": kind, "traced": traced, "member": done.member,
            "cpu": done.cpu, "wall": done.wall, "scale": done.scale,
            "attempted": done.attempted, "failed": done.failed, "ok": not done.errors,
            "facts": done.facts, "kept": kept,
        }

    def loop(self, seconds: float, cycle: Tuple[Tuple[str, bool], ...],
             estimate: Dict[str, float]) -> Tuple[List[Dict[str, Any]], List[Tuple[float, float]]]:
        """Cycle through *cycle* for *seconds*; cost every pass.

        *estimate* is the wall time a pass of each kind took last time;
        the loop stops when the next pass would end after the deadline,
        but never before one full cycle (two for a one-pass cycle).
        """
        clock = 0 if self.workload.clock == "cpu" else 1
        samples: List[Dict[str, Any]] = []
        minimum = max(2, len(cycle))
        deadline = time.perf_counter() + seconds
        refs = [timed_ref()]
        while True:
            kind, traced = cycle[len(samples) % len(cycle)]
            if len(samples) >= minimum and (
                time.perf_counter() + estimate[kind] + refs[-1][1] > deadline
            ):
                break
            sample = self.one_pass(kind, traced)
            refs.append(timed_ref())
            estimate[kind] = sample["wall"]
            reference = (refs[-2][clock] + refs[-1][clock]) / 2.0
            sample["cost"] = sample[self.workload.clock] * sample["scale"] / reference
            samples.append(sample)
        return samples, refs

    def digest(self) -> Optional[str]:
        """One digest over the panel's report digests (``None`` on rt)."""
        if not self.digests:
            return None
        joined = ",".join(f"{m}:{d}" for m, d in sorted(self.digests.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def run(args: argparse.Namespace) -> int:
    """Run one workload as the driver asks; print and write the result."""
    manifest = workloads.load_manifest()
    benchmark = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    seconds = min(args.seconds, 3.0) if args.quick else args.seconds
    traced_run = bool(args.trace)
    workload = workloads.make_workload(args.workload, args.seed, manifest)

    setups: List[float] = []
    if not traced_run:
        setups = measure_setup(args.workload, args.seed, 1 if args.quick else SETUP_CHILDREN)

    tracer = tracing.Tracer()
    profile = tracing.LayerProfile()
    runner = Runner(workload, tracer)
    kinds = list(dict.fromkeys(kind for kind, _ in workload.cycle))
    try:
        workload.warm()
        # Untimed passes first: one per kind (and, traced, per panel
        # member: the counts come from these), then the profiled ones.
        members = workload.members if traced_run else 1
        warm = [runner.one_pass(kind, traced_run) for kind in kinds for _ in range(members)]
        profiled = (
            [runner.one_pass(kind, False, profile.span) for kind in kinds] if traced_run else []
        )
        samples, refs = runner.loop(
            seconds,
            workload.cycle if traced_run else ((workload.main_kind, False),),
            {w["kind"]: w["wall"] for w in warm},
        )
        rss = peak_rss_mb()
    finally:
        workload.close()

    main = [s for s in samples if s["kind"] == workload.main_kind and not s["traced"] and s["ok"]]
    q1, median, q3 = layers.quartiles([s["cost"] for s in main])
    if traced_run:
        tracer.add_arm_spans()
        layers.relabel_drain_spans(tracer)
        values = layers.per_layer_metrics(workload, samples, warm, refs, tracer, profile.buckets())
        wanted = benchmark["per_layer"]
    else:
        values = {"pass_cost": median, "peak_rss_mb": rss, "setup_s": statistics.median(setups)}
        wanted = benchmark["end_to_end"]

    everything = warm + profiled + samples
    attempted = sum(s["attempted"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        runner.errors.append(f"metrics not produced: {absent}")
    correct = failed == 0 and not runner.errors
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in values
    }

    mode = "traced" if traced_run else "untraced"
    print(f"bench-e2e {args.workload} seed {args.seed} {mode}: "
          f"{len(samples)} passes in {seconds:g} s, manifest v{manifest['manifest_version']}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  pass cost quartiles {q1:.4f} / {median:.4f} / {q3:.4f} ref over {len(main)} passes")
    print(f"  report digest {runner.digest()}")
    if traced_run:
        print(f"  spans_missing {runner.missing}")
    for error in runner.errors:
        print(f"  FAILED {error}", file=sys.stderr)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    detail = {
        "manifest_version": manifest["manifest_version"],
        "workload": args.workload, "seed": args.seed, "traced": traced_run,
        "seconds": seconds, "digest": runner.digest(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": runner.errors, "metrics": metrics,
        "pass_cost": {"q1": q1, "median": median, "q3": q3, "passes": len(main)},
        "setup_s": setups, "refs": refs,
        "passes": [{k: v for k, v in s.items() if k not in ("facts", "kept")} for s in samples],
    }
    suffix = "-traced" if traced_run else ""
    (out_dir / f"{stem}{suffix}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if traced_run:
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps({"spans_missing": runner.missing, "spans": tracer.spans})
        )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shorten the run (self-test); changes nothing that is timed")
    parser.add_argument("--out-dir", default=str(HERE.parent / "out" / "e2e"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories (or files) of run outputs")
    parser.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1])
    if args.setup_child:
        return setup_child(args.setup_child, args.seed)
    if not args.workload:
        parser.error("--workload is required")
    try:
        return run(args)
    except workloads.BenchError as exc:
        print(f"bench-e2e: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
