"""The five frozen workloads and the checks every pass must satisfy.

A workload turns ``--seed`` into inputs, runs one *pass* (one full
operation on those inputs) through the repo's public entry points, times
exactly that operation, and then checks what came back.  Only these
names are called; a refactor must keep them or re-point this file in a
``benchmark`` PR:

* ``repro.scenarios``: ``spec_from_json``, ``run_scenario``,
  ``run_campaign``, ``Campaign``, ``ScenarioResult.to_dict``,
  ``CampaignResult.to_json``
* ``repro.parallel``: ``get_pool(jobs).warm()``, ``shutdown_pool()``
* ``repro.runtime.soak``: ``SoakConfig``, ``run_soak``
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import sys
import time
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # The program under test is the checkout's source, never a copy of
    # the package that happens to be installed.
    raise ImportError(f"bench-e2e needs a full checkout: no src/repro under {ROOT}")
sys.path.insert(0, str(ROOT / "src"))

from repro.scenarios import Campaign, run_campaign, run_scenario, spec_from_json  # noqa: E402

#: Sim seeds one ``--seed`` expands to; passes rotate through them.
PANEL = 8
#: Campaign seeds one ``--seed`` expands to.
POOL_SEEDS = 8

SIM_WORKLOADS = {
    "sim-steady": "structural",
    "sim-faulted-chain": "structural",
    "sim-fulltrace-log": "full",
}
POOL_SPEC_NAMES = (
    "pool-steady", "pool-one-switch", "pool-pipelined-loss", "pool-crash-rejoin",
)
WORKLOADS = (*SIM_WORKLOADS, "campaign-pool", "rt-steady")

#: ``span(name)`` as the workloads use it; the untraced run passes
#: :func:`no_span`, the traced run the tracer's method.
Span = Callable[[str], ContextManager[Any]]


class BenchError(Exception):
    """The benchmark cannot run as frozen (bad manifest, bad arguments)."""


def no_span(name: str) -> ContextManager[Any]:
    """The span factory of an untraced pass: records nothing."""
    return contextlib.nullcontext()


# --------------------------------------------------------------------------- #
# Frozen inputs
# --------------------------------------------------------------------------- #
def sha256_of(path: pathlib.Path) -> str:
    """Hex sha256 of the bytes of *path*."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_manifest() -> Dict[str, Any]:
    """Read ``manifest.json`` and refuse to go on if anything it pins moved."""
    manifest = json.loads((HERE / "manifest.json").read_text())
    problems = []
    for name, digest in sorted(manifest["sha256"].items()):
        path = HERE / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif sha256_of(path) != digest:
            problems.append(f"{name}: sha256 differs from manifest")
    pinned_specs = {n for n in manifest["sha256"] if n.startswith("specs/")}
    on_disk = {p.relative_to(HERE).as_posix() for p in (HERE / "specs").glob("*.json")}
    problems.extend(f"{n}: not in manifest" for n in sorted(on_disk - pinned_specs))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if benchmark["run_seconds"] != manifest["run_seconds"]:
        problems.append("BENCHMARK.json run_seconds differs from manifest")
    if {m["name"]: m["bound"] for m in benchmark["end_to_end"]} != manifest["bounds"]:
        problems.append("BENCHMARK.json bounds differ from manifest")
    if problems:
        raise BenchError(
            "frozen inputs changed; a workload may only change with a "
            "manifest_version bump (benchmarks/e2e/freeze.py):\n  "
            + "\n  ".join(problems)
        )
    return manifest


def sim_panel(seed: int, excluded: Sequence[int], space: int) -> List[int]:
    """The :data:`PANEL` sim seeds ``--seed`` stands for.

    Seeds come from ``range(space)`` minus the seeds the manifest
    excludes (inputs on which the *system* fails, recorded at freeze
    time), in disjoint consecutive blocks that wrap around.
    """
    usable = [s for s in range(space) if s not in set(excluded)]
    return [usable[(seed * PANEL + k) % len(usable)] for k in range(PANEL)]


# --------------------------------------------------------------------------- #
# Pass results
# --------------------------------------------------------------------------- #
class Stopwatch:
    """Process-CPU and wall seconds of the ``with`` body."""

    cpu = 0.0
    wall = 0.0

    def __enter__(self) -> "Stopwatch":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.cpu = time.process_time() - self._cpu0
        self.wall = time.perf_counter() - self._wall0


@dataclasses.dataclass
class Pass:
    """What one pass did, cost and checked."""

    kind: str
    member: int
    cpu: float
    wall: float
    attempted: int
    failed: int
    #: sha256 of the deterministic report text (``None`` on rt-steady).
    digest: Optional[str]
    #: Multiplier that expresses the pass's seconds at the workload's
    #: nominal amount of work (rt-steady sends fewer messages when its
    #: generators run late; everything else is exactly 1).
    scale: float = 1.0
    #: Report-derived numbers the per-layer metrics are built from.
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)
    errors: List[str] = dataclasses.field(default_factory=list)


def _children_cpu_seconds() -> float:
    """CPU seconds the live child processes (the pool workers) have used."""
    ticks = 0
    for child in multiprocessing.active_children():
        try:
            stat = pathlib.Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_errors(run: Dict[str, Any], spec: Any, expected_sent: int) -> List[str]:
    """Why one scenario report is not a correct cell (empty = correct)."""
    errors = []
    where = f"{run['name']} seed {run['seed']}"
    if not run["ok"]:
        bad = {k: len(v) for k, v in run["violations"].items() if v}
        errors.append(f"{where}: violations {bad}")
    if run["sim_time_end"] >= spec.duration + spec.quiescence_extra:
        errors.append(f"{where}: did not drain")
    if run["sent_total"] != expected_sent:
        errors.append(f"{where}: sent {run['sent_total']}, schedule says {expected_sent}")
    if not run["crashed"] and run["ordered_common"] != run["sent_total"]:
        errors.append(
            f"{where}: ordered {run['ordered_common']} of {run['sent_total']} sent"
        )
    if any(str(m) not in run["rejoined"] for m in run["crashed"]):
        errors.append(f"{where}: crashed {run['crashed']} but rejoined {run['rejoined']}")
    return errors


def _cell_facts(runs: Sequence[Dict[str, Any]], report_bytes: int) -> Dict[str, float]:
    """Sums over the scenario reports of one pass."""
    def total(fn: Callable[[Dict[str, Any]], float]) -> float:
        return float(sum(fn(run) for run in runs))

    latencies = [r["mean_latency_s"] for r in runs if r["mean_latency_s"] is not None]
    convergences = [
        r["switch_chain"]["convergence_time"]
        for r in runs
        if r["switch_chain"].get("convergence_time") is not None
    ]
    return {
        "cells": float(len(runs)),
        "events": total(lambda r: r["events_processed"]),
        "sim_seconds": total(lambda r: r["sim_time_end"]),
        "sent": total(lambda r: r["sent_total"]),
        "ordered_common": total(lambda r: r["ordered_common"]),
        "deliveries": total(lambda r: sum(r["delivered_per_stack"].values())),
        "datagrams": total(lambda r: r["network"].get("sent", 0)),
        "bytes": total(lambda r: r["network"].get("bytes_sent", 0)),
        "dropped_loss": total(lambda r: r["network"].get("dropped_loss", 0)),
        "duplicated": total(lambda r: r["network"].get("duplicated", 0)),
        "dropped_crashed_receiver": total(
            lambda r: r["network"].get("dropped_crashed_receiver", 0)
        ),
        "switches": total(lambda r: len(r["switch_windows"])),
        "stale_discards": total(
            lambda r: sum(r["switch_chain"].get("stale_discards", {}).values())
        ),
        "window_overlap_ms": 1000.0 * total(
            lambda r: sum(w["overlap_with_previous"] or 0.0 for w in r["switch_windows"])
        ),
        "rejoins": total(lambda r: len(r["rejoined"])),
        "latency_ms": 1000.0 * sum(latencies) / len(latencies) if latencies else 0.0,
        "convergence_ms": (
            1000.0 * sum(convergences) / len(convergences) if convergences else 0.0
        ),
        "report_bytes": float(report_bytes),
    }


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Workload:
    """What the runner needs of a workload; the defaults suit most."""

    #: Seconds the cost is made of: process CPU, or wall for the pool.
    clock = "cpu"
    #: Inputs the passes rotate through.
    members = 1
    #: The pass kind ``pass_cost`` is about, and the one that runs cells
    #: in this process (source of per-cell phases and module counters).
    main_kind = cell_kind = "cell"
    #: ``(kind, traced)`` order of the traced run's passes.
    cycle: Tuple[Tuple[str, bool], ...] = ()
    #: Operations one pass attempts, and messages its schedule sends
    #: (over all members); what a pass that raises is charged with.
    operations = 1
    nominal_sent = 0

    def warm(self) -> None:
        """Start what outlives a pass (the pool); nothing by default."""

    def run_pass(self, index: int, kind: str, span: Span = no_span) -> Pass:
        """Run, time and check pass number *index* of *kind*."""
        raise NotImplementedError

    def setup_pass(self) -> Pass:
        """The pass a set-up child runs before it exits."""
        return self.run_pass(0, self.main_kind)

    def close(self) -> None:
        """Stop what :meth:`warm` started; nothing by default."""


class SimCell(Workload):
    """One pinned scenario cell: ``run_scenario`` + sorted-key JSON.

    Passes rotate through a panel of :data:`PANEL` sim seeds, so one run
    covers eight inputs and its median cost does not hinge on whether a
    single seed happens to draw a slow fault schedule.
    """

    cycle = (("cell", False), ("cell", True))

    def __init__(self, name: str, seed: int, manifest: Dict[str, Any]) -> None:
        self.name = name
        self.trace = SIM_WORKLOADS[name]
        self.spec = spec_from_json((HERE / "specs" / f"{name}.json").read_text())
        self.expected_sent = manifest["expected_sent"][name]
        self.seeds = sim_panel(
            seed, manifest["excluded_sim_seeds"].get(name, ()), manifest["sim_seed_space"]
        )
        self.members = len(self.seeds)
        self.nominal_sent = self.expected_sent * self.members

    def run_pass(self, index: int, kind: str, span: Span = no_span) -> Pass:
        member = index % self.members
        with Stopwatch() as watch, span("bench.pass"):
            with span("scenarios.cell"):
                result = run_scenario(self.spec, self.seeds[member], self.trace)
            with span("scenarios.serialise"):
                text = json.dumps(result.to_dict(), sort_keys=True)
        run = json.loads(text)
        errors = cell_errors(run, self.spec, self.expected_sent)
        return Pass(
            kind=kind, member=member, cpu=watch.cpu, wall=watch.wall,
            attempted=1, failed=1 if errors else 0, digest=_digest(text),
            facts=_cell_facts([run], len(text)), errors=errors,
        )


class CampaignPool(Workload):
    """32 small unequal cells through ``run_campaign`` on the warm pool.

    ``kind="pooled"`` uses ``jobs=min(nproc, 4)``, ``kind="serial"``
    ``jobs=1``; both must produce the same bytes.
    """

    clock = "wall"
    main_kind = "pooled"
    #: Per-cell phases and module counters come from the in-process pass.
    cell_kind = "serial"
    #: The traced run also times serial passes (speed-up, per-cell phases).
    cycle = (("pooled", False), ("pooled", True), ("pooled", False), ("pooled", True),
             ("serial", True))

    def __init__(self, name: str, seed: int, manifest: Dict[str, Any]) -> None:
        self.name = name
        specs = tuple(
            spec_from_json((HERE / "specs" / f"{n}.json").read_text())
            for n in POOL_SPEC_NAMES
        )
        self.specs = {spec.name: spec for spec in specs}
        self.expected_sent = manifest["expected_sent"]
        self.campaign = Campaign("bench-e2e-pool", specs)
        self.seeds = list(range(POOL_SEEDS * seed, POOL_SEEDS * (seed + 1)))
        self.jobs = min(os.cpu_count() or 1, 4)
        self.spawn_warm_s = 0.0
        self.operations = len(specs) * len(self.seeds)
        self.nominal_sent = len(self.seeds) * sum(
            self.expected_sent[spec.name] for spec in specs
        )

    def warm(self) -> None:
        """Fork the pool workers and round-trip a ping through each."""
        if self.jobs > 1:
            from repro.parallel import get_pool

            start = time.perf_counter()
            get_pool(self.jobs).warm()
            self.spawn_warm_s = time.perf_counter() - start

    def run_pass(self, index: int, kind: str, span: Span = no_span) -> Pass:
        jobs = self.jobs if kind == "pooled" else 1
        worker_cpu = _children_cpu_seconds()
        with Stopwatch() as watch, span("bench.pass"):
            with span("scenarios.run_campaign"):
                result = run_campaign(self.campaign, self.seeds, jobs=jobs)
            with span("scenarios.to_json"):
                text = result.to_json()
        worker_cpu = _children_cpu_seconds() - worker_cpu
        runs = json.loads(text)["runs"]
        bad_cells = 0
        errors: List[str] = []
        for run in runs:
            problems = cell_errors(
                run, self.specs[run["name"]], self.expected_sent[run["name"]]
            )
            bad_cells += 1 if problems else 0
            errors.extend(problems)
        cells = self.operations
        if len(runs) != cells:
            errors.append(f"{len(runs)} cells reported, {cells} expected")
            bad_cells = cells
        facts = _cell_facts(runs, len(text))
        facts["jobs"] = float(jobs)
        facts["worker_cpu_s"] = worker_cpu
        return Pass(
            kind=kind, member=0, cpu=watch.cpu, wall=watch.wall,
            attempted=cells, failed=bad_cells, digest=_digest(text),
            facts=facts, errors=errors,
        )

    def close(self) -> None:
        """Stop the pool workers and wait for them."""
        from repro.parallel import shutdown_pool

        shutdown_pool()


class RtSteady(Workload):
    """One open-loop soak on the realtime backend (asyncio UDP, localhost).

    Generators are timer-driven and re-arm relative to *now*, so a late
    generator sends fewer messages; the pass is costed per delivery and
    scaled back to the schedule's nominal delivery count.
    """

    main_kind = cell_kind = "soak"
    cycle = (("soak", False), ("soak", True))

    def __init__(self, name: str, seed: int, manifest: Dict[str, Any]) -> None:
        from repro.runtime.soak import SoakConfig

        self.name = name
        fields = json.loads((HERE / "specs" / "rt-steady.json").read_text())
        fields["plan"] = tuple((at, protocol) for at, protocol in fields["plan"])
        self.config = SoakConfig(seed=seed, **fields)
        self.nominal_sent = manifest["expected_sent"][name]
        self.operations = self.nominal_sent * self.config.nodes

    def setup_pass(self) -> Pass:
        """A third of the load window is enough to import and boot everything
        a pass touches; the rest of a pass is wall-clock waiting."""
        short = dataclasses.replace(self.config, duration=self.config.duration / 3.0)
        return self._soak(short, no_span)

    def run_pass(self, index: int, kind: str, span: Span = no_span) -> Pass:
        return self._soak(self.config, span)

    def _soak(self, config: Any, span: Span) -> Pass:
        from repro.runtime.soak import run_soak

        with Stopwatch() as watch, span("bench.pass"):
            with span("runtime.soak"):
                report = run_soak(config)
        nodes = config.nodes
        sent = report["sends"]
        deliveries = sum(report["deliveries"].values())
        obligations = sent * nodes
        errors = []
        if report["violations"]:
            errors.append(f"violations {sorted(report['violations'])}")
        if not report["switches_ok"]:
            errors.append(f"switch chain incomplete: {report['switches_complete']}")
        if not report["drained"]:
            errors.append(f"pending after drain: {report['drain_pending']}")
        if not report["ok"] and not errors:
            errors.append("soak report not ok")
        if sent == 0:
            errors.append("nothing sent")
        failed = max(obligations, 1) if errors else obligations - deliveries
        latency = report["latency"]
        transport = report["transport"]
        return Pass(
            kind=self.main_kind, member=0, cpu=watch.cpu, wall=watch.wall,
            attempted=max(obligations, 1), failed=failed, digest=None,
            scale=self.nominal_sent * nodes / max(deliveries, 1),
            facts={
                "cells": 1.0,
                "sent": float(sent),
                "sent_share": sent / self.nominal_sent,
                "deliveries": float(deliveries),
                "rt_events": float(report["events_processed"]),
                "datagrams": float(transport["sent"]),
                "bytes": float(transport["bytes_sent"]),
                "malformed": float(transport["malformed"]),
                "switches": float(len(report["switches_complete"])),
                "stale_discards": float(sum(report["stale"].values())),
                "rt_seconds": float(report["now"]),
                "latency_p50_ms": 1000.0 * latency.get("p50", 0.0),
                "latency_p99_ms": 1000.0 * latency.get("p99", 0.0),
            },
            errors=errors,
        )


def make_workload(name: str, seed: int, manifest: Dict[str, Any]) -> Any:
    """The workload object for *name* at ``--seed`` *seed*."""
    if seed < 0:
        raise BenchError(f"--seed must be >= 0, got {seed}")
    if name in SIM_WORKLOADS:
        return SimCell(name, seed, manifest)
    if name == "campaign-pool":
        return CampaignPool(name, seed, manifest)
    if name == "rt-steady":
        return RtSteady(name, seed, manifest)
    raise BenchError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
