"""Core hot-path benchmarks and the unified perf driver.

Measures the three throughput numbers every experiment bottoms out in —
**events/sec** through the discrete-event loop, **datagrams/sec** through
the simulated network path, and **campaign wall-clock** (serial vs
process-parallel) — and appends one machine-readable record per
invocation to a trajectory file (default ``benchmarks/BENCH_core.json``),
so the perf curve across commits stays visible.

Run standalone (the driver)::

    PYTHONPATH=src python benchmarks/bench_core.py                # full mode
    PYTHONPATH=src python benchmarks/bench_core.py --quick        # CI mode
    PYTHONPATH=src python benchmarks/bench_core.py --quick \\
        --check benchmarks/baselines/bench_core_baseline.json     # perf gate

The gate compares the **normalised** event-loop score — events/sec divided
by a small pure-Python calibration loop measured in the same process — so
a slower CI machine does not trip it; only a real regression of the
simulator relative to the interpreter does.  ``--check`` exits non-zero
when the score drops more than ``--tolerance`` (default 30%) below the
stored baseline.

The ``test_*`` wrappers run the same bodies under pytest-benchmark like
the rest of the suite (quick-mode sizes under ``REPRO_BENCH_QUICK=1``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, Optional

import pytest

from conftest import q
from repro.scenarios import Campaign, ScenarioSpec, get_campaign, run_campaign
from repro.sim import Machine, Simulator, lan_latency
from repro.net import NetMessage, SimNetwork, SwitchedLan

#: Event count for the event-loop microbench.
N_EVENTS = q(200_000, 20_000)
#: Best-of-N repeats for the microbenches (scheduler-noise hygiene).
REPEATS = q(3, 2)
#: Datagram count for the network-path microbench.
N_DATAGRAMS = q(50_000, 5_000)
#: Simulated seconds of the full-stack kernel-dispatch benchmark.
FULLSTACK_SIM_SECONDS = q(2.0, 0.5)
#: Query count for the kernel query-path microbench.
N_QUERIES = q(200_000, 20_000)
#: Seeds for the campaign wall-clock measurement.
CAMPAIGN_SEEDS = q((0, 1), (0,))
#: Scenarios (from the smoke campaign) used for the campaign measurement.
CAMPAIGN_NAME = "smoke"
#: Wide-matrix campaign: specs × seeds cells (>= 64 in full mode), the
#: shape the warm-pool executor is built for.
WIDE_SPECS = q(16, 4)
WIDE_SEEDS = q(4, 2)
#: Default trajectory file.  Unlike the regenerable artefacts under
#: ``benchmarks/out/`` (gitignored), the trajectory is **committed**: one
#: record per invocation, so the perf curve across PRs stays visible.
DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_core.json"
#: Default checked-in baseline for the CI regression gate.
DEFAULT_BASELINE = pathlib.Path(__file__).parent / "baselines" / "bench_core_baseline.json"


# --------------------------------------------------------------------------- #
# Benchmark bodies
# --------------------------------------------------------------------------- #
def calibrate_pyops(n: int = 2_000_000) -> float:
    """Pure-Python ops/sec of this interpreter on this machine.

    A trivial arithmetic loop; dividing the simulator's events/sec by this
    yields a hardware- and interpreter-normalised score that is comparable
    across machines (used by the regression gate).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    dt = time.perf_counter() - t0
    return n / dt


def bench_event_loop(n_events: Optional[int] = None) -> Dict[str, float]:
    """Schedule *n* events and drain them: schedule cost + dispatch cost.

    The same shape as ``bench_kernel.test_event_loop_throughput`` — one
    timed pass over the full schedule→fire life of every event, which is
    where the handle-allocation and double-heap-inspection savings show.
    Calls ``schedule_at``, the primitive the hot paths call (network
    deliveries, timers), handle-free like ~90% of real events.
    """
    if n_events is None:
        n_events = N_EVENTS
    best: Optional[Dict[str, float]] = None
    for _ in range(REPEATS):
        sim = Simulator(seed=1)
        schedule_at = sim.schedule_at
        nop = _nop
        t0 = time.perf_counter()
        for i in range(n_events):
            schedule_at(i * 1e-6, nop)
        sim.run()
        seconds = time.perf_counter() - t0
        rate = sim.events_processed / seconds
        if best is None or rate > best["events_per_sec"]:
            best = {
                "events": sim.events_processed,
                "seconds": seconds,
                "events_per_sec": rate,
            }
    assert best is not None
    return best


def _nop() -> None:
    pass


def bench_event_loop_steady(
    n_events: Optional[int] = None, chains: int = 64, cancellable: bool = False
) -> Dict[str, float]:
    """Self-rescheduling timer chains: the engine's steady-state loop.

    A small constant heap (64 chains) with every event rescheduling
    itself — dominated by per-event loop/dispatch cost rather than
    allocation.  ``cancellable=True`` measures the handle-allocating path.
    """
    if n_events is None:
        n_events = N_EVENTS
    best: Optional[Dict[str, float]] = None
    for _ in range(REPEATS):
        sim = Simulator(seed=1)
        schedule_at = sim.schedule_at
        remaining = [n_events]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                schedule_at(sim.now + 1e-6, tick, cancellable=cancellable)

        for _ in range(chains):
            sim.schedule(0.0, tick)
        t0 = time.perf_counter()
        sim.run()
        seconds = time.perf_counter() - t0
        rate = sim.events_processed / seconds
        if best is None or rate > best["events_per_sec"]:
            best = {
                "events": sim.events_processed,
                "seconds": seconds,
                "events_per_sec": rate,
            }
    assert best is not None
    return best


def bench_datagram_path(n_datagrams: Optional[int] = None) -> Dict[str, float]:
    """Datagrams/sec through SimNetwork with the paper's LAN latency model
    (NIC serialisation + lognormal propagation draw + delivery)."""
    if n_datagrams is None:
        n_datagrams = N_DATAGRAMS
    best: Optional[Dict[str, float]] = None
    for _ in range(REPEATS):
        sim = Simulator(seed=2)
        machines = [Machine(sim, i) for i in range(4)]
        net = SimNetwork(sim, machines, SwitchedLan(latency=lan_latency()))
        delivered = [0]
        for m in machines:
            net.attach(
                m.machine_id,
                lambda msg, t: delivered.__setitem__(0, delivered[0] + 1),
            )
        schedule_at = sim.schedule_at
        sent = [0]

        def pump() -> None:
            if sent[0] < n_datagrams:
                sent[0] += 1
                net.send(NetMessage(sent[0] % 4, (sent[0] + 1) % 4, "x", 256))
                schedule_at(sim.now + 1e-6, pump)

        sim.schedule(0.0, pump)
        t0 = time.perf_counter()
        sim.run()
        seconds = time.perf_counter() - t0
        rate = delivered[0] / seconds
        if best is None or rate > best["datagrams_per_sec"]:
            best = {
                "datagrams": delivered[0],
                "seconds": seconds,
                "datagrams_per_sec": rate,
            }
    assert best is not None
    return best


def bench_kernel_dispatch(sim_seconds: Optional[float] = None) -> Dict[str, float]:
    """Full-stack kernel calls/sec: the Figure-4 stack under load.

    Runs the complete group-communication stack (UDP → RP2P → FD →
    consensus → CT-ABcast → Repl) on three machines with the kernel
    trace off and divides the kernel dispatch count (calls + responses
    issued across all stacks) by the wall-clock of the run.  This is the
    per-message cost the ROADMAP calls the dominant full-stack hot path;
    the dispatch fast path (cached bindings, opt-out trace, slotted
    records, batched drains) is gated on it.
    """
    from bench_kernel import run_full_stack_calls

    if sim_seconds is None:
        sim_seconds = FULLSTACK_SIM_SECONDS
    best: Optional[Dict[str, float]] = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        dispatches = run_full_stack_calls(sim_seconds=sim_seconds, trace="off")
        seconds = time.perf_counter() - t0
        rate = dispatches / seconds
        if best is None or rate > best["calls_per_sec"]:
            best = {
                "dispatches": dispatches,
                "sim_seconds": sim_seconds,
                "seconds": seconds,
                "calls_per_sec": rate,
            }
    assert best is not None
    return best


def bench_query_path(n_queries: Optional[int] = None) -> Dict[str, float]:
    """Kernel queries/sec: the ``(service, query)`` resolution hot path.

    Consensus rounds ask the FD for suspects on every round.  A
    resolution cache made this loop 1.43× faster but showed no
    end-to-end gain on ``sim-steady`` or ``sim-faulted-chain``, so
    queries resolve through the tables on every call.
    """
    from bench_kernel import run_query_loop

    if n_queries is None:
        n_queries = N_QUERIES
    best: Optional[Dict[str, float]] = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        count = run_query_loop(n_queries=n_queries)
        seconds = time.perf_counter() - t0
        rate = count / seconds
        if best is None or rate > best["queries_per_sec"]:
            best = {
                "queries": count,
                "seconds": seconds,
                "queries_per_sec": rate,
            }
    assert best is not None
    return best


def bench_campaign(jobs: int = 4) -> Dict[str, Any]:
    """Wall-clock of the smoke campaign, serial vs process-parallel.

    Scaling is only meaningful with ``cpu_count >= jobs``; the record
    always includes ``cpu_count`` so trajectory readers can tell a 1-core
    CI box from a real regression.
    """
    campaign = get_campaign(CAMPAIGN_NAME)
    record: Dict[str, Any] = {
        "campaign": CAMPAIGN_NAME,
        "seeds": list(CAMPAIGN_SEEDS),
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
    }
    t0 = time.perf_counter()
    serial = run_campaign(campaign, seeds=CAMPAIGN_SEEDS)
    record["jobs1_seconds"] = time.perf_counter() - t0
    if "jobs" in inspect.signature(run_campaign).parameters:
        t0 = time.perf_counter()
        parallel = run_campaign(campaign, seeds=CAMPAIGN_SEEDS, jobs=jobs)
        record["jobsN_seconds"] = time.perf_counter() - t0
        record["speedup"] = record["jobs1_seconds"] / record["jobsN_seconds"]
        record["byte_identical"] = serial.to_json() == parallel.to_json()
    else:
        # Pre-overhaul core: run_campaign has no jobs parameter.  Record
        # the serial number only so trajectories stay comparable.
        record["jobsN_seconds"] = None
        record["speedup"] = None
        record["byte_identical"] = None
    return record


def _wide_campaign(n_specs: int) -> Campaign:
    """A synthetic campaign of *n_specs* short scenarios.

    Each cell is deliberately small (seconds of simulated time, tens of
    messages) so the matrix is wide rather than deep: the measurement
    isolates the executor's scheduling/IPC overhead and scaling, not
    per-cell simulation cost.
    """
    specs = tuple(
        ScenarioSpec(
            name=f"wide-{i:02d}",
            n=3,
            duration=0.4,
            load_msgs_per_sec=40.0,
            quiescence_extra=2.0,
        )
        for i in range(n_specs)
    )
    return Campaign(name="bench-wide", scenarios=specs,
                    description="synthetic wide matrix for executor benchmarks")


def bench_campaign_wide(
    jobs: int = 4, chunk_size: Optional[int] = None
) -> Dict[str, Any]:
    """Wide-matrix campaign wall-clock: 64+ cells, serial vs warm pool.

    The scenario under measurement is the executor itself: many small
    ``(spec, seed)`` cells, where pool warm-up, chunked scheduling and
    the merge dominate unless they are cheap.  Warm-up (spawning and
    ping-ponging the workers) is timed **separately** from the campaign
    so the trajectory distinguishes pool amortisation from per-cell
    scaling.  ``byte_identical`` re-checks the determinism contract on
    every benchmark run.
    """
    from repro.parallel import get_pool

    campaign = _wide_campaign(WIDE_SPECS)
    seeds = tuple(range(WIDE_SEEDS))
    record: Dict[str, Any] = {
        "campaign": campaign.name,
        "cells": len(campaign.scenarios) * len(seeds),
        "seeds": list(seeds),
        "jobs": jobs,
        "chunk_size": chunk_size,
        "cpu_count": os.cpu_count(),
    }
    t0 = time.perf_counter()
    pool = get_pool(jobs)
    pool.warm()
    record["warmup_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial = run_campaign(campaign, seeds=seeds)
    record["jobs1_seconds"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_campaign(campaign, seeds=seeds, jobs=jobs,
                            chunk_size=chunk_size)
    record["jobsN_seconds"] = time.perf_counter() - t0
    record["speedup"] = record["jobs1_seconds"] / record["jobsN_seconds"]
    record["byte_identical"] = serial.to_json() == parallel.to_json()
    return record


def run_all(quick: bool, campaign_jobs: int = 4) -> Dict[str, Any]:
    """One full measurement record (the shape appended to the trajectory)."""
    pyops = calibrate_pyops()
    event_loop = bench_event_loop()
    kernel_dispatch = bench_kernel_dispatch()
    campaign_wide = bench_campaign_wide(jobs=campaign_jobs)
    record: Dict[str, Any] = {
        "schema": 2,
        # Which runtime backend produced the numbers.  Everything here
        # measures the discrete-event twin; a future wall-clock bench
        # would stamp "realtime" so trajectory tooling never mixes them.
        "backend": "sim",
        "quick": quick,
        "pyops_per_sec": pyops,
        "event_loop": event_loop,
        "event_loop_steady": bench_event_loop_steady(),
        "event_loop_cancellable": bench_event_loop_steady(cancellable=True),
        "datagram_path": bench_datagram_path(),
        "kernel_dispatch": kernel_dispatch,
        "query_path": bench_query_path(),
        "campaign": bench_campaign(jobs=campaign_jobs),
        "campaign_wide": campaign_wide,
        # The gated metrics: hardware-normalised event-loop and
        # full-stack kernel-dispatch throughput.
        "events_score": event_loop["events_per_sec"] / pyops,
        "calls_score": kernel_dispatch["calls_per_sec"] / pyops,
        # Multi-core executor scaling: the wide-matrix speedup, or None
        # on a single-CPU box where speedup > 1 is unattainable and the
        # gate skips (the raw numbers are still in campaign_wide).
        "parallel_score": (
            campaign_wide["speedup"]
            if (campaign_wide["cpu_count"] or 1) > 1
            else None
        ),
    }
    return record


# --------------------------------------------------------------------------- #
# Trajectory + regression gate
# --------------------------------------------------------------------------- #
def append_trajectory(record: Dict[str, Any], path: pathlib.Path, label: Optional[str]) -> None:
    """Append *record* to the trajectory file at *path* (a JSON object
    with a ``trajectory`` list, newest last)."""
    if label:
        record = dict(record, label=label)
    doc: Dict[str, Any] = {"trajectory": []}
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = {}  # corrupt trajectory: restart it rather than crash the bench
        if not isinstance(doc, dict) or not isinstance(doc.get("trajectory"), list):
            doc = {"trajectory": []}
    doc["trajectory"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def check_baseline(record: Dict[str, Any], baseline_path: pathlib.Path, tolerance: float) -> int:
    """Gate: fail (return 1) when a normalised score drops more than
    *tolerance* below the stored baseline.

    Gates ``events_score`` (event loop) and — when the baseline carries
    it — ``calls_score`` (full-stack kernel dispatch), so regressions in
    either the simulation core or the kernel call path fail CI;
    ``parallel_score`` is only printed.
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench_core: cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 2
    events_base = baseline.get("events_score")
    if not isinstance(events_base, (int, float)) or events_base <= 0:
        print(f"bench_core: baseline {baseline_path} has no usable events_score", file=sys.stderr)
        return 2
    if baseline.get("quick") != record.get("quick"):
        # Quick and full sizes score differently (heap depth changes the
        # per-event cost), so a cross-mode comparison is not a real gate.
        print(
            "bench_core: WARNING baseline and current record use different "
            "modes (quick vs full); regenerate the baseline in the gated mode",
            file=sys.stderr,
        )
    status = 0
    for name in ("events_score", "calls_score"):
        base_score = baseline.get(name)
        if base_score is None and name != "events_score":
            continue  # pre-metric baseline: this score did not exist yet
        if not isinstance(base_score, (int, float)) or base_score <= 0:
            print(f"bench_core: baseline {baseline_path} has no usable {name}", file=sys.stderr)
            return 2
        score = record[name]
        floor = base_score * (1.0 - tolerance)
        verdict = "ok" if score >= floor else "REGRESSION"
        print(
            f"bench_core gate: {name}={score:.4f} baseline={base_score:.4f} "
            f"floor={floor:.4f} ({tolerance:.0%} tolerance) -> {verdict}"
        )
        if score < floor:
            print(
                f"bench_core: {name} regressed >{tolerance:.0%} vs baseline "
                f"(normalised score {score:.4f} < floor {floor:.4f})",
                file=sys.stderr,
            )
            status = 1
    # Executor scaling is printed, never gated: the absolute speedup
    # floor read 0.88, 0.94 and 1.74 on three runs of unchanged code.
    parallel_score = record.get("parallel_score")
    if parallel_score is not None:
        cpus = record.get("campaign_wide", {}).get("cpu_count") or 1
        print(f"bench_core: parallel_score={parallel_score:.3f} (cpu_count={cpus}; not gated)")
    return status


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_core.py",
        description="Simulation-core throughput benchmarks + perf trajectory driver.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI sizes (also via REPRO_BENCH_QUICK=1)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT, metavar="PATH",
                        help=f"trajectory file to append to (default: {DEFAULT_OUT})")
    parser.add_argument("--no-out", action="store_true",
                        help="measure and print only; do not touch the trajectory file")
    parser.add_argument("--label", default=None,
                        help="tag this record in the trajectory (e.g. a commit id)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker count for the campaign scaling measurement")
    parser.add_argument("--check", type=pathlib.Path, default=None, metavar="BASELINE",
                        help="compare against this baseline JSON and exit non-zero "
                             "on regression")
    parser.add_argument("--tolerance", type=float, default=0.30, metavar="FRAC",
                        help="allowed fractional events_score drop vs baseline "
                             "(default: 0.30)")
    parser.add_argument("--write-baseline", type=pathlib.Path, default=None, metavar="PATH",
                        help="store this record as the new gate baseline")
    args = parser.parse_args(argv)

    global N_EVENTS, N_DATAGRAMS, N_QUERIES, CAMPAIGN_SEEDS, REPEATS
    global FULLSTACK_SIM_SECONDS, WIDE_SPECS, WIDE_SEEDS
    if args.quick:
        N_EVENTS, N_DATAGRAMS, CAMPAIGN_SEEDS, REPEATS = 20_000, 5_000, (0,), 2
        FULLSTACK_SIM_SECONDS = 0.5
        N_QUERIES = 20_000
        WIDE_SPECS, WIDE_SEEDS = 4, 2

    record = run_all(quick=args.quick, campaign_jobs=args.jobs)
    print(json.dumps(record, indent=2, sort_keys=True))
    ev = record["event_loop"]["events_per_sec"]
    dg = record["datagram_path"]["datagrams_per_sec"]
    kc = record["kernel_dispatch"]["calls_per_sec"]
    camp = record["campaign"]
    jobs_n = camp["jobsN_seconds"]
    print(
        f"\nevents/sec: {ev:,.0f}   datagrams/sec: {dg:,.0f}   "
        f"full-stack calls/sec: {kc:,.0f}   "
        f"campaign jobs=1: {camp['jobs1_seconds']:.2f}s  "
        f"jobs={camp['jobs']}: "
        + (f"{jobs_n:.2f}s" if jobs_n is not None else "n/a")
        + f"  (cpus={camp['cpu_count']}, byte_identical={camp['byte_identical']})"
    )
    wide = record["campaign_wide"]
    print(
        f"wide matrix ({wide['cells']} cells): warmup {wide['warmup_seconds']:.2f}s  "
        f"jobs=1: {wide['jobs1_seconds']:.2f}s  jobs={wide['jobs']}: "
        f"{wide['jobsN_seconds']:.2f}s  speedup {wide['speedup']:.2f}x"
    )

    if not args.no_out:
        append_trajectory(record, args.out, args.label)
        print(f"trajectory appended to {args.out}")
    if args.write_baseline:
        args.write_baseline.parent.mkdir(parents=True, exist_ok=True)
        args.write_baseline.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {args.write_baseline}")
    if args.check is not None:
        return check_baseline(record, args.check, args.tolerance)
    return 0


# --------------------------------------------------------------------------- #
# pytest-benchmark wrappers (same bodies, suite-style)
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="core")
def test_core_event_loop(benchmark):
    result = benchmark(bench_event_loop)
    assert result["events"] == N_EVENTS


@pytest.mark.benchmark(group="core")
def test_core_datagram_path(benchmark):
    result = benchmark(bench_datagram_path)
    assert result["datagrams"] > 0


@pytest.mark.benchmark(group="core")
def test_core_kernel_dispatch(benchmark):
    result = benchmark(bench_kernel_dispatch)
    assert result["dispatches"] > 0


@pytest.mark.benchmark(group="core")
def test_core_query_path(benchmark):
    result = benchmark(bench_query_path)
    assert result["queries"] == N_QUERIES


def test_core_campaign_parallel_identity():
    """jobs=1 and jobs=2 must agree byte-for-byte (quick sizes)."""
    campaign = get_campaign(CAMPAIGN_NAME)
    seeds = (0,)
    a = run_campaign(campaign, seeds=seeds, jobs=1)
    b = run_campaign(campaign, seeds=seeds, jobs=2)
    assert a.to_json() == b.to_json()


def test_core_campaign_wide_identity():
    """The wide matrix stays byte-identical through the warm pool."""
    record = bench_campaign_wide(jobs=2)
    assert record["byte_identical"] is True
    assert record["cells"] == WIDE_SPECS * WIDE_SEEDS


if __name__ == "__main__":
    sys.exit(main())
