"""Per-layer metrics of a traced run, computed from spans, profile and counts.

Every name ``BENCHMARK.json`` lists under ``per_layer`` gets a value on
every workload; a layer that does no work on a workload reads 0 (the
``sim.*`` buckets on rt-steady, ``parallel.*`` on the sim cells).  The
README says which end-to-end metric each of them should move, and where.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from tracing import LAYERS, Tracer

#: Span names behind each phase share.  The shares of one pass kind are
#: self times, so they add up to the pass.
CELL_SHARES = {
    "experiments.build_share": ("experiments.build",),
    "scenarios.arm_share": ("scenarios.arm",),
    "sim.run_share": ("sim.run",),
    "experiments.drain_share": ("experiments.drain",),
    "dpu.check_abcast_share": ("dpu.check_abcast",),
    "dpu.check_recovery_share": ("dpu.check_recovery",),
    "dpu.check_trace_share": ("dpu.check_trace",),
    "metrics.latency_share": ("metrics.latency",),
    "scenarios.serialise_share": ("scenarios.serialise", "scenarios.to_json"),
    "scenarios.other_share": ("bench.pass", "scenarios.cell", "scenarios.run_campaign"),
    "runtime.start_share": ("runtime.start",),
    "runtime.run_share": ("runtime.run",),
    "runtime.drain_share": ("runtime.drain",),
    "runtime.check_share": ("runtime.soak",),
    "runtime.stop_share": ("runtime.stop",),
}
POOLED_SHARES = {
    "parallel.dispatch_share": ("parallel.dispatch",),
    "parallel.merge_share": ("parallel.merge", "scenarios.run_campaign"),
    "scenarios.to_json_share": ("scenarios.to_json",),
}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return q1, middle, q3


def median(values: Iterable[float]) -> float:
    """The median, 0 for no values (a layer the workload does not use)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(a: float, b: float) -> float:
    """``a / b``, 0 where *b* is (a layer the workload does not use)."""
    return a / b if b else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, middle, q3 = quartiles(values)
    return ratio(q3 - q1, middle)


def kept_counts(kept: Sequence[Any], missing: List[str]) -> Dict[str, float]:
    """Sum the module counters of the systems a traced pass built.

    Reads ``Stack.calls_issued`` / ``responses_issued`` /
    ``blocked_time_total``, ``Stack.bound_module(service).counters`` for
    rp2p and the replacement layer, and ``len(system.trace)``.  A system
    that no longer offers them is named in *missing*.
    """
    out = {
        "calls_issued": 0.0, "responses_issued": 0.0, "blocked_ms": 0.0,
        "trace_records": 0.0, "rp2p_retransmissions": 0.0,
        "rp2p_duplicates_dropped": 0.0, "reissues": 0.0, "fragment_bytes": 0.0,
    }
    for item in kept:
        if isinstance(item, list):  # WarmPool.run_cells: JSON fragments
            out["fragment_bytes"] += sum(len(fragment) for fragment in item)
            continue
        try:
            system = item.system if hasattr(item, "system") else item.backend
            for stack in system.stacks:
                out["calls_issued"] += stack.calls_issued
                out["responses_issued"] += stack.responses_issued
                out["blocked_ms"] += 1000.0 * stack.blocked_time_total
                rp2p = stack.bound_module("rp2p")
                if rp2p is not None:
                    out["rp2p_retransmissions"] += rp2p.counters.get("retransmissions")
                    out["rp2p_duplicates_dropped"] += rp2p.counters.get("duplicates_dropped")
                repl = stack.bound_module("r-abcast")
                if repl is not None:
                    out["reissues"] += repl.counters.get("reissues")
            if hasattr(system, "trace"):
                out["trace_records"] += len(system.trace)
        except AttributeError as exc:
            missing.append(f"counters of {type(item).__name__}: {exc}")
    return out


def relabel_drain_spans(tracer: Tracer) -> None:
    """Within a pass, every ``runtime.run`` after the first is the drain."""
    seen = set()
    for record in tracer.spans:
        if record["name"] == "runtime.run":
            if record["pass"] in seen:
                record["name"] = "runtime.drain"
            seen.add(record["pass"])


def phase_shares(
    tracer: Tracer, own: Dict[int, float], passes: Set[int], table: Dict[str, Tuple[str, ...]],
) -> Dict[str, float]:
    """Share of the time of *passes* that is self time (*own*) of each phase."""
    by_name: Dict[str, float] = {}
    for record in tracer.spans:
        if record["pass"] in passes:
            by_name[record["name"]] = by_name.get(record["name"], 0.0) + own[record["id"]]
    total = sum(by_name.values())
    return {
        metric: (sum(by_name.get(n, 0.0) for n in names) / total if total else 0.0)
        for metric, names in table.items()
    }


def per_layer_metrics(
    workload: Any,
    samples: List[Dict[str, Any]],
    warm: List[Dict[str, Any]],
    refs: List[Tuple[float, float]],
    tracer: Tracer,
    profile: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    *samples* are the timed passes of the loop, *warm* the untimed
    traced passes before it (one per pass kind and panel member: the
    source of the counts, so these do not depend on the run length).
    """
    clock = workload.clock
    cell_kind = workload.cell_kind

    def of_kind(kind: str) -> List[Dict[str, Any]]:
        return [s for s in samples if s["kind"] == kind]

    def median_of(rows: List[Dict[str, Any]], key: str) -> float:
        return median(r[key] for r in rows)

    def traced_passes(kind: str) -> Set[int]:
        return {s["pass"] for s in of_kind(kind) if s["traced"]}

    out: Dict[str, float] = {}
    own = tracer.self_times(clock)
    out.update(phase_shares(tracer, own, traced_passes(cell_kind), CELL_SHARES))
    out.update(phase_shares(tracer, own, traced_passes("pooled"), POOLED_SHARES))

    # ----- profile buckets -------------------------------------------- #
    profiled = sum(bucket["self_s"] for bucket in profile.values())
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(profile[layer]["self_s"], profiled)
        out[f"{layer}.calls"] = profile[layer]["calls"]

    # ----- counts, summed over the warm-up passes ---------------------- #
    def fact(key: str, kind: str = cell_kind) -> float:
        return sum(w["facts"].get(key, 0.0) for w in warm if w["kind"] == kind)

    def kept(key: str, kind: str = cell_kind) -> float:
        return sum(w["kept"].get(key, 0.0) for w in warm if w["kind"] == kind)

    sent = fact("sent")
    out["sim.events"] = fact("events")
    out["sim.events_per_msg"] = ratio(fact("events"), sent)
    out["kernel.stack.calls_issued"] = kept("calls_issued")
    out["kernel.stack.responses_issued"] = kept("responses_issued")
    out["kernel.stack.blocked_ms"] = kept("blocked_ms")
    out["kernel.trace.records"] = kept("trace_records")
    out["net.datagrams_sent"] = fact("datagrams")
    out["net.datagrams_per_msg"] = ratio(fact("datagrams"), sent)
    out["net.bytes_per_msg"] = ratio(fact("bytes"), sent)
    out["net.dropped_loss"] = fact("dropped_loss")
    out["net.duplicated"] = fact("duplicated")
    out["net.dropped_crashed_receiver"] = fact("dropped_crashed_receiver")
    out["net.rp2p.retransmissions"] = kept("rp2p_retransmissions")
    out["net.rp2p.duplicates_dropped"] = kept("rp2p_duplicates_dropped")
    out["dpu.switches"] = fact("switches")
    out["dpu.reissues"] = kept("reissues")
    out["dpu.stale_discards"] = fact("stale_discards")
    out["dpu.window_overlap_ms"] = fact("window_overlap_ms")
    out["gm.rejoins"] = fact("rejoins")
    out["workload.sent"] = sent
    out["workload.ordered_common"] = fact("ordered_common")
    out["scenarios.report_bytes"] = fact("report_bytes")
    out["abcast_latency_ms"] = fact("latency_ms") / workload.members
    out["switch_convergence_ms"] = fact("convergence_ms") / workload.members

    # ----- the pool ------------------------------------------------------ #
    pooled, serial = of_kind("pooled"), of_kind("serial")
    jobs = max((s["facts"]["jobs"] for s in pooled), default=0.0)
    cells = fact("cells") if pooled else 0.0
    out["parallel.cells"] = cells
    out["parallel.jobs"] = jobs
    out["parallel.fragment_bytes"] = kept("fragment_bytes", "pooled")
    out["parallel.speedup"] = ratio(median_of(serial, "cost"), median_of(pooled, "cost"))
    out["parallel.overhead_ms_per_cell"] = 1000.0 * ratio(
        median_of(pooled, "wall") - ratio(median_of(serial, "wall"), jobs), cells
    )
    out["parallel.spawn_warm_ms"] = 1000.0 * getattr(workload, "spawn_warm_s", 0.0)
    out["parallel.worker_busy_share"] = median(
        ratio(s["facts"]["worker_cpu_s"], s["wall"] * jobs) for s in pooled
    )

    # ----- the realtime backend (its numbers vary from pass to pass) ---- #
    timed = of_kind(workload.main_kind)
    realtime = [s["facts"] for s in timed if "rt_events" in s["facts"]]

    def per_delivery(key: str) -> float:
        return median(ratio(f[key], f["deliveries"]) for f in realtime)

    out["workload.sent_share"] = (
        median_of(realtime, "sent_share") if realtime else ratio(sent, workload.nominal_sent)
    )
    out["runtime.realtime.deliveries"] = median_of(realtime, "deliveries")
    out["runtime.realtime.events_per_delivery"] = per_delivery("rt_events")
    out["runtime.realtime.datagrams_per_delivery"] = per_delivery("datagrams")
    out["runtime.realtime.bytes_per_delivery"] = per_delivery("bytes")
    out["runtime.realtime.busy_share"] = (
        median(ratio(s["cpu"], s["wall"]) for s in timed) if realtime else 0.0
    )
    out["runtime.realtime.deliver_latency_p50_ms"] = median_of(realtime, "latency_p50_ms")
    out["runtime.realtime.deliver_latency_p99_ms"] = median_of(realtime, "latency_p99_ms")
    out["runtime.realtime.malformed"] = sum(f["malformed"] for f in realtime)

    # ----- the host ------------------------------------------------------ #
    plain = [s for s in timed if not s["traced"]]
    ref_cpu = [cpu for cpu, _wall in refs]
    out["host.nproc"] = float(os.cpu_count() or 1)
    out["host.passes"] = float(len(samples))
    out["host.ref_kernel_ms"] = 1000.0 * median(ref_cpu)
    out["host.ref_spread"] = spread(ref_cpu)
    out["host.pass_cpu_s"] = median_of(plain, "cpu")
    out["host.pass_wall_s"] = median_of(plain, "wall")
    if realtime:
        events = median_of(realtime, "rt_events")
        backend_seconds = median_of(realtime, "rt_seconds")
    else:
        events = fact("events") / workload.members
        backend_seconds = fact("sim_seconds") / workload.members
    out["host.events_per_s"] = ratio(events, median_of(plain, clock))
    out["host.sim_s_per_wall_s"] = ratio(backend_seconds, out["host.pass_wall_s"])
    out["host.cost_iqr"] = spread([s["cost"] for s in plain])
    out["host.trace_overhead"] = ratio(
        median_of([s for s in timed if s["traced"]], "cost"), median_of(plain, "cost")
    )
    out["failed_share"] = ratio(
        sum(s["failed"] for s in samples), sum(s["attempted"] for s in samples)
    )
    return out
