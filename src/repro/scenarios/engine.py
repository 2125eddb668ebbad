"""The campaign engine and the one run harness: arm, run, drain, check.

A :class:`ScenarioRun` takes a Figure 4 stack set built from a
:class:`ScenarioSpec` on any backend, arms the spec's fault schedule on a
:class:`~repro.sim.faults.FaultInjector` and the switch plan on a
:class:`~repro.scenarios.switchplan.SwitchPlan`, runs the workload to
``spec.duration``, drains to quiescence, and then runs every property
checker the repo has:

* the four ABcast properties across replacements (Section 5.2.2), with
  the usual exemptions for faulty machines and their in-flight sends;
* weak stack-well-formedness (Section 3);
* weak protocol-operationability for every protocol the scenario binds.

:func:`run_scenario` is those steps on a fresh simulated system, a pure
function ``(spec, seed) → ScenarioResult``; the realtime soak
(:mod:`repro.runtime.soak`) is the same steps on real sockets, and so is
every point of the paper's figures, comparison and ablations
(:func:`~repro.experiments.common.experiment_run`).
:func:`run_campaign` maps a :class:`Campaign` (a named set of scenarios)
across a seed matrix.  Everything serialises to **deterministic JSON**
(sorted keys, no wall-clock timestamps): the same ``(campaign, seeds)``
pair produces byte-identical output, which CI exploits as a regression
gate — any diff in the report is a real behavioural change.

Campaign runs default to the ``structural`` kernel-trace depth: only the
record kinds the property checkers consume are kept, so full-stack runs
skip the per-call trace firehose entirely while reports stay
byte-identical to ``trace="full"`` (pinned by
``tests/integration/test_trace_modes.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..dpu.abcast_checker import (
    check_all_abcast_properties,
    check_corruption_containment,
    check_recovery_liveness,
    is_post_rejoin_send,
)
from ..dpu.properties import (
    check_chain_agreement,
    check_weak_protocol_operationability,
    check_weak_stack_well_formedness,
)
from ..errors import ScenarioError
from ..experiments.common import (
    GroupCommSystem,
    build_group_comm_system,
    collect_rejoined,
)
from ..metrics import mean_latency
from ..sim.faults import FaultInjector
from .spec import ScenarioSpec
from .switchplan import SwitchPlan

__all__ = [
    "ScenarioResult",
    "ScenarioRun",
    "Campaign",
    "CampaignResult",
    "run_scenario",
    "run_campaign",
    "result_from_dict",
    "compare_reports",
]


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Everything one scenario run produced, JSON-ready."""

    name: str
    seed: int
    n: int
    sim_time_end: float
    events_processed: int
    sent_total: int
    delivered_per_stack: Dict[int, int]
    #: Distinct keys Adelivered by every correct stack (the totally
    #: ordered common prefix the checkers certified).
    ordered_common: int
    mean_latency_s: Optional[float]
    faults: List[Dict[str, Any]]
    switches_fired: List[Dict[str, Any]]
    switch_windows: List[Dict[str, Any]]
    #: Chain-level replacement metrics: convergence instant/time,
    #: per-version window overlaps, per-stack protocol trajectories and
    #: the multi-version stale-discard classification.
    switch_chain: Dict[str, Any]
    final_protocols: Dict[int, str]
    crashed: Dict[int, float]
    #: Stacks whose crash-recovery re-join handshake completed (and that
    #: stayed up): ``stack -> re-join completion instant``.  Their
    #: liveness exemption is narrowed back from that instant on.
    rejoined: Dict[int, float]
    correct_stacks: List[int]
    violations: Dict[str, List[str]]
    network: Dict[str, int]

    @property
    def ok(self) -> bool:
        """No property checker reported a violation."""
        return all(not v for v in self.violations.values())

    @property
    def violations_total(self) -> int:
        """Total violation count across all property checkers."""
        return sum(len(v) for v in self.violations.values())

    def to_dict(self) -> Dict[str, Any]:
        """A plain, deterministically-serialisable dict."""
        return {
            "name": self.name,
            "seed": self.seed,
            "n": self.n,
            "ok": self.ok,
            "sim_time_end": self.sim_time_end,
            "events_processed": self.events_processed,
            "sent_total": self.sent_total,
            "delivered_per_stack": {
                str(k): v for k, v in sorted(self.delivered_per_stack.items())
            },
            "ordered_common": self.ordered_common,
            "mean_latency_s": self.mean_latency_s,
            "faults": self.faults,
            "switches_fired": self.switches_fired,
            "switch_windows": self.switch_windows,
            "switch_chain": self.switch_chain,
            "final_protocols": {
                str(k): v for k, v in sorted(self.final_protocols.items())
            },
            "crashed": {str(k): v for k, v in sorted(self.crashed.items())},
            "rejoined": {str(k): v for k, v in sorted(self.rejoined.items())},
            "correct_stacks": list(self.correct_stacks),
            "violations": {k: list(v) for k, v in sorted(self.violations.items())},
            "network": {k: v for k, v in sorted(self.network.items())},
        }


@dataclass(frozen=True)
class Campaign:
    """A named set of scenarios run as one unit across a seed matrix."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ScenarioError(f"campaign {self.name!r} has no scenarios")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ScenarioError(f"campaign {self.name!r} has duplicate scenario names")


@dataclass
class CampaignResult:
    """All results of one campaign run, with a deterministic JSON form."""

    campaign: str
    seeds: List[int]
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every run of the campaign was violation-free."""
        return all(r.ok for r in self.results)

    @property
    def violations_total(self) -> int:
        """Total violation count across all runs."""
        return sum(r.violations_total for r in self.results)

    def to_dict(self) -> Dict[str, Any]:
        """A plain, deterministically-serialisable dict of every run."""
        return {
            "campaign": self.campaign,
            "seeds": list(self.seeds),
            "ok": self.ok,
            "violations_total": self.violations_total,
            "runs": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        """Byte-identical for identical (campaign, seeds) inputs."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary_rows(self) -> List[Tuple[Any, ...]]:
        """``(scenario, seed, ok, sent, ordered, violations)`` per run."""
        return [
            (
                r.name,
                r.seed,
                "ok" if r.ok else "FAIL",
                r.sent_total,
                r.ordered_common,
                r.violations_total,
            )
            for r in self.results
        ]


# --------------------------------------------------------------------------- #
# Running one scenario
# --------------------------------------------------------------------------- #
class ScenarioRun:
    """The scenario a system was built from, run on it, on either
    backend: constructing it arms the spec's fault schedule and switch
    plan on *gcs*; then :meth:`drive` and :meth:`check`."""

    def __init__(self, gcs: GroupCommSystem) -> None:
        spec = self.spec = gcs.spec
        self.gcs = gcs
        backend = gcs.backend
        self.injector = FaultInjector(
            backend.sim, backend.nodes, network=backend.transport, name=spec.name
        )
        for action in spec.faults:
            action.schedule(self.injector)
        self.plan = SwitchPlan(spec.switches)
        self.plan.arm(gcs, self.injector)

    def rejoined(self) -> Dict[int, float]:
        """The stacks whose re-join completed, by the spec's rule."""
        return collect_rejoined(self.gcs, self.spec.kernel_rejoin_marker)

    def drive(self) -> Dict[int, int]:
        """Run to ``spec.duration``, then drain; return the deliveries
        each stack still owes (empty = quiescent)."""
        spec, gcs = self.spec, self.gcs
        gcs.run(until=spec.duration)
        return gcs.run_to_quiescence(
            extra=spec.quiescence_extra,
            step=spec.quiescence_step,
            exempt=set(spec.declared_faulty()) | set(self.injector.crashed_ever()),
            rejoined=self.rejoined,
        )

    def check(self) -> ScenarioResult:
        """Run every property checker on what the run left behind."""
        spec, gcs = self.spec, self.gcs
        trace, log, manager = gcs.backend.trace, gcs.log, gcs.manager

        # ----- fault/crash accounting --------------------------------- #
        crashed: Dict[int, float] = dict(self.injector.crashed_ever())
        for machine_id in spec.expected_faulty:
            crashed.setdefault(machine_id, spec.duration)
        stacks = list(range(spec.n))
        correct = [s for s in stacks if s not in crashed]
        # Stacks that recovered AND completed the GM re-join handshake are
        # correct again from their re-join instant: their post-re-join
        # sends leave the in-flight exemption (everyone must deliver them)
        # and the recovery-liveness checker holds the rejoined stack
        # itself to every post-re-join message.
        rejoined = self.rejoined()
        in_flight = {
            key
            for key, (sender, t_send) in log.sends.items()
            if sender in crashed and not is_post_rejoin_send(sender, t_send, rejoined)
        }

        # ----- property checks ---------------------------------------- #
        violations = check_all_abcast_properties(
            log, crashed, stacks, in_flight_ok=in_flight
        )
        violations["recovery liveness"] = check_recovery_liveness(
            log, rejoined, crashed
        )
        violations["weak stack-well-formedness"] = check_weak_stack_well_formedness(trace)
        violations["chain agreement"] = check_chain_agreement(
            trace, stacks, crashed=crashed
        )
        if spec.uses_corruption():
            # Key added only for corruption-armed scenarios: corruption-free
            # campaign reports (and the pinned goldens) keep their shape.
            violations["corruption containment"] = check_corruption_containment(
                gcs.backend.transport.stats(), checksum=spec.checksum
            )
        protocols_bound = {spec.initial_protocol}
        protocols_bound.update(step.protocol for step in spec.switches)
        for protocol in sorted(protocols_bound):
            violations[f"weak operationability[{protocol}]"] = (
                check_weak_protocol_operationability(trace, protocol, stacks)
            )

        # ----- metrics ------------------------------------------------- #
        common: Optional[set] = None
        for stack_id in correct:
            delivered = log.delivered_set(stack_id)
            common = delivered if common is None else (common & delivered)
        windows: List[Dict[str, Any]] = []
        switch_chain: Dict[str, Any] = {}
        if manager is not None:
            windows = [
                {
                    "version": window.version,
                    "protocol": window.protocol,
                    "start": window.start,
                    "end": window.end,
                    "duration": window.duration,
                    "stacks_completed": len(window.completed),
                    "overlap_with_previous": window.overlap_with_prev,
                }
                for _version, window in sorted(manager.windows.items())
            ]
            switch_chain = manager.chain_metrics()
            switch_chain["trajectories"] = {
                str(sid): [[version, prot] for version, prot in traj]
                for sid, traj in sorted(manager.protocol_trajectories().items())
            }
            switch_chain["stale_discards"] = manager.stale_classification()
        latency = mean_latency(log, stacks=correct) if correct else None

        sim = gcs.backend.sim
        return ScenarioResult(
            name=spec.name,
            seed=gcs.seed,
            n=spec.n,
            sim_time_end=sim.now,
            events_processed=sim.events_processed,
            sent_total=len(log.sends),
            delivered_per_stack={s: log.delivered_count(s) for s in stacks},
            ordered_common=len(common or ()),
            mean_latency_s=latency,
            faults=[record.to_dict() for record in self.injector.records],
            switches_fired=list(self.plan.fired),
            switch_windows=windows,
            switch_chain=switch_chain,
            final_protocols=manager.current_protocols() if manager is not None else {},
            crashed=crashed,
            rejoined=rejoined,
            correct_stacks=correct,
            violations=violations,
            network=gcs.backend.transport.stats(),
        )


def run_scenario(
    spec: ScenarioSpec, seed: int = 0, trace: str = "structural"
) -> ScenarioResult:
    """Run one scenario at one seed; never raises on property violations
    (they are returned in the result, so a campaign always completes).

    Builds the simulated stack set and runs the :class:`ScenarioRun`
    steps on it.  *trace* selects the kernel trace depth, a
    :data:`~repro.experiments.common.TRACE_MODES` key (the builder
    rejects any other with :class:`~repro.errors.ScenarioError`).  The
    default, ``"structural"``, records exactly the kinds the property
    checkers consume — module add/remove, bind/unbind, blocked/unblocked calls,
    crash/recover — and skips the per-call/per-response firehose, so the
    report is **byte-identical** to a ``"full"`` run at a fraction of the
    dispatch cost.  ``"off"`` records nothing (pure speed; the
    trace-based checkers then trivially pass, so only use it when the
    report's violation fields are not the point of the run).
    """
    run = ScenarioRun(build_group_comm_system(spec, seed, trace=trace))
    run.drive()
    return run.check()


# --------------------------------------------------------------------------- #
# Running a campaign
# --------------------------------------------------------------------------- #
def result_from_dict(data: Dict[str, Any]) -> ScenarioResult:
    """Rebuild a :class:`ScenarioResult` from its :meth:`~ScenarioResult.to_dict` form.

    The exact inverse of ``to_dict`` (integer-keyed maps are restored
    from their stringified JSON shape; the derived ``ok`` key is
    ignored), so a result that round-trips through compact worker JSON
    re-serialises **byte-identically** — the property the warm pool's
    fragment merge relies on, pinned by
    ``tests/integration/test_warm_pool.py``.
    """
    return ScenarioResult(
        name=data["name"],
        seed=data["seed"],
        n=data["n"],
        sim_time_end=data["sim_time_end"],
        events_processed=data["events_processed"],
        sent_total=data["sent_total"],
        delivered_per_stack={
            int(k): v for k, v in data["delivered_per_stack"].items()
        },
        ordered_common=data["ordered_common"],
        mean_latency_s=data["mean_latency_s"],
        faults=list(data["faults"]),
        switches_fired=list(data["switches_fired"]),
        switch_windows=list(data["switch_windows"]),
        switch_chain=dict(data["switch_chain"]),
        final_protocols={int(k): v for k, v in data["final_protocols"].items()},
        crashed={int(k): v for k, v in data["crashed"].items()},
        rejoined={int(k): v for k, v in data["rejoined"].items()},
        correct_stacks=list(data["correct_stacks"]),
        violations={k: list(v) for k, v in data["violations"].items()},
        network=dict(data["network"]),
    )


def run_campaign(
    campaign: Campaign,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    trace: str = "structural",
) -> CampaignResult:
    """Run every scenario of *campaign* at every seed, in a fixed order.

    ``jobs`` fans the ``(spec, seed)`` matrix over the process-wide
    **warm worker pool** of exactly ``jobs`` workers
    (:func:`repro.parallel.get_pool`; ``jobs=0`` means one worker per
    CPU).  Workers stay alive across campaigns of the same width, take
    one cell at a time, and return compact pre-serialised JSON fragments
    that the parent merges **by cell index** — so the report is
    **byte-identical** for any ``jobs``; only the wall-clock changes.
    Each cell is a pure function of its arguments (every run owns a
    private simulator and RNG registry), which is what makes the fan-out
    sound.  ``trace`` is the per-cell kernel trace depth (see
    :func:`run_scenario`); reports are byte-identical between
    ``"structural"`` and ``"full"``.

    A cell that raises in a worker, or whose worker dies, fails the
    campaign with a :class:`~repro.errors.ScenarioError` naming the
    scenario and seed; the pool survives and the next campaign reuses it.
    """
    if jobs < 0:
        raise ScenarioError(f"jobs must be >= 0, got {jobs}")
    tasks = [(spec, seed, trace) for spec in campaign.scenarios for seed in seeds]
    result = CampaignResult(campaign=campaign.name, seeds=list(seeds))
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(tasks) <= 1:
        result.results.extend(
            run_scenario(spec, seed=seed, trace=trace) for spec, seed, trace in tasks
        )
        return result
    from ..parallel import get_pool  # deferred: parallel imports this module

    fragments = get_pool(jobs).run_cells(tasks)
    result.results.extend(result_from_dict(json.loads(f)) for f in fragments)
    return result


# --------------------------------------------------------------------------- #
# Report comparison (regression gate)
# --------------------------------------------------------------------------- #
def compare_reports(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[str]:
    """Diff two deterministic campaign-report dicts (``to_dict`` shape).

    Returns human-readable drift lines, empty when the reports agree.
    Campaign reports are deterministic functions of ``(campaign, seeds)``
    and the code, so *any* per-run field drift is a real behavioural
    change; property/checker drift (``ok``/``violations``) is flagged
    first and most loudly.
    """
    drift: List[str] = []
    if baseline.get("campaign") != current.get("campaign"):
        drift.append(
            f"campaign name: baseline {baseline.get('campaign')!r} "
            f"!= current {current.get('campaign')!r}"
        )
    if baseline.get("seeds") != current.get("seeds"):
        drift.append(
            f"seed matrix: baseline {baseline.get('seeds')!r} "
            f"!= current {current.get('seeds')!r}"
        )

    def key(run: Dict[str, Any]) -> Tuple[str, int]:
        return (str(run.get("name")), int(run.get("seed", 0)))

    base_runs = {key(r): r for r in baseline.get("runs", [])}
    cur_runs = {key(r): r for r in current.get("runs", [])}
    for name, seed in sorted(set(base_runs) - set(cur_runs)):
        drift.append(f"run [{name} seed={seed}]: present in baseline only")
    for name, seed in sorted(set(cur_runs) - set(base_runs)):
        drift.append(f"run [{name} seed={seed}]: present in current only")

    for run_key in sorted(set(base_runs) & set(cur_runs)):
        name, seed = run_key
        base, cur = base_runs[run_key], cur_runs[run_key]
        # Property/checker drift first: the signal CI cares most about.
        first = ("ok", "violations")
        for field_name in first + tuple(sorted((set(base) | set(cur)) - set(first))):
            if base.get(field_name) != cur.get(field_name):
                drift.append(
                    f"run [{name} seed={seed}] {field_name}: "
                    f"baseline {base.get(field_name)!r} -> "
                    f"current {cur.get(field_name)!r}"
                )
    return drift
