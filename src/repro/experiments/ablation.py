"""Ablations A1/A2 — quantifying the replacement layer's design choices.

* **A1 (re-issue policy, guard)** — concurrent replacement requests under
  the guarded algorithm with both pending-change policies, and under the
  paper-literal algorithm (no sn guard).  Reports delivery-correctness
  outcomes; the literal variant is where the stale-change anomaly
  (``dpu/repl.py``'s module docstring) can surface.
* **A2 (module-creation cost)** — sweeps the creation cost and reports
  the resulting latency-perturbation height and width around a switch:
  the knob behind Figure 5's spike.

Both are scenario runs checked at ``trace="structural"``: A1 reports
every checker's violation count as its outcome; an A2 point that
violates a property raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..metrics import find_perturbation, latency_series
from ..scenarios.spec import PAPER_SPEC
from ..scenarios.switchplan import SwitchAt
from ..sim.clock import Duration, ms
from .common import PROTOCOL_CT, PROTOCOL_SEQ, experiment_run, run_checked

__all__ = [
    "ConcurrentChangeOutcome",
    "run_concurrent_change_ablation",
    "CreationCostPoint",
    "run_creation_cost_ablation",
]


@dataclass(frozen=True)
class ConcurrentChangeOutcome:
    """Result of one concurrent-replacement run."""

    variant: str                      # guarded+drop | guarded+reissue | literal
    switches_total: int               # switches performed across stacks
    property_violations: Dict[str, int]  # per checker of the scenario run
    stale_changes_discarded: int

    @property
    def correct(self) -> bool:
        return all(v == 0 for v in self.property_violations.values())


def _run_concurrent(variant: str, n: int, seed: int, duration: float,
                    gap: float) -> ConcurrentChangeOutcome:
    guard = variant != "literal"
    policy = "reissue" if variant == "guarded+reissue" else "drop"
    # Two nearly-simultaneous change requests from different stacks: the
    # second is in flight when the first lands.
    at = duration / 2.0
    spec = replace(
        PAPER_SPEC, name=f"a1-{variant}", n=n, load_msgs_per_sec=60.0, duration=duration,
        guard_change_sn=guard, reissue_policy=policy,
        switches=(SwitchAt(PROTOCOL_CT, at), SwitchAt(PROTOCOL_SEQ, at + gap, from_stack=n - 1)),
    )
    run = experiment_run(spec, seed)
    run.drive()
    result = run.check()
    gcs = run.gcs
    switches = sum(
        gcs.manager.module(s).counters.get("switches") for s in range(n)
    )
    stale = sum(
        gcs.manager.module(s).counters.get("stale_changes_discarded")
        for s in range(n)
    )
    return ConcurrentChangeOutcome(
        variant=variant,
        switches_total=switches,
        property_violations={k: len(v) for k, v in result.violations.items()},
        stale_changes_discarded=stale,
    )


def run_concurrent_change_ablation(
    n: int = 5,
    seed: int = 0,
    duration: float = 8.0,
    gap: float = 0.005,
    variants: Sequence[str] = ("guarded+drop", "guarded+reissue", "literal"),
) -> List[ConcurrentChangeOutcome]:
    """A1: concurrent change requests under the three algorithm variants."""
    return [_run_concurrent(v, n, seed, duration, gap) for v in variants]


@dataclass(frozen=True)
class CreationCostPoint:
    """Perturbation caused by one module-creation cost setting."""

    creation_cost: Duration
    peak_factor: Optional[float]
    perturbation_duration: Optional[float]
    blocked_time_total: float  # kernel blocked-call seconds, all stacks


def run_creation_cost_ablation(
    costs: Sequence[Duration] = (0.0, ms(1.0), ms(5.0), ms(20.0), ms(100.0)),
    n: int = 5,
    load: float = 100.0,
    duration: float = 10.0,
    seed: int = 0,
) -> List[CreationCostPoint]:
    """A2: module-creation cost versus switch-time latency perturbation."""
    points = []
    for cost in costs:
        spec = replace(
            PAPER_SPEC, name="a2-creation-cost", n=n, load_msgs_per_sec=load, creation_cost=cost,
            duration=duration, switches=(SwitchAt(PROTOCOL_CT, duration / 2.0),),
        )
        gcs = run_checked(experiment_run(spec, seed))
        series = [(p.send_time, p.latency) for p in latency_series(gcs.log)]
        perturbation = find_perturbation(series, duration / 2.0)
        points.append(
            CreationCostPoint(
                creation_cost=cost,
                peak_factor=perturbation.peak_factor if perturbation else None,
                perturbation_duration=perturbation.duration if perturbation else None,
                blocked_time_total=sum(
                    s.blocked_time_total for s in gcs.system.stacks
                ),
            )
        )
    return points
