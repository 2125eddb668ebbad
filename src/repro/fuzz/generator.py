"""Seeded random :class:`ScenarioSpec` generation.

The generator draws from a schedule family built around the repo's known
hazard geometry rather than uniform noise:

* every spec gets a **pipelined switch chain** — an anchor trigger
  (``SwitchAt`` / ``SwitchOnFault`` / ``SwitchAfterDeliveries``) followed
  by 1–2 ``SwitchAfterSwitch`` links on random phases, issued from
  random stacks, so chained changes routinely originate from stacks that
  are behind (partitioned away or still switching) — the stale-sn
  surface ``guard_change_sn`` guards (:mod:`repro.dpu.repl`);
* the fault core is one of four shapes: a symmetric partition (even or
  lopsided split) healed before the workload ends, a crash (with an
  optional recovery), or a one-way partition — all survivable by the
  initial CT protocol, so a *guarded* run is expected to be clean and
  any violation is a real finding;
* optional embellishments ride on top with fixed probabilities: a lossy
  /duplicating/reordering link burst, *tolerated* wire corruption
  (checksum stays on — the containment checker must stay quiet), a
  latency spike, a stall-escape ``SwitchIfStalled`` step, and (for
  non-crash shapes) GM-attached churn of the highest-ranked machine.

Determinism: spec *i* of seed *s* is a pure function of ``(s, i)`` —
``numpy.random.default_rng([s, i])`` seeds an independent stream per
index, so a budget can be regenerated, sliced or resumed without
replaying the draws of earlier indices.

Protocols are CT-only by design: the sequencer dies with rank 0 and the
token ring stalls on any unrecovered crash, so mixing them in would bury
the guard-sensitive anomalies under expected liveness stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ScenarioError
from ..experiments.common import PROTOCOL_CT
from ..scenarios.spec import (
    Churn,
    Crash,
    FaultAction,
    Heal,
    ImpairLink,
    LatencySpike,
    Partition,
    PartitionOneWay,
    Recover,
    ScenarioSpec,
)
from ..scenarios.switchplan import (
    SwitchAfterDeliveries,
    SwitchAfterSwitch,
    SwitchAt,
    SwitchIfStalled,
    SwitchOnFault,
    SwitchStep,
)

__all__ = ["FuzzConfig", "generate_spec", "generate_specs"]

#: Chainable window phases, in the order the generator indexes them.
_PHASES = ("started", "completed", "closed")


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz run: the generator seed, the budget, and the run knobs.

    ``seed`` names the *schedule family* (which specs get generated);
    ``run_seed`` is the simulation seed every generated spec runs at.
    ``guard_change_sn=False`` runs the whole budget through the
    paper-literal replacement layer — the teeth configuration.
    """

    seed: int = 0
    budget: int = 50
    run_seed: int = 0
    guard_change_sn: bool = True
    name_prefix: str = "fuzz"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ScenarioError(f"fuzz budget must be >= 1, got {self.budget}")


def generate_spec(config: FuzzConfig, index: int) -> ScenarioSpec:
    """Spec *index* of *config*'s schedule family (pure in ``(config, index)``)."""
    if not 0 <= index:
        raise ScenarioError(f"fuzz spec index must be >= 0, got {index}")
    rng = np.random.default_rng([config.seed, index])
    n = int(rng.integers(3, 6))
    faults: List[FaultAction] = []
    shape = int(rng.integers(0, 4))
    t0 = round(1.8 + rng.random() * 0.4, 3)
    if shape in (0, 1):
        # Symmetric split, even (0) or lopsided (1), healed before the end.
        ids = list(range(n))
        k = max(1, n // 2 - (1 if shape == 1 else 0))
        faults.append(Partition(at=t0, groups=(tuple(ids[:k]), tuple(ids[k:]))))
        faults.append(Heal(at=round(t0 + 0.4 + rng.random() * 0.8, 3)))
    elif shape == 2:
        # One crash; CT tolerates a minority down, so no heal needed.
        machine = int(rng.integers(0, n))
        faults.append(Crash(at=round(t0 + rng.random() * 0.5, 3), machine=machine))
        if rng.random() < 0.5:
            faults.append(
                Recover(at=round(t0 + 1.2 + rng.random() * 0.5, 3), machine=machine)
            )
    else:
        # One-way partition: one stack's frames vanish while it still hears
        # the group — the asymmetric stale-issuer shape.
        src = (int(rng.integers(0, n)),)
        dst = tuple(x for x in range(n) if x not in src)
        faults.append(PartitionOneWay(at=t0, src=src, dst=dst))
        faults.append(Heal(at=round(t0 + 0.4 + rng.random() * 0.8, 3)))

    # ----- switch chain ------------------------------------------------ #
    switches: List[SwitchStep] = [
        SwitchAt(
            protocol=PROTOCOL_CT,
            at=round(t0 + rng.random() * 0.4, 3),
            from_stack=int(rng.integers(0, n)),
        )
    ]
    for version in range(1, 1 + int(rng.integers(1, 3))):
        switches.append(
            SwitchAfterSwitch(
                protocol=PROTOCOL_CT,
                version=version,
                phase=_PHASES[int(rng.integers(0, 2))],
                delay=round(float(rng.random() * 0.05), 4),
                from_stack=int(rng.integers(0, n)),
            )
        )
    if rng.random() < 0.15:
        # Strict back-to-back tail: chain one more change off the *close*
        # of the last version, so all three window phases get exercised.
        switches.append(
            SwitchAfterSwitch(
                protocol=PROTOCOL_CT,
                version=len(switches),
                phase="closed",
                delay=round(float(rng.random() * 0.05), 4),
                from_stack=int(rng.integers(0, n)),
            )
        )

    # ----- embellishments (independent coin flips, drawn in a fixed
    # order so every (seed, index) replays identically) ----------------- #
    corrupt_rate = 0.0
    if rng.random() < 0.25:
        # Lossy/duplicating/reordering burst on one link across the window.
        src_m = int(rng.integers(0, n))
        dst_m = int(rng.integers(0, n - 1))
        if dst_m >= src_m:
            dst_m += 1
        kind = int(rng.integers(0, 3))
        impair = dict.fromkeys(
            ("loss_rate", "duplicate_rate", "reorder_rate"), 0.0
        )
        if kind == 0:
            impair["loss_rate"] = round(0.02 + rng.random() * 0.04, 3)
        elif kind == 1:
            impair["duplicate_rate"] = round(0.1 + rng.random() * 0.2, 3)
        else:
            impair["reorder_rate"] = round(0.2 + rng.random() * 0.3, 3)
        faults.append(
            ImpairLink(
                at=round(max(0.1, t0 - 0.5), 3),
                src=src_m,
                dst=dst_m,
                loss_rate=impair["loss_rate"],
                duplicate_rate=impair["duplicate_rate"],
                reorder_rate=impair["reorder_rate"],
                reorder_delay=0.004 if impair["reorder_rate"] else 0.0,
                until=round(t0 + 1.5, 3),
            )
        )
    if rng.random() < 0.25:
        # Tolerated corruption: checksum stays ON, so the NIC detects and
        # drops mangled frames and retransmission recovers.  The
        # containment checker runs on these specs and must stay quiet.
        if rng.random() < 0.5:
            corrupt_rate = round(0.005 + rng.random() * 0.015, 4)
        else:
            src_m = int(rng.integers(0, n))
            dst_m = int(rng.integers(0, n - 1))
            if dst_m >= src_m:
                dst_m += 1
            faults.append(
                ImpairLink(
                    at=round(max(0.1, t0 - 0.3), 3),
                    src=src_m,
                    dst=dst_m,
                    corrupt_rate=round(0.05 + rng.random() * 0.1, 3),
                    until=round(t0 + 1.2, 3),
                )
            )
    if rng.random() < 0.15:
        faults.append(
            LatencySpike(
                at=round(t0 + rng.random(), 3),
                extra=round(0.002 + rng.random() * 0.004, 4),
                duration=0.8,
            )
        )
    with_gm = False
    if shape != 2 and rng.random() < 0.10:
        # Membership churn of the highest-ranked machine (GM attached so
        # the outage is a proper leave/re-join, not a silent crash).
        with_gm = True
        faults.append(
            Churn(
                start=round(t0 + 0.2, 3),
                machines=(n - 1,),
                period=2.0,
                downtime=0.6,
                cycles=1,
            )
        )
    if rng.random() < 0.20:
        # Stall escape hatch: fires only if v1's window drags.
        switches.append(
            SwitchIfStalled(
                protocol=PROTOCOL_CT,
                version=1,
                timeout=round(0.5 + rng.random(), 3),
            )
        )
    anchor_kind = rng.random()
    if anchor_kind >= 0.85:
        # Occasionally re-anchor the chain off a non-time trigger.
        switches[0] = SwitchOnFault(
            protocol=PROTOCOL_CT,
            fault_index=0,
            delay=round(0.02 + rng.random() * 0.2, 3),
            from_stack=int(rng.integers(0, n)),
        )
    elif anchor_kind >= 0.70:
        switches[0] = SwitchAfterDeliveries(
            protocol=PROTOCOL_CT,
            count=int(rng.integers(60, 140)),
            on_stack=int(rng.integers(0, n)),
            from_stack=int(rng.integers(0, n)),
        )

    return ScenarioSpec(
        name=f"{config.name_prefix}-{config.seed}-{index}",
        description=(
            f"generated schedule {index} of seed {config.seed} "
            f"(shape {shape}, n={n})"
        ),
        n=n,
        duration=4.0,
        load_msgs_per_sec=60.0,
        with_gm=with_gm,
        corrupt_rate=corrupt_rate,
        guard_change_sn=config.guard_change_sn,
        creation_cost=round(0.01 + rng.random() * 0.05, 3),
        faults=tuple(faults),
        switches=tuple(switches),
        quiescence_extra=14.0,
    )


def generate_specs(config: FuzzConfig) -> List[ScenarioSpec]:
    """The whole budget of *config*, in index order."""
    return [generate_spec(config, i) for i in range(config.budget)]
