"""Run a fuzz budget through the campaign engine and shrink the hits.

:func:`run_fuzz` is the fuzzer's whole loop as a pure function:

1. generate the budget of specs for the seed (:mod:`~repro.fuzz.generator`);
2. run them as one campaign through the deterministic engine —
   ``--jobs`` fan-out and trace depth come for free, and the merge order
   is fixed, so the report is independent of parallelism;
3. replay every violating spec once (a violation that does not
   reproduce on replay is flagged **unshrinkable** — with a
   deterministic engine that means the harness itself is broken, and
   the CLI turns it into a distinct exit code);
4. ddmin-shrink each reproducing violator (serially, in index order)
   and embed the minimal spec as replayable serde JSON.

Steps 3 and 4 share one predicate, which remembers the verdict of every
spec it judged: the shrink reuses the replay's verdict and the guarded
twin's, and a candidate ddmin or the fixpoint loop revisits never runs
twice.

The resulting :class:`FuzzReport` serialises to byte-identical JSON for
identical ``(config, trace)`` inputs — the fuzz analogue of the campaign
goldens, pinned across reruns and ``--jobs`` values by the integration
tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List

from ..scenarios.engine import Campaign, run_campaign
from ..scenarios.serde import spec_to_dict
from .generator import FuzzConfig, generate_specs
from .shrink import guard_sensitivity_predicate, shrink_spec, violation_predicate

__all__ = ["FuzzReport", "run_fuzz"]


@dataclass
class FuzzReport:
    """Everything one fuzz run produced, JSON-ready and deterministic."""

    config: FuzzConfig
    trace: str
    #: One summary row per generated spec, in index order.
    runs: List[Dict[str, Any]] = field(default_factory=list)
    #: One entry per violating spec: original/shrunk sizes + serde JSON.
    reproducers: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The whole budget ran violation-free."""
        return all(run["ok"] for run in self.runs)

    @property
    def violating(self) -> int:
        """How many generated specs violated at least one property."""
        return sum(1 for run in self.runs if not run["ok"])

    @property
    def unshrinkable(self) -> int:
        """Violations that did not reproduce on replay (harness bug)."""
        return sum(1 for rep in self.reproducers if not rep["reproducible"])

    def to_dict(self) -> Dict[str, Any]:
        """A plain, deterministically-serialisable dict."""
        return {
            # Note: the trace depth is deliberately NOT part of the report
            # (mirroring campaign reports), so the structural/off
            # byte-identity pin holds for violation-free budgets.
            "fuzz": {
                "generator_seed": self.config.seed,
                "budget": self.config.budget,
                "run_seed": self.config.run_seed,
                "guard_change_sn": self.config.guard_change_sn,
            },
            "ok": self.ok,
            "violating": self.violating,
            "unshrinkable": self.unshrinkable,
            "runs": self.runs,
            "reproducers": self.reproducers,
        }

    def to_json(self, indent: int = 2) -> str:
        """Byte-identical for identical ``(config, trace)`` inputs."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_fuzz(
    config: FuzzConfig,
    jobs: int = 1,
    trace: str = "structural",
    shrink: bool = True,
) -> FuzzReport:
    """Fuzz one budget: generate, run, replay-confirm, shrink.

    The bulk run fans out over *jobs* warm workers via the campaign
    engine (:mod:`repro.parallel` — the pool is shared with scenario
    campaigns and stays alive between budgets); shrinking runs serially
    in index order (each ddmin step depends on the previous verdict), so
    the report stays byte-identical for any *jobs*.
    """
    specs = generate_specs(config)
    campaign = Campaign(
        name=f"{config.name_prefix}-seed{config.seed}",
        scenarios=tuple(specs),
        description=f"fuzz budget {config.budget} of generator seed {config.seed}",
    )
    bulk = run_campaign(
        campaign,
        seeds=(config.run_seed,),
        jobs=jobs,
        trace=trace,
    )

    report = FuzzReport(config=config, trace=trace)
    predicate = violation_predicate(seed=config.run_seed, trace=trace)
    for index, (spec, result) in enumerate(zip(specs, bulk.results)):
        report.runs.append(
            {
                "index": index,
                "name": result.name,
                "n": result.n,
                "ok": result.ok,
                "violations_total": result.violations_total,
                "violated": sorted(
                    prop for prop, items in result.violations.items() if items
                ),
            }
        )
        if result.ok:
            continue
        if not predicate(spec):
            # A deterministic engine should always reproduce: reaching
            # this branch means the fuzz harness itself is broken.
            report.reproducers.append(
                {
                    "index": index,
                    "name": spec.name,
                    "reproducible": False,
                    "violated": report.runs[-1]["violated"],
                }
            )
            continue
        # A violation on a paper-literal (unguarded) spec whose guarded
        # twin is clean is *guard-sensitive* — the finding class this
        # fuzzer exists for.  Shrink those under the sensitivity-
        # preserving predicate so ddmin cannot trade the anomaly for an
        # unrelated (guard-indifferent) failure while minimising.
        guard_sensitive = not spec.guard_change_sn and not predicate(
            replace(spec, guard_change_sn=True)
        )
        shrink_pred = (
            guard_sensitivity_predicate(predicate) if guard_sensitive else predicate
        )
        shrunk = shrink_spec(spec, shrink_pred) if shrink else spec
        report.reproducers.append(
            {
                "index": index,
                "name": spec.name,
                "reproducible": True,
                "shrunk": shrink,
                "guard_sensitive": guard_sensitive,
                "violated": report.runs[-1]["violated"],
                "original_size": {
                    "faults": len(spec.faults),
                    "switches": len(spec.switches),
                    "n": spec.n,
                },
                "shrunk_size": {
                    "faults": len(shrunk.faults),
                    "switches": len(shrunk.switches),
                    "n": shrunk.n,
                },
                "spec": spec_to_dict(shrunk),
            }
        )
    return report
