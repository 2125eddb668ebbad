"""CLI: run fault-injection scenarios and campaigns.

Examples
--------
List everything::

    python -m repro.scenarios --list

Run the CI smoke campaign over 3 seeds and write the JSON report::

    python -m repro.scenarios --campaign smoke --seeds 3 --out smoke.json

Fan the full library over 4 worker processes (reports are byte-identical
to ``--jobs 1``; only the wall-clock changes)::

    python -m repro.scenarios --campaign full --seeds 5 --jobs 4

Run one scenario at one seed::

    python -m repro.scenarios --scenario churn-storm --seed 7

Gate a commit against a stored report (exits 3 on any drift)::

    python -m repro.scenarios --campaign smoke --seeds 3 --compare baseline.json

Exit status is 0 iff no property checker reported a violation (and, with
``--compare``, the report matches the baseline), so the command doubles
as a CI regression gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from ..errors import ScenarioError
from ..experiments.common import TRACE_MODES
from ..viz import render_table
from .docgen import update_doc
from .engine import Campaign, CampaignResult, compare_reports, run_campaign
from .library import CAMPAIGNS, SCENARIOS, get_campaign, get_scenario


def _parse_seeds(args: argparse.Namespace) -> List[int]:
    """The seed list: an explicit ``--seed`` or ``range(--seeds)``."""
    if args.seed is not None:
        return [args.seed]
    return list(range(args.seeds))


def _list() -> None:
    """Print the registered scenarios and campaigns as tables."""
    rows = [
        (spec.name, spec.n, spec.duration, len(spec.faults), len(spec.switches),
         spec.description)
        for _name, spec in sorted(SCENARIOS.items())
    ]
    print(render_table(
        ["scenario", "n", "dur [s]", "faults", "switches", "description"],
        rows,
        title="Registered scenarios",
    ))
    rows = [
        (c.name, len(c.scenarios), ", ".join(s.name for s in c.scenarios))
        for _name, c in sorted(CAMPAIGNS.items())
    ]
    print(render_table(
        ["campaign", "runs", "scenarios"],
        rows,
        title="Registered campaigns",
    ))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run fault-injection scenario campaigns with property gates.",
    )
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--campaign", help="campaign name (see --list)")
    target.add_argument("--scenario", help="single scenario name (see --list)")
    target.add_argument("--list", action="store_true", dest="list_all",
                        help="list registered scenarios and campaigns")
    target.add_argument("--write-docs", nargs="?", const="docs/scenarios.md",
                        default=None, metavar="PATH",
                        help="regenerate the scenario catalogue tables inside "
                             "PATH (default: docs/scenarios.md) and exit")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="run seeds 0..N-1 (default: 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly this one seed (overrides --seeds)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the (scenario, seed) matrix over N warm "
                             "worker processes (0 = one per CPU; default: 1). "
                             "The report is byte-identical for any N")
    parser.add_argument("--trace", choices=tuple(TRACE_MODES),
                        default="structural",
                        help="kernel trace depth per run (default: structural "
                             "— everything the property checkers consume, "
                             "without the per-call firehose; reports are "
                             "byte-identical to --trace full)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here (default: stdout only "
                             "prints the summary table)")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON report to stdout")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="diff the fresh report against this stored JSON "
                             "report and exit 3 on any drift (campaign reports "
                             "are deterministic, so drift means behaviour "
                             "changed)")
    args = parser.parse_args(argv)

    if args.list_all:
        _list()
        return 0

    if args.write_docs is not None:
        path = pathlib.Path(args.write_docs)
        try:
            changed = update_doc(path)
        except (OSError, ScenarioError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{path}: {'updated' if changed else 'already up to date'}")
        return 0

    seeds = _parse_seeds(args)
    if not seeds:
        parser.error("--seeds must be >= 1")
    try:
        if args.scenario is not None:
            spec = get_scenario(args.scenario)
            campaign = Campaign(name=f"adhoc:{spec.name}", scenarios=(spec,))
        else:
            campaign = get_campaign(args.campaign or "smoke")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.trace == "off":
        # The trace-backed checkers (stack well-formedness, protocol
        # operationability) are vacuous over an empty trace, and the
        # report does not record the trace depth — say so where the
        # operator will see it rather than gating on blunted verdicts.
        print(
            "warning: --trace off disables the trace-backed property "
            "checkers (their violation lists will be trivially empty)",
            file=sys.stderr,
        )
    if args.compare:
        # Read the baseline before the campaign: a bad path fails at once,
        # not after every cell has run.
        try:
            with open(args.compare, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.compare!r}: {exc}",
                  file=sys.stderr)
            return 2
    result: CampaignResult = run_campaign(
        campaign, seeds=seeds, jobs=args.jobs, trace=args.trace
    )

    print(render_table(
        ["scenario", "seed", "verdict", "sent", "ordered", "violations"],
        result.summary_rows(),
        title=f"Campaign {result.campaign!r} over seeds {seeds}",
    ))
    report = result.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.out}")
    if args.json:
        print(report)

    if args.compare:
        # Compare the report --out writes, not to_dict(): JSON turns the
        # tuples a fault detail carries into lists.
        drift = compare_reports(baseline, json.loads(report))
        if drift:
            for line in drift:
                print(f"DRIFT {line}", file=sys.stderr)
            print(f"{len(drift)} drift(s) against baseline {args.compare}",
                  file=sys.stderr)
            return 3
        print(f"report matches baseline {args.compare}")

    if not result.ok:
        for run in result.results:
            for prop, violations in sorted(run.violations.items()):
                for violation in violations[:3]:
                    print(
                        f"VIOLATION [{run.name} seed={run.seed}] {prop}: {violation}",
                        file=sys.stderr,
                    )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
