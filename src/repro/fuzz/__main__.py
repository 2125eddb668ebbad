"""CLI: fuzz the schedule space, shrink the hits, explore the model.

Examples
--------
Fuzz a fixed-seed budget through the guarded replacement layer (the CI
smoke shape: expected clean)::

    python -m repro.fuzz --seed 11 --budget 40 --jobs 4

Same budget through the paper-literal layer (``--unguarded``): the known
anomalies surface, each violating schedule is ddmin-shrunk, and the
minimal reproducers land in ``--shrunk-dir`` as replayable spec JSON::

    python -m repro.fuzz --seed 11 --budget 40 --unguarded --shrunk-dir out/

Replay a shrunk reproducer (no generator in the loop)::

    python -m repro.fuzz --replay out/fuzz-11-17.json

Exhaustively explore the switch-chain model (every interleaving, chain
agreement checked on each)::

    python -m repro.fuzz --explore --stacks 2 --versions 2
    python -m repro.fuzz --explore --stacks 2 --versions 2 --bug stack0_skips_guard

Exit status: 0 = clean; 1 = violations found (fuzz) or violating
interleavings (explorer); 2 = usage error; 4 = a violation did not
reproduce on replay (the engine is deterministic, so this means the
fuzz harness itself is broken — CI treats it as its own failure class).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from ..errors import ReproError, ScenarioError
from ..experiments.common import TRACE_MODES
from ..scenarios.engine import run_scenario
from ..scenarios.serde import spec_from_json, spec_to_json
from ..viz import render_table
from .campaign import run_fuzz
from .explorer import ExplorerConfig, explore
from .generator import FuzzConfig

#: Exit code for violations that fail to reproduce on replay.
EXIT_UNSHRINKABLE = 4


def _cmd_explore(args: argparse.Namespace) -> int:
    """Exhaustive model exploration (see :mod:`~repro.fuzz.explorer`)."""
    try:
        config = ExplorerConfig(
            stacks=args.stacks,
            versions=args.versions,
            guard=not args.unguarded,
            bug=args.bug,
        )
        result = explore(config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(
        ["stacks", "versions", "guard", "bug", "interleavings", "violating",
         "outcomes", "states"],
        [(config.stacks, config.versions, config.guard, config.bug or "—",
          result.interleavings, result.violating, len(result.outcomes),
          result.states)],
        title="Exhaustive switch-chain exploration",
    ))
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    if result.violating:
        for trace in result.counterexamples[:3]:
            print(f"COUNTEREXAMPLE {' '.join(trace)}", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay one serde spec JSON file through ``run_scenario``."""
    try:
        spec = spec_from_json(pathlib.Path(args.replay).read_text(encoding="utf-8"))
        result = run_scenario(spec, seed=args.run_seed, trace=args.trace)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = "ok" if result.ok else "FAIL"
    print(f"{spec.name}: {verdict} ({result.violations_total} violation(s))")
    for prop, violations in sorted(result.violations.items()):
        for violation in violations[:3]:
            print(f"VIOLATION {prop}: {violation}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """The main fuzz loop: generate, run, replay-confirm, shrink."""
    try:
        config = FuzzConfig(
            seed=args.seed,
            budget=args.budget,
            run_seed=args.run_seed,
            guard_change_sn=not args.unguarded,
        )
        report = run_fuzz(
            config, jobs=args.jobs, trace=args.trace, shrink=not args.no_shrink,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        (run["index"], run["name"], run["n"],
         "ok" if run["ok"] else "FAIL", run["violations_total"])
        for run in report.runs
    ]
    print(render_table(
        ["#", "spec", "n", "verdict", "violations"],
        rows,
        title=(
            f"Fuzz seed {config.seed}, budget {config.budget} "
            f"({'guarded' if config.guard_change_sn else 'PAPER-LITERAL'})"
        ),
    ))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report written to {args.out}")
    if args.json:
        print(report.to_json())
    if args.shrunk_dir and report.reproducers:
        shrunk_dir = pathlib.Path(args.shrunk_dir)
        shrunk_dir.mkdir(parents=True, exist_ok=True)
        from ..scenarios.serde import spec_from_dict

        for rep in report.reproducers:
            if not rep["reproducible"]:
                continue
            path = shrunk_dir / f"{rep['name']}.json"
            path.write_text(
                spec_to_json(spec_from_dict(rep["spec"])) + "\n", encoding="utf-8"
            )
            print(f"shrunk reproducer written to {path}")
    for rep in report.reproducers:
        if rep["reproducible"]:
            orig, shrunk = rep["original_size"], rep["shrunk_size"]
            print(
                f"REPRODUCER [{rep['name']}] {sorted(rep['violated'])}: "
                f"faults {orig['faults']}->{shrunk['faults']}, "
                f"switches {orig['switches']}->{shrunk['switches']}, "
                f"n {orig['n']}->{shrunk['n']}",
                file=sys.stderr,
            )
        else:
            print(
                f"UNSHRINKABLE [{rep['name']}]: violation did not reproduce "
                f"on replay — fuzz harness determinism is broken",
                file=sys.stderr,
            )
    if report.unshrinkable:
        return EXIT_UNSHRINKABLE
    if not report.ok:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=(
            "Fuzz the fault×switch schedule space with shrinking, or "
            "exhaustively explore the small-scope switch-chain model."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--explore", action="store_true",
                      help="exhaustively enumerate the switch-chain model "
                           "instead of fuzzing")
    mode.add_argument("--replay", default=None, metavar="SPEC_JSON",
                      help="replay one serde spec JSON file and exit")
    parser.add_argument("--seed", type=int, default=0,
                        help="generator seed: names the schedule family "
                             "(default: 0)")
    parser.add_argument("--budget", type=int, default=50, metavar="N",
                        help="how many schedules to generate (default: 50)")
    parser.add_argument("--run-seed", type=int, default=0, metavar="N",
                        help="simulation seed every schedule runs at "
                             "(default: 0)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan the budget over N warm worker processes "
                             "(0 = one per CPU; default: 1). The report is "
                             "byte-identical for any N")
    parser.add_argument("--trace", choices=tuple(TRACE_MODES),
                        default="structural",
                        help="kernel trace depth per run (default: structural)")
    parser.add_argument("--unguarded", action="store_true",
                        help="fuzz the paper-literal replacement layer "
                             "(guard_change_sn=False); for --explore, drop "
                             "the model's delivery-time guard")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip ddmin shrinking of violating schedules")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON fuzz report here")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON report to stdout")
    parser.add_argument("--shrunk-dir", default=None, metavar="DIR",
                        help="write each shrunk reproducer as replayable "
                             "spec JSON into DIR")
    parser.add_argument("--stacks", type=int, default=2,
                        help="[--explore] model stacks (2..3; default: 2)")
    parser.add_argument("--versions", type=int, default=2,
                        help="[--explore] model versions (2..3; default: 2)")
    parser.add_argument("--bug", default=None, choices=("stack0_skips_guard",),
                        help="[--explore] seed a known model bug (checker-"
                             "teeth demonstration)")
    args = parser.parse_args(argv)

    if args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.explore:
        return _cmd_explore(args)
    if args.replay:
        return _cmd_replay(args)
    return _cmd_fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
