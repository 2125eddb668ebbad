#!/usr/bin/env python3
"""Render the committed perf trajectory as sparklines + tables.

``benchmarks/BENCH_core.json`` accumulates one record per
``bench_core.py`` invocation across PRs (the committed perf curve).  This
tool renders it in a terminal / CI log::

    PYTHONPATH=src python benchmarks/plot_trajectory.py
    PYTHONPATH=src python benchmarks/plot_trajectory.py --metric events_per_sec
    PYTHONPATH=src python benchmarks/plot_trajectory.py --file other.json --width 48

For every tracked metric it prints a one-line sparkline over the records
(oldest → newest) and a table of ``label / value / Δ vs previous``.
Quick-mode and full-mode records measure different problem sizes, so the
tool renders them as separate rows rather than mixing scales.

Exit status 0 unless the trajectory file is missing/unreadable (2).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Metric name -> extractor over one trajectory record.
METRICS: Dict[str, Any] = {
    "events_per_sec": lambda r: _dig(r, "event_loop", "events_per_sec"),
    "events_steady_per_sec": lambda r: _dig(r, "event_loop_steady", "events_per_sec"),
    "datagrams_per_sec": lambda r: _dig(r, "datagram_path", "datagrams_per_sec"),
    "fullstack_calls_per_sec": lambda r: _dig(r, "kernel_dispatch", "calls_per_sec"),
    "queries_per_sec": lambda r: _dig(r, "query_path", "queries_per_sec"),
    "events_score": lambda r: r.get("events_score"),
    "calls_score": lambda r: r.get("calls_score"),
    "campaign_jobs1_seconds": lambda r: _dig(r, "campaign", "jobs1_seconds"),
    "campaign_speedup": lambda r: _dig(r, "campaign", "speedup"),
    "campaign_wide_jobs1_seconds": lambda r: _dig(r, "campaign_wide", "jobs1_seconds"),
    "campaign_wide_speedup": lambda r: _dig(r, "campaign_wide", "speedup"),
    "warm_pool_warmup_seconds": lambda r: _dig(r, "campaign_wide", "warmup_seconds"),
    "parallel_score": lambda r: r.get("parallel_score"),
}

#: Eight-level bar glyphs (a "sparkline"): lowest value → thinnest bar.
_BARS = "▁▂▃▄▅▆▇█"
#: Pure-ASCII fallback (``--ascii``) for logs that eat unicode.
_BARS_ASCII = "_.-=oO#@"

DEFAULT_FILE = pathlib.Path(__file__).parent / "BENCH_core.json"


def _dig(record: Dict[str, Any], *keys: str) -> Optional[float]:
    """Nested dict lookup returning ``None`` on any missing hop."""
    node: Any = record
    for key in keys:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node if isinstance(node, (int, float)) else None


def sparkline(values: Sequence[Optional[float]], bars: str = _BARS) -> str:
    """One character per value, height-scaled to the present values.

    ``None`` (metric absent in that record — e.g. pre-metric commits)
    renders as a space, so the line stays aligned with the record axis.
    """
    present = [v for v in values if v is not None]
    if not present:
        return " " * len(values)
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for v in values:
        if v is None:
            out.append(" ")
        elif span == 0:
            out.append(bars[-1])
        else:
            out.append(bars[int((v - lo) / span * (len(bars) - 1))])
    return "".join(out)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _delta(cur: Optional[float], prev: Optional[float]) -> str:
    if cur is None or prev is None or prev == 0:
        return ""
    ratio = cur / prev
    return f"{ratio:.2f}x"


def render_metric(
    name: str,
    records: List[Dict[str, Any]],
    bars: str,
    show_rows: bool = True,
) -> Optional[str]:
    """The sparkline + per-record rows for one metric, or ``None`` if the
    metric never appears in *records*."""
    values = [METRICS[name](r) for r in records]
    if all(v is None for v in values):
        return None
    lines = [f"{name}  [{sparkline(values, bars)}]"]
    if show_rows:
        prev: Optional[float] = None
        for record, value in zip(records, values):
            label = str(record.get("label") or "(unlabelled)")
            mode = "quick" if record.get("quick") else "full"
            lines.append(
                f"    {label[:42]:<42} {mode:<5} {_fmt(value):>14}  {_delta(value, prev):>6}"
            )
            if value is not None:
                prev = value
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/plot_trajectory.py",
        description="ASCII sparklines of the committed perf trajectory.",
    )
    parser.add_argument("--file", type=pathlib.Path, default=DEFAULT_FILE,
                        help=f"trajectory JSON (default: {DEFAULT_FILE})")
    parser.add_argument("--metric", choices=sorted(METRICS), default=None,
                        help="render only this metric")
    parser.add_argument("--no-rows", action="store_true",
                        help="sparklines only, no per-record tables")
    parser.add_argument("--ascii", action="store_true",
                        help="pure-ASCII bars (for logs that eat unicode)")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(args.file.read_text())
    except (OSError, ValueError) as exc:
        print(f"plot_trajectory: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    records = doc.get("trajectory") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not records:
        print(f"plot_trajectory: {args.file} has no trajectory records", file=sys.stderr)
        return 2

    bars = _BARS_ASCII if args.ascii else _BARS
    # Quick and full records measure different sizes: split the axes.
    groups: List[Tuple[str, List[Dict[str, Any]]]] = []
    for mode_name, quick in (("full mode", False), ("quick mode", True)):
        subset = [r for r in records if bool(r.get("quick")) is quick]
        if subset:
            groups.append((mode_name, subset))

    wanted = [args.metric] if args.metric else sorted(METRICS)
    print(f"perf trajectory: {args.file} ({len(records)} records)")
    for mode_name, subset in groups:
        print(f"\n== {mode_name} ({len(subset)} records, oldest -> newest) ==")
        for name in wanted:
            block = render_metric(name, subset, bars, show_rows=not args.no_rows)
            if block is not None:
                print(block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
