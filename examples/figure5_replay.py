#!/usr/bin/env python3
"""Regenerate the paper's Figure 5 interactively (full scale).

Average ABcast latency as a function of send time, n = 7, with the
Chandra–Toueg ABcast replaced by itself in the middle of the run —
"while performing all steps of the replacement algorithm (e.g., unbinding
the old module, creating a new module, etc.)".

Takes a minute or two of wall time (it is a full deterministic simulation
of 7 machines under load).

Run:  python examples/figure5_replay.py [--fast]
"""

import sys

from dataclasses import replace

from repro.experiments import PROTOCOL_CT, run_figure5
from repro.scenarios.spec import PAPER_SPEC


def main() -> None:
    fast = "--fast" in sys.argv
    spec = replace(PAPER_SPEC, load_msgs_per_sec=200.0)
    duration = 8.0 if fast else 16.0
    result = run_figure5(spec, seed=5, duration=duration, to_protocol=PROTOCOL_CT)
    print(result.render(width=76, height=20))


if __name__ == "__main__":
    main()
