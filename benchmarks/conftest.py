"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artefacts (the
harnesses in ``repro.experiments``) and writes its rendered rows/series
to ``benchmarks/out/<name>.txt``, so a change to any figure shows as a
diff of those files.
"""

from __future__ import annotations

import os
import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Quick mode (``REPRO_BENCH_QUICK=1``): every benchmark shrinks its grid
#: and run length so the whole suite finishes in seconds.  CI uses this
#: (with ``--benchmark-disable``) as a smoke gate that every benchmark
#: still *runs*; the measured numbers and the shape assertions that need
#: long runs are only meaningful in full mode.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def q(full, quick):
    """Pick the *full* or *quick* variant of a benchmark parameter."""
    return quick if QUICK else full


def report(name: str, text: str) -> None:
    """Print *text* and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
