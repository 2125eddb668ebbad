"""Golden-report pins: the runtime seam changed no simulated byte.

The checked-in goldens under ``tests/golden/`` were generated from the
tree *before* the Backend seam was introduced.  These tests regenerate
the smoke campaign in-process and require byte identity — across
``jobs`` values and trace modes — so any future change that perturbs a
simulated execution (however subtly) fails loudly here rather than
silently shifting every experiment.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.scenarios import get_campaign
from repro.scenarios.engine import compare_reports, run_campaign

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
SEEDS = [0, 1, 2]


@pytest.mark.slow
def test_smoke_campaign_structural_matches_golden_across_jobs():
    golden = (GOLDEN_DIR / "smoke_seeds3_structural.json").read_text()
    result = run_campaign(
        get_campaign("smoke"), seeds=SEEDS, jobs=2, trace="structural"
    )
    current = result.to_json() + "\n"
    if current != golden:
        drift = compare_reports(json.loads(golden), json.loads(current))
        pytest.fail(
            "structural smoke report drifted from the pre-seam golden:\n"
            + "\n".join(drift[:20])
        )


@pytest.mark.slow
def test_smoke_campaign_trace_off_matches_golden():
    golden = (GOLDEN_DIR / "smoke_seeds3_off.json").read_text()
    # On the warm pool: reports are byte-identical across ``jobs``, and
    # the serial trace-off path is pinned by test_warm_pool.py.
    result = run_campaign(get_campaign("smoke"), seeds=SEEDS, jobs=2, trace="off")
    current = result.to_json() + "\n"
    if current != golden:
        drift = compare_reports(json.loads(golden), json.loads(current))
        pytest.fail(
            "trace-off smoke report drifted from the pre-seam golden:\n"
            + "\n".join(drift[:20])
        )
