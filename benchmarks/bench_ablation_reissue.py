"""Benchmark A1 — ablation: the change-message sn guard and re-issue policy.

The printed Algorithm 1 does not guard change messages by sequence number
(the deviations are listed in ``repro.dpu.repl``'s module docstring).  This ablation runs near-concurrent replacement requests
under the three variants and reports correctness outcomes and switch
counts.  (The deterministic anomaly reproduction lives in
``tests/unit/test_repl_algorithm.py``; end-to-end runs may or may not hit
the race, which is exactly why the guard matters.)
"""

import pytest

from conftest import q, report
from repro.experiments import run_concurrent_change_ablation
from repro.viz import render_table


@pytest.mark.benchmark(group="ablation-reissue")
def test_concurrent_change_variants(benchmark):
    outcomes = benchmark.pedantic(
        lambda: run_concurrent_change_ablation(
            n=5, seed=15, duration=q(8.0, 4.0), gap=0.004
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            o.variant,
            o.switches_total,
            o.stale_changes_discarded,
            sum(o.property_violations.values()),
            "yes" if o.correct else "NO",
        )
        for o in outcomes
    ]
    report(
        "ablation_reissue_a1",
        render_table(
            ["variant", "switches", "stale discarded", "violations", "correct"],
            rows,
            title="A1 — concurrent replacement requests",
        ),
    )
    by_variant = {o.variant: o for o in outcomes}
    # The guarded variants must always be correct.
    assert by_variant["guarded+drop"].correct
    assert by_variant["guarded+reissue"].correct
    # 'drop' supersedes the second change; 'reissue' applies it too.
    assert (
        by_variant["guarded+reissue"].switches_total
        >= by_variant["guarded+drop"].switches_total
    )
