"""Benchmark F5 — regenerates the paper's Figure 5.

Average ABcast latency versus send time with a CT→CT replacement
triggered in the middle of the run, n = 7 (the paper's exact scenario).

Paper reading: latency spikes around the replacement, "but quickly
stabilizes"; the perturbation lasts "a short period (approximately one
second)"; there is no interruption in the service availability.
"""

from dataclasses import replace

import pytest

from conftest import QUICK, q, report
from repro.experiments import PROTOCOL_CT, run_figure5
from repro.scenarios.spec import PAPER_SPEC


@pytest.mark.benchmark(group="figure5")
def test_figure5_n7_ct_to_ct(benchmark):
    spec = replace(PAPER_SPEC, load_msgs_per_sec=200.0)

    result = benchmark.pedantic(
        lambda: run_figure5(spec, seed=5, duration=q(12.0, 4.0), to_protocol=PROTOCOL_CT),
        rounds=1,
        iterations=1,
    )
    text = result.render()
    report("figure5_n7", text)

    window = result.replacement_window
    assert window is not None and window.duration is not None
    # Paper claims, as assertions on the regenerated figure:
    # 1. the replacement completes (all 7 stacks switch);
    assert len(window.completed) == 7
    if QUICK:  # the short run has too little steady state for 2–4
        return
    # 2. latency during the replacement is elevated ...
    assert result.during_mean > result.pre_mean
    # 3. ... but stabilises back to the pre-switch level;
    assert result.post_mean == pytest.approx(result.pre_mean, rel=0.35)
    # 4. the perturbation is confined to a short period (paper: ~1 s).
    if result.perturbation is not None:
        assert result.perturbation.duration < 2.0


@pytest.mark.benchmark(group="figure5")
def test_figure5_n3_variant(benchmark):
    """The same experiment at n = 3 (the paper's smaller group size)."""
    spec = replace(PAPER_SPEC, n=3, load_msgs_per_sec=200.0)
    result = benchmark.pedantic(
        lambda: run_figure5(spec, seed=5, duration=q(12.0, 4.0), to_protocol=PROTOCOL_CT),
        rounds=1,
        iterations=1,
    )
    report("figure5_n3", result.render())
    if not QUICK:
        assert result.post_mean == pytest.approx(result.pre_mean, rel=0.35)
