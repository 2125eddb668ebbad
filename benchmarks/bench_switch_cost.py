"""Benchmark C2 — the cost of one replacement.

Paper: "the cost of switching between different protocols is negligible";
the latency increase "is lost during a short period (approximately one
second)"; the application is never blocked.

Measured: the replacement-window duration (paper definition), the kernel
blocked-call time below the indirection, the app-visible blocked calls
(must be zero), and the perturbation of the latency series.
"""

from dataclasses import replace

import pytest

from conftest import QUICK, q, report
from repro.experiments.common import PROTOCOL_CT, experiment_run, run_checked
from repro.kernel import WellKnown
from repro.metrics import find_perturbation, latency_series
from repro.scenarios import SwitchAt
from repro.scenarios.spec import PAPER_SPEC
from repro.viz import render_table

DURATION = q(12.0, 4.0)


@pytest.mark.benchmark(group="switch-cost")
def test_switch_cost_n7(benchmark):
    def run():
        spec = replace(
            PAPER_SPEC,
            name="switch-cost-c2",
            load_msgs_per_sec=200.0,
            duration=DURATION,
            switches=(SwitchAt(PROTOCOL_CT, DURATION / 2),),
        )
        return run_checked(experiment_run(spec, seed=12))

    gcs = benchmark.pedantic(run, rounds=1, iterations=1)
    window = gcs.manager.window(1)
    blocked_below = sum(s.blocked_time_total for s in gcs.backend.stacks)
    app_blocked = sum(
        s.blocked_call_count(WellKnown.R_ABCAST) for s in gcs.backend.stacks
    )
    series = [(p.send_time, p.latency) for p in latency_series(gcs.log)]
    perturbation = find_perturbation(series, DURATION / 2)

    rows = [
        ("replacement window [ms]", window.duration * 1e3),
        ("kernel blocked time below indirection [ms]", blocked_below * 1e3),
        ("app-visible blocked calls", app_blocked),
        (
            "perturbation duration [s]",
            perturbation.duration if perturbation else 0.0,
        ),
        (
            "perturbation peak [x baseline]",
            perturbation.peak_factor if perturbation else 1.0,
        ),
    ]
    report(
        "switch_cost_c2",
        render_table(["metric", "value"], rows, title="C2 — cost of one replacement"),
    )

    assert app_blocked == 0                       # "never blocked"
    assert window.duration < 1.0                  # "negligible"
    if perturbation is not None and not QUICK:
        assert perturbation.duration < 2.0        # "short period (~1s)"
