"""Supplementary benchmark — the three ABcast protocols head to head.

Not a figure of the paper, but the reason its DPU mechanism exists:
different ABcast protocols win in different regimes, so switching between
them at run time is worth the machinery.  Reports steady-state latency of
each protocol at a light and a heavy load (n = 5).
"""

from dataclasses import replace

import pytest

from conftest import QUICK, q, report
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    build_group_comm_system,
)
from repro.metrics import windowed_mean_latency
from repro.scenarios.spec import PAPER_SPEC
from repro.viz import render_table

PROTOCOLS = (PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN)
STOP = q(6.0, 2.0)


def measure(protocol: str, load: float) -> float:
    spec = replace(
        PAPER_SPEC, n=5, load_msgs_per_sec=load, duration=STOP, initial_protocol=protocol
    )
    gcs = build_group_comm_system(spec, seed=17, trace="off", with_repl_layer=False)
    gcs.run(until=STOP + 2.0)
    return windowed_mean_latency(gcs.log, 1.0, STOP)


@pytest.mark.benchmark(group="protocols")
def test_protocol_comparison(benchmark):
    def run():
        return {
            (proto, load): measure(proto, load)
            for proto in PROTOCOLS
            for load in (60.0, 240.0)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (proto, load, results[(proto, load)] * 1e3)
        for proto in PROTOCOLS
        for load in (60.0, 240.0)
    ]
    report(
        "protocols_supplementary",
        render_table(
            ["protocol", "load [msg/s]", "latency [ms]"],
            rows,
            title="Supplementary — ABcast protocols, steady state (n=5)",
        ),
    )
    # The motivating regime difference: the sequencer's short path beats
    # consensus at light load.
    if not QUICK:
        assert results[(PROTOCOL_SEQ, 60.0)] < results[(PROTOCOL_CT, 60.0)]
    # And every protocol actually measured something.
    assert all(v is not None and v > 0 for v in results.values())
