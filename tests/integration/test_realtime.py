"""The acceptance test of the runtime seam: the identical stack — the
same unmodified UDP/RP2P/FD/rbcast/consensus/ABcast/replacement module
classes the simulator runs — boots on :class:`RealtimeBackend` over real
asyncio UDP sockets, carries client load, completes a protocol switch
chain mid-run, and passes every check of the scenario engine: the ABcast
properties on the delivery log and the trace checkers on the backend's
structural trace.

Wall-clock timings are deliberately short (a few seconds total) with
wide margins, so the test is CI-stable on loaded machines.
"""

from __future__ import annotations

import pytest

from repro.dpu.properties import protocol_chains
from repro.experiments.common import PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN
from repro.kernel import TraceKind, WellKnown
from repro.runtime import RealtimeBackend
from repro.runtime.soak import SoakConfig, arm_soak, run_soak


def _soak_on_realtime(config):
    """Arm, drive and check *config* on a fresh realtime backend."""
    backend = RealtimeBackend(config.nodes, seed=config.seed)
    backend.start()
    try:
        run = arm_soak(config, backend)
        pending = run.drive()
    finally:
        backend.stop()
    return backend, run, pending


@pytest.mark.slow
def test_unmodified_stack_switches_protocols_over_real_udp():
    config = SoakConfig(
        nodes=3,
        duration=2.5,
        seed=3,
        rate_per_sec=45.0,
        payload_bytes=128,
        plan=((0.3, PROTOCOL_SEQ), (0.6, PROTOCOL_TOKEN)),
        health_port=None,
        drain_extra=6.0,
    )
    backend, run, pending = _soak_on_realtime(config)
    result = run.check()

    # Datagrams really crossed sockets, and client load really flowed.
    stats = backend.network.stats()
    assert stats["sent"] > 0 and stats["received"] > 0
    assert result.sent_total > 0

    # Both switches completed on every stack, ending on the token protocol.
    assert run.gcs.manager.replacement_complete(1)
    assert run.gcs.manager.replacement_complete(2)
    assert set(result.final_protocols.values()) == {PROTOCOL_TOKEN}

    # Everyone delivered everything, in the same total order, and every
    # checker of the engine — trace checkers included — is silent.
    assert pending == {}
    assert result.ordered_common == result.sent_total
    assert result.ok, result.violations


def test_realtime_switch_leaves_a_structural_trace():
    """Regression pin: without BIND rows the trace checkers would pass
    vacuously on realtime; with CALL/RESPONSE rows the backend would pay
    the per-call firehose."""
    config = SoakConfig(
        nodes=3,
        duration=0.8,
        rate_per_sec=30.0,
        plan=((0.3, PROTOCOL_SEQ),),
        health_port=None,
    )
    backend, run, pending = _soak_on_realtime(config)
    assert pending == {}
    trace = backend.trace
    rebinds = [
        e for e in trace.of_kind(TraceKind.BIND, protocol=PROTOCOL_SEQ)
        if e.service == WellKnown.ABCAST
    ]
    assert {e.stack_id for e in rebinds} == {0, 1, 2}
    assert protocol_chains(trace, [0, 1, 2]) == {
        s: [PROTOCOL_CT, PROTOCOL_SEQ] for s in (0, 1, 2)
    }
    assert not trace.of_kind(
        TraceKind.CALL, TraceKind.CALL_DISPATCHED,
        TraceKind.RESPONSE, TraceKind.RESPONSE_BUFFERED,
    )


@pytest.mark.slow
def test_short_soak_run_reports_ok():
    report = run_soak(
        SoakConfig(nodes=3, duration=2.0, rate_per_sec=30.0, health_port=0)
    )
    assert report["ok"], report
    assert report["backend"] == "realtime"
    assert report["health_ok"] is True
    assert report["switches_ok"] and report["drained"]
