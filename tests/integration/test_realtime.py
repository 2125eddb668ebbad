"""The acceptance test of the runtime seam: the identical stack — the
same unmodified UDP/RP2P/FD/rbcast/consensus/ABcast/replacement module
classes the simulator runs — boots on :class:`RealtimeBackend` over real
asyncio UDP sockets, carries client load, completes a protocol switch
chain mid-run, and satisfies the ABcast properties on the delivery log.

Wall-clock timings are deliberately short (a few seconds total) with
wide margins, so the test is CI-stable on loaded machines.
"""

from __future__ import annotations

import pytest

from repro.dpu.abcast_checker import check_all_abcast_properties
from repro.experiments.common import PROTOCOL_SEQ, PROTOCOL_TOKEN
from repro.runtime import RealtimeBackend
from repro.runtime.soak import SoakConfig, build_soak_system, run_soak


@pytest.mark.slow
def test_unmodified_stack_switches_protocols_over_real_udp():
    config = SoakConfig(
        nodes=3,
        duration=2.5,
        rate_per_sec=45.0,
        payload_bytes=128,
        plan=((0.3, PROTOCOL_SEQ), (0.6, PROTOCOL_TOKEN)),
        health_port=None,
        drain_extra=6.0,
    )
    backend = RealtimeBackend(config.nodes, seed=3)
    backend.start()
    soak = build_soak_system(config, backend)
    for fraction, protocol in config.plan:
        soak.manager.request_change(
            protocol, from_stack=0, at=fraction * config.duration
        )
    try:
        backend.run(config.duration)
        # Drain: every node must deliver every send within the budget.
        deadline = backend.sim.now + config.drain_extra
        while backend.sim.now < deadline:
            backend.run(config.drain_step)
            targets = set(soak.log.sends)
            if targets and all(
                targets <= soak.log.delivered_set(s) for s in range(backend.n)
            ):
                break
    finally:
        backend.stop()

    # Datagrams really crossed sockets, and client load really flowed.
    stats = backend.network.stats()
    assert stats["sent"] > 0 and stats["received"] > 0
    assert len(soak.log.sends) > 0

    # Both switches completed on every stack, ending on the token protocol.
    assert soak.manager.replacement_complete(1)
    assert soak.manager.replacement_complete(2)
    assert set(soak.manager.current_protocols().values()) == {PROTOCOL_TOKEN}

    # Everyone delivered everything, in the same total order.
    targets = set(soak.log.sends)
    for s in range(backend.n):
        assert targets <= soak.log.delivered_set(s)
    violations = check_all_abcast_properties(
        soak.log, crashed={}, stacks=list(range(backend.n))
    )
    assert not any(violations.values()), violations


@pytest.mark.slow
def test_short_soak_run_reports_ok():
    report = run_soak(
        SoakConfig(nodes=3, duration=2.0, rate_per_sec=30.0, health_port=0)
    )
    assert report["ok"], report
    assert report["backend"] == "realtime"
    assert report["health_ok"] is True
    assert report["switches_ok"] and report["drained"]
