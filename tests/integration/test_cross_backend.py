"""Cross-backend differential: one stack set, one switch chain, two twins.

The soak's stack set is built by the one Figure-4 builder
(:func:`repro.runtime.soak.build_soak_system` →
:func:`repro.experiments.common.build_group_comm_system`) on
:class:`SimBackend` and on :class:`RealtimeBackend` (real UDP sockets on
localhost), with the soak's failure-detector calibration, no faults, and
a CT → sequencer → token chain requested at fixed instants.  Timing
differs between the twins by design; the backend-independent projection
must not: every stack traverses the requested chain, no ABcast or
chain-agreement violation, the same final protocols, every send
delivered on every stack, and no stale discard beyond one version.
"""

from __future__ import annotations

import pytest

from repro.dpu.abcast_checker import chain_agreement_violations, check_all_abcast_properties
from repro.experiments.common import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    pending_deliveries,
)
from repro.runtime import RealtimeBackend, SimBackend
from repro.runtime.soak import SoakConfig, build_soak_system

CONFIG = SoakConfig(
    nodes=3,
    duration=1.5,
    seed=4,
    rate_per_sec=60.0,
    payload_bytes=128,
    initial_protocol=PROTOCOL_CT,
    plan=((0.3, PROTOCOL_SEQ), (0.6, PROTOCOL_TOKEN)),
    health_port=None,
    drain_extra=6.0,
    drain_step=0.1,
)
CHAIN = [PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN]
STACKS = list(range(CONFIG.nodes))


def _projection(backend):
    """Run the chain on *backend* and return what must not depend on it."""
    backend.start()
    try:
        gcs = build_soak_system(CONFIG, backend)
        for fraction, protocol in CONFIG.plan:
            gcs.manager.request_change(
                protocol, from_stack=0, at=fraction * CONFIG.duration
            )
        backend.run(CONFIG.duration)
        deadline = backend.sim.now + CONFIG.drain_extra
        while pending_deliveries(gcs, set(), {}) and backend.sim.now < deadline:
            backend.run(CONFIG.drain_step)
    finally:
        backend.stop()
    log, manager = gcs.log, gcs.manager
    chains = {
        sid: [protocol for _version, protocol in trajectory]
        for sid, trajectory in manager.protocol_trajectories().items()
    }
    violations = check_all_abcast_properties(log, crashed={}, stacks=STACKS)
    violations["chain agreement"] = chain_agreement_violations(chains, crashed={})
    return {
        "chains": chains,
        "violations": {k: v for k, v in violations.items() if v},
        "final_protocols": manager.current_protocols(),
        "all_delivered": bool(log.sends)
        and all(set(log.sends) <= log.delivered_set(s) for s in STACKS),
        "pending": pending_deliveries(gcs, set(), {}),
        "stale_classes": set(manager.stale_classification()),
    }


@pytest.fixture(scope="module")
def projections():
    return {
        "sim": _projection(SimBackend(n=CONFIG.nodes, seed=CONFIG.seed)),
        "realtime": _projection(RealtimeBackend(CONFIG.nodes, seed=CONFIG.seed)),
    }


@pytest.mark.parametrize("twin", ["sim", "realtime"])
def test_each_twin_traverses_the_requested_chain_cleanly(projections, twin):
    got = projections[twin]
    assert got["chains"] == {sid: CHAIN for sid in STACKS}
    assert got["violations"] == {}
    assert got["final_protocols"] == {sid: PROTOCOL_TOKEN for sid in STACKS}
    assert got["all_delivered"] and got["pending"] == {}
    # Switches far apart: only one-version-stale ordinary messages may
    # be discarded, never multi-version or "future" ones.
    assert got["stale_classes"] <= {"gap=1"}


def test_backend_independent_projection_is_equal(projections):
    sim, realtime = projections["sim"], projections["realtime"]
    for key in ("chains", "violations", "final_protocols", "all_delivered", "pending"):
        assert sim[key] == realtime[key], key
