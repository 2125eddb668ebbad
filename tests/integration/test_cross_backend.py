"""Cross-backend differential: one scenario, one harness, two twins.

Each soak config runs through the one harness — :func:`repro.runtime.
soak.arm_soak` (the soak's ``ScenarioSpec``, built by the one Figure-4
builder and armed by the scenario engine's ``ScenarioRun``), then
``drive`` and ``check`` — on :class:`SimBackend` and on
:class:`RealtimeBackend` (real UDP sockets on localhost), both on the
realtime calibration (the soak's failure-detector timing and load
start).  Timing differs between the twins by design; the
backend-independent projection of the ``ScenarioResult`` must not: the
per-stack switch trajectories, the violations, the final protocols, the
re-joined stacks, what is left pending after the drain, and no stale
discard beyond one version.

Self-contained (no shared fixtures): ``python -m pytest
tests/integration/test_cross_backend.py`` runs it alone.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN
from repro.runtime import RealtimeBackend, SimBackend
from repro.runtime.api import REALTIME_CALIBRATION
from repro.runtime.soak import CHAOS_PLAN, SoakConfig, arm_soak

CHAIN_CONFIG = SoakConfig(
    nodes=3,
    duration=1.5,
    seed=4,
    rate_per_sec=60.0,
    payload_bytes=128,
    plan=((0.3, PROTOCOL_SEQ), (0.6, PROTOCOL_TOKEN)),
    health_port=None,
    drain_extra=6.0,
    drain_step=0.1,
)
CHAOS_CONFIG = SoakConfig(
    nodes=3,
    duration=10.0,
    seed=0,
    rate_per_sec=45.0,
    payload_bytes=128,
    plan=CHAOS_PLAN,
    health_port=None,
    chaos=True,
    drain_extra=8.0,
)
CHAIN = [PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN]
STACKS = list(range(CHAIN_CONFIG.nodes))

TWINS = {
    "sim": lambda config: SimBackend(
        n=config.nodes, seed=config.seed, calibration=REALTIME_CALIBRATION
    ),
    "realtime": lambda config: RealtimeBackend(config.nodes, seed=config.seed),
}


def _projection(config, backend):
    """Run *config* on *backend* and return what must not depend on it."""
    backend.start()
    try:
        run = arm_soak(config, backend)
        pending = run.drive()
    finally:
        backend.stop()
    result = run.check()
    return {
        "chains": {
            int(sid): [protocol for _version, protocol in trajectory]
            for sid, trajectory in result.switch_chain["trajectories"].items()
        },
        "violations": {k: v for k, v in result.violations.items() if v},
        "final_protocols": result.final_protocols,
        "rejoined": set(result.rejoined),
        "pending": pending,
        "all_delivered": result.sent_total > 0
        and result.ordered_common == result.sent_total,
        "stale_beyond_one_version": set(result.switch_chain["stale_discards"]) - {"gap=1"},
    }


def _projections(config):
    return {twin: _projection(config, make(config)) for twin, make in TWINS.items()}


@pytest.fixture(scope="module")
def projections():
    return _projections(CHAIN_CONFIG)


@pytest.mark.parametrize("twin", list(TWINS))
def test_each_twin_traverses_the_requested_chain_cleanly(projections, twin):
    got = projections[twin]
    assert got["chains"] == {sid: CHAIN for sid in STACKS}
    assert got["violations"] == {}
    assert got["final_protocols"] == {sid: PROTOCOL_TOKEN for sid in STACKS}
    assert got["all_delivered"] and got["pending"] == {}
    assert got["rejoined"] == set()
    # Switches far apart: only one-version-stale ordinary messages may
    # be discarded, never multi-version or "future" ones.
    assert got["stale_beyond_one_version"] == set()


def test_backend_independent_projection_is_equal(projections):
    assert projections["sim"] == projections["realtime"]


@pytest.mark.slow
def test_guarded_chaos_projection_is_equal_on_both_twins():
    got = _projections(CHAOS_CONFIG)
    assert got["sim"] == got["realtime"]
    chaos = got["sim"]
    assert chaos["violations"] == {} and chaos["pending"] == {}
    assert chaos["rejoined"] == {2}
    assert set(chaos["final_protocols"].values()) == {PROTOCOL_TOKEN}
