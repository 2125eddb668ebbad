"""One configuration: the spec says what runs, the backend brings its calibration.

A :class:`~repro.scenarios.spec.ScenarioSpec` is the only declaration of
a run's workload and stack shape, and
:func:`~repro.experiments.common.build_group_comm_system` takes the rest
from the backend's :class:`~repro.runtime.api.Calibration`.  These tests
pin both halves: every spec field the builder consumes shows in the
built system, each backend's calibration reaches the modules, the two
calibrations keep the values the simulation and the soak were
calibrated with.
"""

import dataclasses

import pytest

from repro.experiments import PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN, build_group_comm_system
from repro.kernel import WellKnown
from repro.runtime import RealtimeBackend, SimBackend
from repro.runtime.api import REALTIME_CALIBRATION, SIM_CALIBRATION, Calibration
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import PAPER_SPEC
from repro.sim import ms, us
from repro.workload import FixedPayload

#: The fields the builder reads off a spec — the ones the old build
#: config duplicated by name.
BUILD_FIELDS = (
    "n", "load_msgs_per_sec", "payload_bytes", "load_jitter", "load_burst",
    "initial_protocol", "with_gm", "loss_rate", "duplicate_rate", "corrupt_rate",
    "checksum", "guard_change_sn", "reissue_policy", "creation_cost",
)

#: Every build field away from both its default and the paper setting.
EVERY_FIELD = ScenarioSpec(
    name="every-build-field",
    n=4,
    duration=2.0,
    load_msgs_per_sec=80.0,
    payload_bytes=256,
    load_jitter=0.25,
    load_burst=3,
    initial_protocol=PROTOCOL_SEQ,
    with_gm=True,
    loss_rate=0.02,
    duplicate_rate=0.01,
    corrupt_rate=0.005,
    checksum=False,
    guard_change_sn=False,
    reissue_policy="reissue",
    creation_cost=0.02,
)


def modules(gcs, service):
    return [stack.bound_module(service) for stack in gcs.system.stacks]


class TestTheSpecSaysWhatRuns:
    def test_every_build_field_is_set_away_from_default(self):
        default = ScenarioSpec(name="default")
        for name in BUILD_FIELDS:
            assert getattr(EVERY_FIELD, name) != getattr(default, name), name
            assert getattr(EVERY_FIELD, name) != getattr(PAPER_SPEC, name), name

    def test_every_build_field_shows_in_the_built_system(self):
        gcs = build_group_comm_system(EVERY_FIELD, seed=3, trace="off")
        assert gcs.spec is EVERY_FIELD and gcs.seed == 3
        # n
        assert len(gcs.system.stacks) == 4 and gcs.backend.n == 4
        # workload: aggregate rate split evenly, payload, jitter, burst
        assert len(gcs.generators) == 4
        for generator in gcs.generators:
            assert generator.rate == 20.0
            assert generator.payload_model == FixedPayload(256)
            assert generator.jitter == 0.25
            assert generator.burst == 3
            assert generator.stop_at == 2.0
        # LAN floors, corruption and checksum
        links = gcs.network.links
        assert (links.loss_rate, links.duplicate_rate) == (0.02, 0.01)
        assert (links.corrupt_rate, links.checksum) == (0.005, False)
        # initial protocol: the sequencer needs no consensus module
        assert {m.protocol for m in modules(gcs, WellKnown.ABCAST)} == {PROTOCOL_SEQ}
        assert modules(gcs, WellKnown.CONSENSUS) == [None] * 4
        # GM present
        assert all(m is not None for m in modules(gcs, WellKnown.GM))
        # the replacement layer's guard, reissue policy and creation cost
        for stack_id in range(4):
            repl = gcs.manager.module(stack_id)
            assert repl.guard_change_sn is False
            assert repl.reissue_policy == "reissue"
            assert repl.creation_cost == 0.02

    def test_the_paper_spec(self):
        assert (PAPER_SPEC.n, PAPER_SPEC.payload_bytes, PAPER_SPEC.load_msgs_per_sec) == (
            7, 1024, 100.0
        )
        assert PAPER_SPEC.initial_protocol == PROTOCOL_CT
        assert PAPER_SPEC.quiescence_extra == 5.0


#: A calibration no backend carries, every field unlike both real ones,
#: so each field's path from the backend to the modules shows on its own.
DISTINCT = Calibration(
    call_cost=11e-6, response_cost=12e-6, udp_recv_cost=13e-6, udp_send_cost=14e-6,
    bandwidth_bps=10e6, fd_period=0.07, fd_timeout=0.3, token_idle_hold=0.002, load_start=0.05,
)


class TestTheBackendBringsItsCalibration:
    @pytest.mark.parametrize(
        "calibration",
        [SIM_CALIBRATION, REALTIME_CALIBRATION, DISTINCT],
        ids=["sim", "realtime", "distinct"],
    )
    def test_the_modules_run_on_the_backends_calibration(self, calibration):
        spec = ScenarioSpec(
            name="token-group", n=3, initial_protocol=PROTOCOL_TOKEN, load_msgs_per_sec=60.0
        )
        backend = SimBackend(n=3, seed=1, calibration=calibration)
        gcs = build_group_comm_system(spec, 1, backend)
        assert gcs.backend.calibration is calibration
        assert gcs.network.lan.bandwidth_bps == calibration.bandwidth_bps
        for stack in gcs.system.stacks:
            assert (stack.call_cost, stack.response_cost) == (
                calibration.call_cost, calibration.response_cost
            )
            udp = stack.bound_module(WellKnown.UDP)
            assert (udp.recv_cost, udp.send_cost) == (
                calibration.udp_recv_cost, calibration.udp_send_cost
            )
            fd = stack.bound_module(WellKnown.FD)
            assert (fd.period, fd.initial_timeout) == (
                calibration.fd_period, calibration.fd_timeout
            )
            assert stack.bound_module(WellKnown.ABCAST).idle_hold == calibration.token_idle_hold
        starts = [generator.start_at for generator in gcs.generators]
        assert starts == [calibration.load_start + i * (1.0 / 60.0) for i in range(3)]

    def test_each_backend_carries_one(self):
        assert SimBackend(n=1).calibration is SIM_CALIBRATION
        assert RealtimeBackend.calibration is REALTIME_CALIBRATION

    def test_the_two_values(self):
        sim = {
            "call_cost": us(30.0),
            "response_cost": us(30.0),
            "udp_recv_cost": us(120.0),
            "udp_send_cost": us(60.0),
            "bandwidth_bps": 100e6,
            "fd_period": ms(50.0),
            "fd_timeout": ms(200.0),
            "token_idle_hold": ms(1.0),
            "load_start": 0.0,
        }
        assert dataclasses.asdict(SIM_CALIBRATION) == sim
        realtime = dict(sim, load_start=0.1, fd_period=0.25, fd_timeout=2.0)
        assert dataclasses.asdict(REALTIME_CALIBRATION) == realtime
