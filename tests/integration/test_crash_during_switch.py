"""Integration tests: fault injection around replacements.

The replacement algorithm inherits fault tolerance from the ABcast it
rides on: a crash of any minority — before, during, or after the switch —
must leave the survivors consistent, with the change applied everywhere
that matters (weak protocol-operationability quantifies over non-crashed
stacks only).
"""

from dataclasses import replace

import pytest

from repro.dpu import (
    assert_abcast_properties,
    check_weak_protocol_operationability,
)
from repro.experiments import (
    PROTOCOL_CT,
    build_group_comm_system,
)
from repro.kernel import WellKnown
from repro.scenarios.spec import PAPER_SPEC


def run_with_crash(crash_stack, crash_at, n=5, seed=31, duration=8.0,
                   switch_at=4.0, to_protocol=PROTOCOL_CT):
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=50.0, duration=duration)
    gcs = build_group_comm_system(spec, seed)
    gcs.manager.request_change(to_protocol, from_stack=0, at=switch_at)
    gcs.backend.nodes[crash_stack].crash_at(crash_at)
    gcs.run(until=duration)
    gcs.run_to_quiescence(extra=8.0)
    return gcs


def check_survivors(gcs, crashed_stack, crash_at):
    alive = [s for s in range(gcs.spec.n) if s != crashed_stack]
    # Messages from the crashed stack may be cut off mid-protocol.
    in_flight = {
        key
        for key, (sender, t) in gcs.log.sends.items()
        if sender == crashed_stack
    }
    assert_abcast_properties(
        gcs.log, {crashed_stack: crash_at}, list(range(gcs.spec.n)),
        in_flight_ok=in_flight,
    )
    # Survivors deliver identical sequences.
    seqs = {tuple(gcs.log.delivery_sequence(s)) for s in alive}
    assert len(seqs) == 1
    return alive


class TestCrashBeforeSwitch:
    def test_crash_then_switch_succeeds_on_survivors(self):
        gcs = run_with_crash(crash_stack=2, crash_at=2.0)
        alive = check_survivors(gcs, 2, 2.0)
        for s in alive:
            assert (
                gcs.backend.stacks[s].bound_module(WellKnown.ABCAST).protocol
                == PROTOCOL_CT
            )
            assert gcs.manager.module(s).seq_number == 1


class TestCrashDuringSwitch:
    @pytest.mark.parametrize("offset_ms", [0.0, 2.0, 6.0, 20.0])
    def test_crash_inside_the_window(self, offset_ms):
        """Crashes landing exactly inside the replacement window."""
        gcs = run_with_crash(crash_stack=1, crash_at=4.0 + offset_ms / 1e3)
        check_survivors(gcs, 1, 4.0 + offset_ms / 1e3)

    def test_initiator_crash_right_after_request(self):
        """The stack that *requested* the change dies immediately; the
        change message is already in the old protocol's total order, so
        the switch still happens everywhere else (uniform agreement)."""
        gcs = run_with_crash(crash_stack=0, crash_at=4.003, switch_at=4.0)
        alive = check_survivors(gcs, 0, 4.003)
        switched = [
            gcs.manager.module(s).seq_number == 1 for s in alive
        ]
        # Either the change made it into the total order before the crash
        # (everyone switches) or it did not (nobody does) — never a mix.
        assert len(set(switched)) == 1

    def test_operationability_quantifies_over_survivors(self):
        gcs = run_with_crash(crash_stack=3, crash_at=4.001)
        violations = check_weak_protocol_operationability(
            gcs.backend.trace, PROTOCOL_CT, list(range(5))
        )
        assert violations == []


class TestCrashAfterSwitch:
    def test_crash_in_new_protocol_era(self):
        gcs = run_with_crash(crash_stack=4, crash_at=6.0)
        alive = check_survivors(gcs, 4, 6.0)
        post = {k for k, (s, t) in gcs.log.sends.items() if t > 6.5 and s in alive}
        assert post, "survivors kept sending"
        for s in alive:
            assert post <= gcs.log.delivered_set(s)
