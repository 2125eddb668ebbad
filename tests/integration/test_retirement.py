"""Integration tests: reclaiming old protocol modules after a switch.

The paper keeps old modules around forever ("unbinding a module does not
remove it from the stack"); a system running for months cannot.  The
``retire_old_after`` knob removes the unbound old module once its
in-flight traffic has surely drained; correctness must be unaffected.
"""

from dataclasses import replace

import pytest

from repro.dpu import ReplAbcastModule, assert_abcast_properties
from repro.errors import ReplacementError
from repro.experiments import (
    PROTOCOL_CT,
    build_group_comm_system,
)
from repro.kernel import System, WellKnown
from repro.scenarios.spec import PAPER_SPEC


def build_with_retirement(retire_after=1.0, n=4, seed=81, duration=8.0):
    """The standard system, with retirement enabled on every Repl module."""
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=60.0, duration=duration)
    gcs = build_group_comm_system(spec, seed)
    for s in range(n):
        gcs.manager.module(s).retire_old_after = retire_after
    return gcs


class TestRetirement:
    def test_old_module_removed_after_delay(self):
        gcs = build_with_retirement(retire_after=1.0)
        gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=3.0)
        gcs.run(until=3.5)
        # Old incarnation still present right after the switch...
        assert len(gcs.backend.stacks[0].modules_providing(WellKnown.ABCAST)) == 2
        gcs.run(until=8.0)
        gcs.run_to_quiescence()
        # ...and reclaimed after the retirement delay.
        for s in range(4):
            assert len(gcs.backend.stacks[s].modules_providing(WellKnown.ABCAST)) == 1
            assert gcs.manager.module(s).counters.get("retired_modules") == 1

    def test_correctness_unaffected_by_retirement(self):
        gcs = build_with_retirement(retire_after=1.0)
        gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=3.0)
        gcs.run(until=8.0)
        gcs.run_to_quiescence()
        assert_abcast_properties(gcs.log, {}, [0, 1, 2, 3])

    def test_rebound_module_never_retired(self):
        """If the 'old' module got re-bound (e.g. a revert switch), the
        retirement timer must leave it alone."""
        gcs = build_with_retirement(retire_after=2.0, duration=10.0)
        gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=3.0)
        gcs.run(until=10.0)
        gcs.run_to_quiescence()
        for s in range(4):
            bound = gcs.backend.stacks[s].bound_module(WellKnown.ABCAST)
            assert bound is not None
            assert not bound.stopped

    def test_invalid_delay_rejected(self):
        sys_ = System(n=1, seed=0)
        with pytest.raises(ReplacementError):
            ReplAbcastModule(
                sys_.stack(0), sys_.registry, "x", retire_old_after=0.0
            )


class TestBufferCap:
    def test_unclaimed_responses_capped(self):
        """After retirement, frames of the dead incarnation are never
        claimed; the per-service cap bounds the buffer."""
        from repro.kernel import Module

        sys_ = System(n=1, seed=0)
        stack = sys_.stack(0)
        stack.max_buffered_responses = 5

        class Emitter(Module):
            PROVIDES = ("e",)
            PROTOCOL = "emitter"

        emitter = stack.add_module(Emitter(stack))
        for i in range(12):
            emitter.respond("e", "ev", i)
        sys_.run()
        assert stack.buffered_response_count("e") == 5
        assert stack.buffered_responses_dropped == 7


class TestRetireBeforeBound:
    def test_retire_delay_shorter_than_creation_defers_until_bound(self):
        """A retirement due inside the unbind→bind gap must not reclaim
        the module the stack is still switching away from mid-window;
        it defers past the creation and then retires normally (and the
        task's chain state reflects it)."""
        gcs = build_with_retirement(retire_after=0.002)  # < creation_cost (5 ms)
        gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=3.0)
        gcs.run(until=8.0)
        gcs.run_to_quiescence()
        for s in range(4):
            module = gcs.manager.module(s)
            assert len(gcs.backend.stacks[s].modules_providing(WellKnown.ABCAST)) == 1
            assert module.counters.get("retired_modules") == 1
            (task,) = module.switch_chain
            assert task.state == "retired"
            assert task.retired_at > task.bound_at
        assert_abcast_properties(gcs.log, {}, [0, 1, 2, 3])
