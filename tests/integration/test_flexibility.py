"""Integration tests: experiment X2 — the structural flexibility claim.

Paper, Section 4.2: "our solution does not limit the possible
replacements by imposing any restrictions on the services that a newly
added protocol may require.  Unlike Maestro, replacement of a single
protocol in our system does not require a whole protocol stack to be
replaced."  Graceful Adaptation's AACs "can only use the services
required by m", which "limits the possible replacements".

Here: the stack initially runs the *sequencer* ABcast (requires only
rp2p + rbcast; no consensus module exists anywhere).  Switching to the
consensus-based ABcast requires the ``consensus`` service — and
transitively the ``fd`` service is already present — so Algorithm 1's
``create_module`` recursion must instantiate the consensus module on
every stack mid-flight.  The Graceful-Adaptation baseline must refuse the
same change.
"""

from dataclasses import replace

import pytest

from repro.baselines import GracefulAdaptorModule
from repro.dpu import assert_abcast_properties
from repro.errors import RequirementError
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    build_group_comm_system,
)
from repro.kernel import WellKnown
from repro.scenarios.spec import PAPER_SPEC


def build_seq_system(baseline=None):
    spec = replace(
        PAPER_SPEC, n=4, load_msgs_per_sec=60.0, duration=6.0, initial_protocol=PROTOCOL_SEQ
    )
    return build_group_comm_system(spec, seed=13, baseline=baseline)


class TestOurSolutionCrossesRequirements:
    def test_no_consensus_module_initially(self):
        gcs = build_seq_system()
        for stack in gcs.backend.stacks:
            assert stack.bound_module(WellKnown.CONSENSUS) is None

    def test_switch_to_ct_creates_consensus_everywhere(self):
        gcs = build_seq_system()
        gcs.manager.request_change(PROTOCOL_CT, from_stack=1, at=3.0)
        gcs.run(until=6.0)
        gcs.run_to_quiescence()
        for stack in gcs.backend.stacks:
            consensus = stack.bound_module(WellKnown.CONSENSUS)
            assert consensus is not None, f"stack {stack.stack_id} lacks consensus"
            assert stack.bound_module(WellKnown.ABCAST).protocol == PROTOCOL_CT
        assert_abcast_properties(gcs.log, {}, [0, 1, 2, 3])

    def test_traffic_flows_after_cross_requirement_switch(self):
        gcs = build_seq_system()
        gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=3.0)
        gcs.run(until=6.0)
        gcs.run_to_quiescence()
        post_switch = {k for k, (s, t) in gcs.log.sends.items() if t > 4.0}
        assert post_switch, "load generator kept sending after the switch"
        for s in range(4):
            assert post_switch <= gcs.log.delivered_set(s)


class TestGracefulRefusesTheSameChange:
    def test_requirement_restriction_enforced(self):
        gcs = build_seq_system(baseline="graceful")
        adaptor = next(
            m
            for m in gcs.backend.stacks[0].modules.values()
            if isinstance(m, GracefulAdaptorModule)
        )
        with pytest.raises(RequirementError, match="consensus"):
            adaptor.request_change(PROTOCOL_CT)

    def test_graceful_allows_requirement_subset(self):
        """Switching within the allowed service set still works: the
        restriction is specific, not a blanket refusal."""
        gcs = build_seq_system(baseline="graceful")
        adaptor = next(
            m
            for m in gcs.backend.stacks[0].modules.values()
            if isinstance(m, GracefulAdaptorModule)
        )
        adaptor.request_change(PROTOCOL_SEQ)  # same requirements: fine
        gcs.run(until=6.0)
        gcs.run_to_quiescence()
        assert adaptor.current_protocol == PROTOCOL_SEQ
        assert adaptor.counters.get("adaptations_completed") == 1
