"""Integration tests: dynamic ABcast replacement (the paper's Section 5/6).

These run the full Figure 4 stack through
:func:`repro.experiments.common.build_group_comm_system`, replace
protocols on the fly, and check every correctness property plus the
paper's headline behavioural claims.
"""

from dataclasses import replace

from repro.dpu import (
    assert_abcast_properties,
    assert_weak_stack_well_formedness,
    check_weak_protocol_operationability,
)
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    build_group_comm_system,
)
from repro.kernel import WellKnown
from repro.scenarios.spec import PAPER_SPEC


def run_with_switches(switches, n=4, seed=7, duration=6.0, load=60.0, **spec_kwargs):
    """Run a loaded system performing the given (time, protocol) switches."""
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=load, duration=duration, **spec_kwargs)
    gcs = build_group_comm_system(spec, seed)
    assert gcs.manager is not None
    for at, prot in switches:
        gcs.manager.request_change(prot, from_stack=0, at=at)
    gcs.run(until=duration)
    gcs.run_to_quiescence()
    return gcs


def assert_all_properties(gcs):
    alive = [s for s in range(gcs.spec.n) if not gcs.backend.nodes[s].crashed]
    assert_abcast_properties(gcs.log, gcs.backend.trace.crashes(), alive)
    assert_weak_stack_well_formedness(gcs.backend.trace)


class TestPaperExperiment:
    """CT replaced by CT — exactly the paper's Section 6 scenario."""

    def test_ct_to_ct_preserves_all_properties(self):
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        assert_all_properties(gcs)

    def test_every_stack_switches(self):
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        protos = gcs.manager.current_protocols()
        assert set(protos.values()) == {PROTOCOL_CT}
        assert gcs.manager.replacement_complete(1)
        window = gcs.manager.window(1)
        assert window.duration is not None and window.duration > 0

    def test_no_message_lost_across_switch(self):
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        sent = set(gcs.log.sends)
        for s in range(gcs.spec.n):
            assert gcs.log.delivered_set(s) == sent

    def test_old_module_remains_in_stack_unbound(self):
        """Unbinding does not remove (paper, Section 2)."""
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        stack0 = gcs.backend.stacks[0]
        ct_modules = stack0.modules_providing(WellKnown.ABCAST)
        assert len(ct_modules) == 2  # old incarnation + new incarnation
        bound = stack0.bound_module(WellKnown.ABCAST)
        assert bound in ct_modules

    def test_application_never_blocked(self):
        """The paper's claim against Maestro: app calls (to r-abcast)
        are never buffered/blocked by Algorithm 1."""
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        for stack in gcs.backend.stacks:
            assert stack.blocked_call_count(WellKnown.R_ABCAST) == 0
        # Blocking exists only *below* the indirection (abcast service,
        # during the unbind->bind gap) and is bounded by creation cost:
        total_blocked = sum(s.blocked_time_total for s in gcs.backend.stacks)
        assert total_blocked <= gcs.spec.n * gcs.spec.creation_cost * 3


class TestCrossProtocolSwitches:
    def test_ct_to_sequencer(self):
        gcs = run_with_switches([(3.0, PROTOCOL_SEQ)])
        assert_all_properties(gcs)
        assert set(gcs.manager.current_protocols().values()) == {PROTOCOL_SEQ}

    def test_ct_to_token(self):
        gcs = run_with_switches([(3.0, PROTOCOL_TOKEN)])
        assert_all_properties(gcs)

    def test_sequencer_back_to_ct(self):
        gcs = run_with_switches(
            [(2.0, PROTOCOL_SEQ), (4.0, PROTOCOL_CT)], duration=7.0
        )
        assert_all_properties(gcs)
        assert set(gcs.manager.current_protocols().values()) == {PROTOCOL_CT}

    def test_switch_chain_all_three(self):
        gcs = run_with_switches(
            [(2.0, PROTOCOL_SEQ), (3.5, PROTOCOL_TOKEN), (5.0, PROTOCOL_CT)],
            duration=8.0,
        )
        assert_all_properties(gcs)
        assert gcs.manager.module(0).seq_number == 3


class TestOperationability:
    def test_new_protocol_weakly_operational(self):
        gcs = run_with_switches([(3.0, PROTOCOL_SEQ)])
        stacks = list(range(gcs.spec.n))
        assert check_weak_protocol_operationability(
            gcs.backend.trace, PROTOCOL_SEQ, stacks
        ) == []


class TestReplacementWindow:
    def test_window_is_short(self):
        """Paper: switching cost negligible; perturbation ~1s at scale.
        At this load the measured window stays well under a second."""
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        window = gcs.manager.window(1)
        assert window.duration < 1.0

    def test_window_contains_all_stacks(self):
        gcs = run_with_switches([(3.0, PROTOCOL_CT)])
        window = gcs.manager.window(1)
        assert set(window.completed) == set(range(gcs.spec.n))
        assert window.start <= min(window.started.values())
        assert window.end == max(window.completed.values())


class TestGuardVariants:
    def test_concurrent_changes_guarded_drop(self):
        cfg = dict(guard_change_sn=True, reissue_policy="drop")
        gcs = run_with_switches(
            [(3.0, PROTOCOL_CT), (3.001, PROTOCOL_SEQ)], duration=7.0, **cfg
        )
        assert_all_properties(gcs)

    def test_concurrent_changes_guarded_reissue(self):
        cfg = dict(guard_change_sn=True, reissue_policy="reissue")
        gcs = run_with_switches(
            [(3.0, PROTOCOL_CT), (3.001, PROTOCOL_SEQ)], duration=7.0, **cfg
        )
        assert_all_properties(gcs)
        # Under 'reissue', the superseded change is eventually applied too.
        repl = gcs.manager.module(0)
        assert repl.seq_number == 2

    def test_literal_variant_ok_when_changes_not_concurrent(self):
        """The paper's setting: a single replacement — the literal
        algorithm is correct there."""
        gcs = run_with_switches(
            [(3.0, PROTOCOL_CT)], guard_change_sn=False
        )
        assert_all_properties(gcs)


class TestGmAcrossSwitch:
    def test_gm_keeps_working_during_replacement(self):
        """The paper: protocols depending on the replaced one 'provide
        service correctly and with negligible delay while the global
        update takes place'."""
        spec = replace(PAPER_SPEC, n=4, load_msgs_per_sec=60.0, duration=6.0, with_gm=True)
        gcs = build_group_comm_system(spec, seed=9)
        gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=3.0)
        # A membership operation right in the middle of the switch:
        gm0 = next(
            m for m in gcs.backend.stacks[0].modules.values() if m.protocol == "gm"
        )
        gcs.backend.sim.schedule_at(3.01, gm0.call, (WellKnown.GM, "propose_expel", 3))
        gcs.run(until=6.0)
        gcs.run_to_quiescence()
        views = []
        for stack in gcs.backend.stacks[:3]:
            gm = next(m for m in stack.modules.values() if m.protocol == "gm")
            views.append(gm.view_history)
        # Identical view sequences on every stack, and the expel applied:
        assert views[0] == views[1] == views[2]
        assert views[0][-1][1] == frozenset({0, 1, 2})
        assert_all_properties(gcs)
