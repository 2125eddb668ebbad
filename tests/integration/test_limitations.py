"""Integration tests: honest boundaries of Algorithm 1.

The change request travels *through the old protocol's total order*
(Algorithm 1, line 6).  Corollary: a protocol that has stopped delivering
— e.g. a fixed-sequencer ABcast whose sequencer crashed — cannot be
replaced by this mechanism, because the change message is never
Adelivered.  This is a real, documented boundary of the paper's approach
(its evaluation replaces live protocols only), and these tests pin it
down rather than hide it.
"""

from dataclasses import replace

from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    build_group_comm_system,
)
from repro.scenarios.spec import PAPER_SPEC


def build_seq(n=4, seed=51, duration=8.0):
    spec = replace(
        PAPER_SPEC, n=n, load_msgs_per_sec=40.0, duration=duration, initial_protocol=PROTOCOL_SEQ
    )
    return build_group_comm_system(spec, seed)


class TestSequencerStall:
    def test_sequencer_crash_stalls_delivery(self):
        """Safety kept, liveness lost: no orders after the sequencer dies."""
        gcs = build_seq()
        gcs.system.crash_at(0, 3.0)  # rank 0 is the sequencer
        gcs.run(until=8.0)
        for s in (1, 2, 3):
            late = [t for _k, t in gcs.log.deliveries.get(s, []) if t > 3.1]
            assert late == [], f"stack {s} delivered after the sequencer died"

    def test_survivors_agree_on_the_delivered_prefix(self):
        gcs = build_seq(seed=52)
        gcs.system.crash_at(0, 3.0)
        gcs.run(until=8.0)
        seqs = {tuple(gcs.log.delivery_sequence(s)) for s in (1, 2, 3)}
        assert len(seqs) == 1  # identical prefixes: safety preserved


class TestCannotReplaceDeadProtocol:
    def test_change_request_never_applies(self):
        """The documented boundary: replacing the crashed-sequencer
        protocol via Algorithm 1 does not work — the change request
        would have to be ordered by the very protocol that is dead."""
        gcs = build_seq(seed=53)
        gcs.system.crash_at(0, 3.0)
        # A survivor tries to escape to the consensus-based protocol:
        gcs.manager.request_change(PROTOCOL_CT, from_stack=1, at=4.0)
        gcs.run(until=10.0)
        for s in (1, 2, 3):
            repl = gcs.manager.module(s)
            assert repl.seq_number == 0, "switch must NOT have happened"
            assert repl.current_protocol == PROTOCOL_SEQ
        # The request is still pending forever at the initiator.
        assert len(gcs.manager.module(1)._pending_changes) == 1

    def test_replacing_a_live_protocol_from_the_same_state_works(self):
        """Control experiment: without the crash, the identical change
        request succeeds — isolating the cause to the dead protocol."""
        gcs = build_seq(seed=53)
        gcs.manager.request_change(PROTOCOL_CT, from_stack=1, at=4.0)
        gcs.run(until=10.0)
        gcs.run_to_quiescence()
        for s in range(4):
            assert gcs.manager.module(s).seq_number == 1
            assert gcs.manager.module(s).current_protocol == PROTOCOL_CT


class TestTokenStall:
    def test_token_holder_crash_stalls_ring(self):
        spec = replace(
            PAPER_SPEC, n=4, load_msgs_per_sec=40.0, duration=8.0, initial_protocol="abcast-token"
        )
        gcs = build_group_comm_system(spec, seed=54)
        gcs.system.crash_at(2, 3.0)  # eventually the token dies with it
        gcs.run(until=8.0)
        for s in (0, 1, 3):
            late = [t for _k, t in gcs.log.deliveries.get(s, []) if t > 3.5]
            assert late == [], f"stack {s} delivered after the token was lost"
