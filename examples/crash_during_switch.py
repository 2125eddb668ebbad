#!/usr/bin/env python3
"""Fault injection: a machine crashes in the middle of a replacement.

Five machines, constant load, a CT→CT replacement at t=4s — and machine 3
crashes 2 ms into the replacement window.  The survivors must finish the
switch consistently, keep delivering in identical total order, and group
membership must expel the dead machine.

Run:  python examples/crash_during_switch.py
"""

from dataclasses import replace

from repro.dpu import assert_abcast_properties
from repro.experiments import (
    PROTOCOL_CT,
    build_group_comm_system,
)
from repro.scenarios.spec import PAPER_SPEC


def main() -> None:
    crash_stack, crash_at = 3, 4.002
    spec = replace(PAPER_SPEC, n=5, load_msgs_per_sec=80.0, duration=9.0, with_gm=True)
    gcs = build_group_comm_system(spec, seed=11)
    gcs.manager.request_change(PROTOCOL_CT, from_stack=0, at=4.0)
    gcs.backend.nodes[crash_stack].crash_at(crash_at)
    gcs.run(until=9.0)
    gcs.run_to_quiescence(extra=8.0)

    alive = [s for s in range(5) if s != crash_stack]
    print(f"crashed: machine {crash_stack} at t={crash_at}s (mid-replacement)")

    print("== switch outcome on survivors ==")
    for s in alive:
        repl = gcs.manager.module(s)
        print(f"  stack {s}: version {repl.seq_number}, protocol {repl.current_protocol}")

    print("== membership reacted ==")
    gm = next(m for m in gcs.backend.stacks[0].modules.values() if m.protocol == "gm")
    print(f"  final view: {sorted(gm.members)}")

    # Messages the crashed machine sent right at the end may be cut off
    # mid-protocol; they are exempt from the liveness-flavoured checks.
    in_flight = {
        k for k, (sender, _t) in gcs.log.sends.items() if sender == crash_stack
    }
    assert_abcast_properties(
        gcs.log, {crash_stack: crash_at}, list(range(5)), in_flight_ok=in_flight
    )
    seqs = {tuple(gcs.log.delivery_sequence(s)) for s in alive}
    assert len(seqs) == 1, "survivors must agree on the delivery sequence"
    print("survivors consistent; all ABcast properties hold ✔")


if __name__ == "__main__":
    main()
