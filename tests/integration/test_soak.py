"""Soak test: sustained operation through repeated adaptation and faults.

One long (simulated) run combining everything the library does: load,
four protocol switches across all three implementations, module
retirement, live group membership, and a late minority crash — with the
full property battery at the end.  This is the closest the suite comes
to the paper's vision of a system that "must run non-stop".
"""

from dataclasses import replace

import pytest

from repro.dpu import (
    assert_abcast_properties,
    assert_weak_stack_well_formedness,
)
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    build_group_comm_system,
)
from repro.kernel import WellKnown
from repro.scenarios.spec import PAPER_SPEC


@pytest.mark.slow
def test_soak_switches_retirement_membership_and_crash():
    duration = 24.0
    n = 5
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=60.0, duration=duration, with_gm=True)
    gcs = build_group_comm_system(spec, seed=99)
    for s in range(n):
        gcs.manager.module(s).retire_old_after = 2.0

    plan = [
        (4.0, PROTOCOL_SEQ),
        (8.0, PROTOCOL_TOKEN),
        (12.0, PROTOCOL_CT),
        (16.0, PROTOCOL_CT),  # the paper's same-protocol replacement
    ]
    for at, prot in plan:
        gcs.manager.request_change(prot, from_stack=int(at) % n, at=at)

    crash_stack, crash_at = 4, 20.0
    gcs.system.crash_at(crash_stack, crash_at)

    gcs.run(until=duration)
    gcs.run_to_quiescence(extra=10.0)

    alive = [s for s in range(n) if s != crash_stack]

    # 1. All four switches applied on the survivors, in order.
    for s in alive:
        assert gcs.manager.module(s).seq_number == 4
        assert gcs.manager.module(s).current_protocol == PROTOCOL_CT

    # 2. Retirement kept the stack bounded: at most the active module
    #    plus the not-yet-retired previous one.
    for s in alive:
        assert len(gcs.system.stack(s).modules_providing(WellKnown.ABCAST)) <= 2

    # 3. Membership expelled the crashed machine, identically everywhere.
    gms = [
        next(m for m in gcs.system.stack(s).modules.values() if m.protocol == "gm")
        for s in alive
    ]
    assert all(gm.members == frozenset(alive) for gm in gms)
    assert len({tuple(gm.view_history) for gm in gms}) == 1

    # 4. The full property battery across everything that happened.
    in_flight = {
        k for k, (sender, _t) in gcs.log.sends.items() if sender == crash_stack
    }
    assert_abcast_properties(
        gcs.log, {crash_stack: crash_at}, list(range(n)), in_flight_ok=in_flight
    )
    assert_weak_stack_well_formedness(gcs.system.trace)

    # 5. Sanity on volume: ~24s at 60 msg/s minus the crashed stack's tail.
    assert len(gcs.log.sends) > 1000
