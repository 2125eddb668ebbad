"""Property tests: the ABcast properties hold across random replacements.

Each example builds the full Figure 4 stack, fires a random message
schedule, performs randomly timed replacements between the three
protocols (and optionally crashes a minority stack), then checks all
four ABcast properties plus weak stack-well-formedness.  Every example is
a complete distributed execution, so example counts are modest — the
randomness explores schedules, the checkers prove each one.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dpu import (
    assert_weak_stack_well_formedness,
    check_all_abcast_properties,
)
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    build_group_comm_system,
)
from repro.scenarios.spec import PAPER_SPEC

PROTOCOLS = [PROTOCOL_CT, PROTOCOL_SEQ, PROTOCOL_TOKEN]


@st.composite
def scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = draw(st.sampled_from([3, 4]))
    load = draw(st.sampled_from([30.0, 60.0]))
    n_switches = draw(st.integers(min_value=1, max_value=3))
    switches = sorted(
        (
            draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False)),
            draw(st.sampled_from(PROTOCOLS)),
        )
        for _ in range(n_switches)
    )
    # Keep switch requests at least 600ms apart: concurrent requests are
    # exercised separately (the guard tests); here we explore timing of
    # *sequential* replacements against the message schedule.
    pruned = []
    for t, prot in switches:
        if not pruned or t - pruned[-1][0] > 0.6:
            pruned.append((t, prot))
    return seed, n, load, pruned


@given(scenarios())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_properties_hold_across_random_replacements(scenario):
    seed, n, load, switches = scenario
    duration = 6.0
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=load, duration=duration)
    gcs = build_group_comm_system(spec, seed)
    for at, prot in switches:
        gcs.manager.request_change(prot, from_stack=0, at=at)
    gcs.run(until=duration)
    gcs.run_to_quiescence(extra=8.0)

    results = check_all_abcast_properties(gcs.log, {}, list(range(n)))
    assert all(not v for v in results.values()), results
    assert_weak_stack_well_formedness(gcs.backend.trace)
    # every stack ends on the protocol of the last applied switch
    final = {gcs.manager.module(s).current_protocol for s in range(n)}
    assert len(final) == 1


@st.composite
def crash_scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n = 4  # tolerates one crash
    switch_at = draw(st.floats(min_value=2.0, max_value=3.0, allow_nan=False))
    crash_at = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    crash_stack = draw(st.integers(min_value=1, max_value=n - 1))
    prot = draw(st.sampled_from([PROTOCOL_CT]))
    return seed, n, switch_at, crash_at, crash_stack, prot


@given(crash_scenarios())
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_properties_hold_with_a_crash_near_the_switch(scenario):
    seed, n, switch_at, crash_at, crash_stack, prot = scenario
    duration = 6.0
    spec = replace(PAPER_SPEC, n=n, load_msgs_per_sec=40.0, duration=duration)
    gcs = build_group_comm_system(spec, seed)
    gcs.manager.request_change(prot, from_stack=0, at=switch_at)
    gcs.backend.nodes[crash_stack].crash_at(crash_at)
    gcs.run(until=duration)
    gcs.run_to_quiescence(extra=10.0)

    in_flight = {
        key
        for key, (sender, _t) in gcs.log.sends.items()
        if sender == crash_stack
    }
    results = check_all_abcast_properties(
        gcs.log, {crash_stack: crash_at}, list(range(n)), in_flight_ok=in_flight
    )
    assert all(not v for v in results.values()), results
