#!/usr/bin/env python3
"""Structural flexibility (experiment X2): switching across requirements.

The stack starts on the *sequencer* ABcast — no consensus module, no
failure-detector consumer anywhere.  Switching to the consensus-based
ABcast requires the ``consensus`` service, which nothing in the stack
provides; Algorithm 1's ``create_module`` recursion (lines 22-28)
instantiates the Chandra–Toueg module on every machine, mid-flight.

The Graceful-Adaptation baseline — which restricts alternative
implementations to "the services required by m" — must refuse the same
change.  Both behaviours are shown.

Run:  python examples/switch_across_requirements.py
"""

from dataclasses import replace

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


def show_bindings(gcs, label):
    stack = gcs.backend.stacks[0]
    print(f"  {label}:")
    for service in (WellKnown.ABCAST, WellKnown.CONSENSUS):
        module = stack.bound_module(service)
        print(f"    {service:10s} -> {module.protocol if module else '(unbound)'}")


def main() -> None:
    print("== our solution: the recursion creates what the new protocol needs ==")
    spec = replace(
        PAPER_SPEC, n=4, load_msgs_per_sec=60.0, duration=6.0, initial_protocol=PROTOCOL_SEQ
    )
    gcs = build_group_comm_system(spec, seed=3)
    show_bindings(gcs, "before (sequencer ABcast, no consensus)")
    gcs.manager.request_change(PROTOCOL_CT, from_stack=1, at=3.0)
    gcs.run(until=6.0)
    gcs.run_to_quiescence()
    show_bindings(gcs, "after  (consensus created by create_module)")
    assert_abcast_properties(gcs.log, {}, [0, 1, 2, 3])
    print("  no message lost or reordered across the switch ✔")

    print("== Graceful-Adaptation baseline: the same change is refused ==")
    gcs2 = build_group_comm_system(spec, seed=3, baseline="graceful")
    adaptor = next(
        m for m in gcs2.backend.stacks[0].modules.values()
        if isinstance(m, GracefulAdaptorModule)
    )
    try:
        adaptor.request_change(PROTOCOL_CT)
    except RequirementError as exc:
        print(f"  refused, as the paper predicts: {exc}")


if __name__ == "__main__":
    main()
