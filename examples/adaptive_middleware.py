#!/usr/bin/env python3
"""Adaptive group-communication middleware (the paper's headline scenario).

A 5-machine group runs the full Figure 4 stack *including group
membership*, under continuous load.  The operator then adapts the
ordering protocol twice at run time:

* at t=4s the consensus-based ABcast is swapped for the token ring
  (say, to spread ordering load across the machines);
* at t=8s the stack returns to the consensus-based protocol.

Group membership — a protocol *that depends on the replaced one* — keeps
installing views throughout, which is the paper's core demonstration:
"all middleware protocols, including those that depend on the updated
protocols, provide service correctly and with negligible delay while the
global update takes place."

Run:  python examples/adaptive_middleware.py
"""

from dataclasses import replace

from repro.dpu import assert_abcast_properties
from repro.experiments import (
    PROTOCOL_CT,
    PROTOCOL_TOKEN,
    build_group_comm_system,
)
from repro.kernel import WellKnown
from repro.metrics import windowed_mean_latency
from repro.scenarios.spec import PAPER_SPEC
from repro.sim import to_ms


def gm_of(gcs, stack_id):
    return next(
        m for m in gcs.system.stack(stack_id).modules.values() if m.protocol == "gm"
    )


def main() -> None:
    spec = replace(PAPER_SPEC, n=5, load_msgs_per_sec=100.0, duration=12.0, with_gm=True)
    gcs = build_group_comm_system(spec, seed=7)

    # Two adaptations while the system serves traffic.
    gcs.manager.request_change(PROTOCOL_TOKEN, from_stack=2, at=4.0)
    gcs.manager.request_change(PROTOCOL_CT, from_stack=4, at=8.0)

    # Membership activity right around the first switch: expel machine 4
    # at t=4.05 (mid-replacement!), re-admit it at t=6.
    gm0 = gm_of(gcs, 0)
    gcs.system.sim.schedule_at(4.05, gm0.call, (WellKnown.GM, "propose_expel", 4))
    gcs.system.sim.schedule_at(6.0, gm0.call, (WellKnown.GM, "propose_join", 4))

    gcs.run(until=12.0)
    gcs.run_to_quiescence()

    print("== adaptation timeline ==")
    for version, window in sorted(gcs.manager.windows.items()):
        print(
            f"  v{version}: -> {window.protocol:13s} "
            f"window {window.duration * 1e3:6.1f} ms "
            f"(triggered t={window.start:.2f}s)"
        )

    print("== group membership (identical on every stack) ==")
    for view_id, members in gm_of(gcs, 0).view_history:
        print(f"  view {view_id}: {sorted(members)}")
    assert all(
        gm_of(gcs, s).view_history == gm_of(gcs, 0).view_history for s in range(1, 4)
    )

    print("== latency per phase ==")
    for label, a, b in (
        ("CT (before)    ", 1.0, 4.0),
        ("token (middle) ", 4.5, 8.0),
        ("CT (after)     ", 8.5, 12.0),
    ):
        lat = windowed_mean_latency(gcs.log, a, b)
        print(f"  {label}: {to_ms(lat):7.2f} ms")

    assert_abcast_properties(gcs.log, gcs.system.trace.crashes(), list(range(5)))
    print("ABcast properties hold across both adaptations ✔")


if __name__ == "__main__":
    main()
