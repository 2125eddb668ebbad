#!/usr/bin/env python3
"""Quickstart: dynamic protocol update in ~40 lines of API.

Builds the paper's group-communication stack (Figure 4) on three
simulated machines, puts atomic-broadcast load on it, replaces the
Chandra–Toueg ABcast protocol by the fixed-sequencer one *while messages
are flowing*, crashes and recovers a machine (the restart protocol
re-arms its timer wheels in the new incarnation epoch), and verifies the
four ABcast properties across the switch.

Run:  python examples/quickstart.py
(See docs/architecture.md for the layer map, docs/kernel.md for the API.)
"""

from dataclasses import replace

from repro.dpu import assert_abcast_properties
from repro.experiments import PROTOCOL_SEQ, build_group_comm_system
from repro.metrics import mean_latency
from repro.scenarios.spec import PAPER_SPEC
from repro.sim import to_ms


def main() -> None:
    # 1. Build: 3 machines, the full stack on each, 60 ABcast msgs/s for
    #    6 s — the paper's setting (PAPER_SPEC) scaled down.
    #    (trace="structural" would skip the per-call trace records the
    #    way campaign runs do; the default keeps the full trace.)
    spec = replace(PAPER_SPEC, n=3, load_msgs_per_sec=60.0, duration=6.0)
    gcs = build_group_comm_system(spec, seed=42)

    # 2. Schedule a live replacement: CT-ABcast -> sequencer-ABcast at t=3s.
    gcs.manager.request_change(PROTOCOL_SEQ, from_stack=0, at=3.0)

    # 3. Crash-recovery: machine 2 goes down mid-load and comes back as a
    #    new incarnation — Stack.restart() gives every module its
    #    on_restart() hook, re-arming the timer wheels the crash killed.
    gcs.backend.nodes[2].crash_at(4.5)
    gcs.backend.nodes[2].recover_at(5.0)

    # 4. Run the distributed execution and drain in-flight messages.
    gcs.run(until=6.0)
    gcs.run_to_quiescence()

    # 5. Inspect.
    window = gcs.manager.window(1)
    m2 = gcs.backend.nodes[2]
    print(f"sent messages       : {len(gcs.log.sends)}")
    print(f"replacement window  : {window.duration * 1e3:.1f} ms "
          f"(request at t={window.start:.3f}s)")
    print(f"protocols now       : {gcs.manager.current_protocols()}")
    print(f"machine 2           : recovered at t={m2.last_recovered_at:.3f}s, "
          f"incarnation epoch {m2.epoch}")
    print(f"mean latency        : {to_ms(mean_latency(gcs.log)):.2f} ms")

    # 6. Prove the switch was transparent: validity, uniform agreement,
    #    uniform integrity, uniform total order — across the replacement,
    #    with the usual exemptions for the crashed incarnation.
    assert_abcast_properties(gcs.log, gcs.backend.trace.crashes(), [0, 1, 2])
    print("all four ABcast properties hold across the replacement ✔")


if __name__ == "__main__":
    main()
