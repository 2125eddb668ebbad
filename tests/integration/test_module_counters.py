"""Pin the RP2P and rbcast statistics of one small lossy run.

No golden report carries these counters, so a change to how the
datagram path bumps them (a dropped or misspelled key, an increment on
the wrong branch) would otherwise pass silently.  The expected values
were recorded before the counters moved from ``Counter.incr`` calls to
in-place increments; the run is deterministic, so they must not move.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.common import build_group_comm_system
from repro.scenarios.spec import PAPER_SPEC

RP2P = {
    0: {"data_sent": 478, "acks_sent": 234, "delivered": 342, "retransmissions": 96,
        "duplicates_dropped": 40, "out_of_order_buffered": 32, "self_delivered": 260},
    1: {"data_sent": 282, "acks_sent": 255, "delivered": 349, "retransmissions": 44,
        "duplicates_dropped": 40, "out_of_order_buffered": 35, "self_delivered": 20},
    2: {"data_sent": 277, "acks_sent": 257, "delivered": 346, "retransmissions": 18,
        "duplicates_dropped": 59, "out_of_order_buffered": 63, "self_delivered": 20},
}
RBCAST = {
    0: {"broadcasts": 80, "relays": 198, "delivered": 120, "duplicates_suppressed": 76},
    1: {"broadcasts": 20, "relays": 127, "delivered": 120, "duplicates_suppressed": 189},
    2: {"broadcasts": 20, "relays": 126, "delivered": 120, "duplicates_suppressed": 186},
}


@pytest.fixture(scope="module")
def stacks():
    """Three CT stacks, 1 s of load over a LAN with 3 % loss and 3 %
    duplication, then 0.5 s to settle."""
    spec = replace(
        PAPER_SPEC, n=3, load_msgs_per_sec=60.0, duration=1.0, loss_rate=0.03, duplicate_rate=0.03
    )
    gcs = build_group_comm_system(spec, seed=11, trace="off")
    gcs.run(1.5)
    return gcs.system.stacks


@pytest.mark.parametrize("stack_id", sorted(RP2P))
def test_rp2p_counters(stacks, stack_id):
    counters = stacks[stack_id].bound_module("rp2p").counters
    assert counters.as_dict() == RP2P[stack_id]
    assert all(counters.get(key) == value for key, value in RP2P[stack_id].items())


@pytest.mark.parametrize("stack_id", sorted(RBCAST))
def test_rbcast_counters(stacks, stack_id):
    counters = stacks[stack_id].bound_module("rbcast").counters
    assert counters.as_dict() == RBCAST[stack_id]
    assert all(counters.get(key) == value for key, value in RBCAST[stack_id].items())
