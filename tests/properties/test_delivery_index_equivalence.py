"""Property tests: the one-pass delivery index equals per-key scans.

:meth:`DeliveryLog.first_delivery_times` builds ``key -> {stack -> first
delivery time}`` in one pass; the latency metrics and
:func:`check_validity` read it (or one delivered set per sender) instead
of rescanning every delivery once per message.  The references below are
the earlier per-key implementations.  Results must be *equal* — not
approximately: the order of the per-stack times feeds ``np.mean``, and
the last bit of ``mean_latency_s`` is part of every report digest.
"""

from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpu.abcast_checker import check_validity
from repro.dpu.probes import DeliveryLog
from repro.metrics import (
    LatencyPoint,
    latency_series,
    mean_latency,
    message_latency,
    windowed_mean_latency,
)

STACKS = (0, 1, 2, 3, 4)


# --------------------------------------------------------------------------- #
# Per-key-scan references
# --------------------------------------------------------------------------- #
def ref_delivery_times(log, key) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for stack_id, seq in log.deliveries.items():
        for k, t in seq:
            if k == key and stack_id not in out:
                out[stack_id] = t
    return out


def ref_message_latency(log, key, stacks=None):
    _sender, t_send = log.sends[key]
    times = ref_delivery_times(log, key)
    if stacks is not None:
        times = {s: t for s, t in times.items() if s in stacks}
    if not times:
        return None
    return float(np.mean([t - t_send for t in times.values()]))


def ref_latency_series(log, stacks=None) -> List[LatencyPoint]:
    points = []
    for key, (_sender, t_send) in log.sends.items():
        lat = ref_message_latency(log, key, stacks)
        if lat is not None:
            points.append(LatencyPoint(key=key, send_time=t_send, latency=lat))
    points.sort(key=lambda p: p.send_time)
    return points


def ref_mean_latency(log, stacks=None):
    series = ref_latency_series(log, stacks)
    if not series:
        return None
    return float(np.mean([p.latency for p in series]))


def ref_windowed_mean_latency(log, start, end, stacks=None):
    series = [p for p in ref_latency_series(log, stacks) if start <= p.send_time < end]
    if not series:
        return None
    return float(np.mean([p.latency for p in series]))


def ref_check_validity(log, crashed, in_flight_ok=None) -> List[str]:
    exempt = in_flight_ok or set()
    violations = []
    for key, (sender, t_send) in log.sends.items():
        if sender in crashed or key in exempt:
            continue
        if key not in log.delivered_set(sender):
            violations.append(
                f"message {key!r} ABcast by correct stack {sender} at "
                f"t={t_send:.6f} was never Adelivered by its sender"
            )
    return violations


# --------------------------------------------------------------------------- #
# Random logs
# --------------------------------------------------------------------------- #
TIMES = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_subnormal=False)


@st.composite
def logs(draw) -> DeliveryLog:
    """Sends plus deliveries in a random global interleaving.

    Stacks enter ``log.deliveries`` in the order of their first delivery,
    which the interleaving randomises.  Keys may be delivered twice on a
    stack, on only some stacks, never, or without ever being sent.
    """
    log = DeliveryLog()
    n_keys = draw(st.integers(min_value=0, max_value=12))
    for k in range(n_keys):
        sender = draw(st.sampled_from(STACKS))
        log.note_send(("wl", sender, k), sender, draw(TIMES))
    keys = list(log.sends) + [("wl", 9, 99)]  # one never-sent key
    deliveries = draw(st.lists(
        st.tuples(st.sampled_from(keys), st.sampled_from(STACKS), TIMES),
        max_size=60,
    ))
    for key, stack_id, t in deliveries:
        log.note_delivery(key, stack_id, t)
    return log


STACK_FILTERS = st.one_of(
    st.none(), st.lists(st.sampled_from(STACKS + (7,)), unique=True, max_size=6)
)


class TestDeliveryIndexEqualsPerKeyScan:
    @given(logs())
    @settings(max_examples=150, deadline=None)
    def test_index_content_and_stack_order(self, log):
        index = log.first_delivery_times()
        delivered = {k for seq in log.deliveries.values() for k, _t in seq}
        assert set(index) == delivered
        for key in delivered:
            # List comparison: the stack order must match, not just content.
            assert list(index[key].items()) == list(ref_delivery_times(log, key).items())

    @given(logs(), STACK_FILTERS)
    @settings(max_examples=150, deadline=None)
    def test_message_latency(self, log, stacks):
        for key in log.sends:
            assert message_latency(log, key, stacks) == ref_message_latency(
                log, key, stacks
            )

    @given(logs(), STACK_FILTERS)
    @settings(max_examples=150, deadline=None)
    def test_series_and_means(self, log, stacks):
        assert latency_series(log, stacks) == ref_latency_series(log, stacks)
        assert mean_latency(log, stacks) == ref_mean_latency(log, stacks)

    @given(logs(), STACK_FILTERS, TIMES, TIMES)
    @settings(max_examples=150, deadline=None)
    def test_windowed_mean_latency(self, log, stacks, start, width):
        end = start + width
        assert windowed_mean_latency(log, start, end, stacks) == (
            ref_windowed_mean_latency(log, start, end, stacks)
        )

    @given(
        logs(),
        st.dictionaries(st.sampled_from(STACKS), TIMES, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_check_validity(self, log, crashed, exempt_half):
        exempt = set(list(log.sends)[::2]) if exempt_half else None
        assert check_validity(log, crashed, exempt) == ref_check_validity(
            log, crashed, exempt
        )


def test_stack_order_reaches_the_mean():
    """Stack order in the index is delivery-log order, not sorted order."""
    log = DeliveryLog()
    log.note_send("m", 0, 0.0)
    log.note_delivery("m", 2, 0.3)
    log.note_delivery("m", 0, 0.1)
    log.note_delivery("m", 0, 0.9)  # duplicate: the first time counts
    log.note_delivery("m", 1, 0.2)
    assert list(log.first_delivery_times()["m"].items()) == [(2, 0.3), (0, 0.1), (1, 0.2)]
    assert message_latency(log, "m") == ref_message_latency(log, "m")
    assert message_latency(log, "m", stacks=[1]) == 0.2
