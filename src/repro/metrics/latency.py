"""Latency measurement — the paper's definition, verbatim.

Section 6.2: "Consider a message m sent using ABcast.  We denote by
t_i(m) the time between the moment of sending m and the moment of
delivering m on machine (stack) i.  We define the average latency of m as
the average of t_i(m) for all machines (stacks) i."

All functions operate on a :class:`~repro.dpu.probes.DeliveryLog`; times
are simulated seconds (convert for display with
:func:`repro.sim.clock.to_ms` — the paper plots milliseconds).  A series
reads the log's one-pass delivery index
(:meth:`~repro.dpu.probes.DeliveryLog.first_delivery_times`), not one
scan of every delivery per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..dpu.probes import DeliveryLog
from ..sim.clock import Time

__all__ = [
    "message_latency",
    "LatencyPoint",
    "latency_series",
    "mean_latency",
    "windowed_mean_latency",
]


def _average_latency(
    times: Dict[int, Time], t_send: Time, stacks: Optional[Sequence[int]]
) -> Optional[float]:
    """Mean of ``t - t_send`` over *times* (restricted to *stacks*)."""
    if stacks is not None:
        times = {s: t for s, t in times.items() if s in stacks}
    if not times:
        return None
    return float(np.mean([t - t_send for t in times.values()]))


def message_latency(
    log: DeliveryLog, key: Hashable, stacks: Optional[Sequence[int]] = None
) -> Optional[float]:
    """The paper's average latency of one message, in seconds.

    Returns ``None`` when the message was not delivered anywhere (yet).
    When *stacks* is given, only those stacks' deliveries are averaged
    (used to exclude crashed machines, as the paper's averaging
    implicitly does).
    """
    _sender, t_send = log.sends[key]
    return _average_latency(log.first_delivery_times().get(key, {}), t_send, stacks)


@dataclass(frozen=True)
class LatencyPoint:
    """One point of the Figure 5 series: a message and its average latency."""

    key: Hashable
    send_time: Time
    latency: float  # seconds


def latency_series(
    log: DeliveryLog, stacks: Optional[Sequence[int]] = None
) -> List[LatencyPoint]:
    """Per-message average latency, ordered by send time (Figure 5's cloud).

    Messages never delivered anywhere are skipped (they would have
    infinite latency; the property checkers report them separately).
    """
    index = log.first_delivery_times()
    points = []
    for key, (_sender, t_send) in log.sends.items():
        lat = _average_latency(index.get(key, {}), t_send, stacks)
        if lat is not None:
            points.append(LatencyPoint(key=key, send_time=t_send, latency=lat))
    points.sort(key=lambda p: p.send_time)
    return points


def mean_latency(
    log: DeliveryLog, stacks: Optional[Sequence[int]] = None
) -> Optional[float]:
    """Mean of the per-message average latencies over the whole run."""
    series = latency_series(log, stacks)
    if not series:
        return None
    return float(np.mean([p.latency for p in series]))


def windowed_mean_latency(
    log: DeliveryLog,
    start: Time,
    end: Time,
    stacks: Optional[Sequence[int]] = None,
) -> Optional[float]:
    """Mean latency of messages *sent* within ``[start, end)``.

    This is how the Figure 6 "during replacement" curve is computed: the
    window is the measured replacement window.
    """
    series = [
        p for p in latency_series(log, stacks) if start <= p.send_time < end
    ]
    if not series:
        return None
    return float(np.mean([p.latency for p in series]))
