"""Time-series helpers: binning and spike analysis.

Used by the Figure 5 harness to turn the per-message latency cloud into
a readable curve and to measure the perturbation window (the paper's
"lost during a short period (approximately one second)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["bin_series", "PerturbationWindow", "find_perturbation"]

#: A raw series: list of (x, y) points, x ascending.
XY = Sequence[Tuple[float, float]]


def bin_series(
    points: XY, bin_width: float, start: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Average *points* into fixed-width bins; returns (bin-centre, mean).

    Empty bins are skipped (no interpolation — gaps are information).
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    pts = list(points)
    if not pts:
        return []
    x0 = start if start is not None else pts[0][0]
    bins: dict = {}
    for x, y in pts:
        idx = int((x - x0) // bin_width)
        bins.setdefault(idx, []).append(y)
    return [
        (x0 + (idx + 0.5) * bin_width, float(np.mean(ys)))
        for idx, ys in sorted(bins.items())
    ]


@dataclass(frozen=True)
class PerturbationWindow:
    """A measured latency perturbation around an event."""

    start: float
    end: float
    peak: float            # highest binned latency inside the window
    baseline: float        # mean binned latency before the event

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_factor(self) -> float:
        """Peak as a multiple of the baseline (1.0 = no perturbation)."""
        return self.peak / self.baseline if self.baseline > 0 else float("inf")


def find_perturbation(
    points: XY,
    event_time: float,
    bin_width: float = 0.1,
    threshold_factor: float = 1.5,
) -> Optional[PerturbationWindow]:
    """Measure the latency perturbation following *event_time*.

    The baseline is the mean of bins strictly before the event; the
    perturbation is the contiguous run of bins at/after the event whose
    value exceeds ``threshold_factor × baseline``.  Returns ``None`` when
    no bin exceeds the threshold (no measurable perturbation) or the
    baseline cannot be estimated.
    """
    binned = bin_series(points, bin_width)
    before = [y for x, y in binned if x < event_time]
    after = [(x, y) for x, y in binned if x >= event_time]
    if not before or not after:
        return None
    baseline = float(np.mean(before))
    threshold = threshold_factor * baseline
    start = end = None
    peak = baseline
    for x, y in after:
        if y > threshold:
            if start is None:
                start = x - bin_width / 2
            end = x + bin_width / 2
            peak = max(peak, y)
        elif start is not None:
            break  # perturbation over at the first calm bin
    if start is None or end is None:
        return None
    return PerturbationWindow(start=start, end=end, peak=peak, baseline=baseline)
