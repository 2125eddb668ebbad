"""Experiment F5 — the paper's Figure 5.

"The figure shows the average latency of atomic broadcast as a function
of the time at which the ABcast was sent; the replacement is triggered in
the middle of the experiment; n = 7."  The paper replaces the
Chandra–Toueg ABcast by the same protocol "while performing all steps of
the replacement algorithm (e.g., unbinding the old module, creating a new
module, etc.)".

Deliverables of this harness (consumed by ``benchmarks/bench_figure5.py``
and ``examples/figure5_replay.py``):

* the per-message latency series (the figure's point cloud);
* the measured replacement window (paper definition);
* the perturbation analysis backing the prose claims — the spike is
  confined to a short window (paper: ≈ 1 s) and latency re-stabilises at
  the pre-switch level;
* the checked correctness properties: the run is a scenario run, and
  every property checker passes at ``trace="structural"`` (no message
  lost or reordered across the switch) or the harness raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..dpu.manager import ReplacementWindow
from ..metrics import (
    PerturbationWindow,
    find_perturbation,
    latency_series,
    windowed_mean_latency,
)
from ..scenarios.spec import PAPER_SPEC, ScenarioSpec
from ..scenarios.switchplan import SwitchAt
from ..sim.clock import to_ms
from ..viz import ascii_plot
from .common import PROTOCOL_CT, experiment_run, run_checked

__all__ = ["Figure5Result", "run_figure5"]


@dataclass
class Figure5Result:
    """Everything Figure 5 shows, plus the prose-claim measurements."""

    #: The point that ran: the caller's spec, its duration and switch.
    spec: ScenarioSpec
    #: (send time s, average latency s) — the figure's point cloud.
    points: List[Tuple[float, float]]
    replacement_window: Optional[ReplacementWindow]
    perturbation: Optional[PerturbationWindow]
    pre_mean: Optional[float]      # mean latency before the switch (s)
    during_mean: Optional[float]   # mean latency in the replacement window
    post_mean: Optional[float]     # mean latency after stabilisation

    def series_ms(self) -> List[Tuple[float, float]]:
        """The point cloud with latencies in milliseconds (as plotted)."""
        return [(t, to_ms(lat)) for t, lat in self.points]

    def render(self, width: int = 72, height: int = 18) -> str:
        """ASCII rendering of the figure plus the measured numbers."""
        chart = ascii_plot(
            {"avg latency": self.series_ms()},
            width=width,
            height=height,
            title=f"Figure 5 — ABcast latency vs send time (n={self.spec.n})",
            xlabel="send time [s]",
            ylabel="latency [ms]",
        )
        lines = [chart]
        if self.replacement_window is not None:
            w = self.replacement_window
            lines.append(
                f"replacement: requested t={w.start:.3f}s, all stacks done "
                f"t={w.end:.3f}s (window {w.duration * 1e3:.1f} ms)"
            )
        if self.pre_mean is not None and self.post_mean is not None:
            lines.append(
                f"latency: pre={to_ms(self.pre_mean):.2f} ms  "
                f"during={to_ms(self.during_mean):.2f} ms  "
                f"post={to_ms(self.post_mean):.2f} ms"
            )
        if self.perturbation is not None:
            p = self.perturbation
            lines.append(
                f"perturbation: {p.duration:.2f}s long, peak ×{p.peak_factor:.1f} "
                f"over baseline — then stabilises"
            )
        else:
            lines.append("perturbation: below threshold (switch invisible in noise)")
        return "\n".join(lines)


def run_figure5(
    spec: ScenarioSpec = PAPER_SPEC,
    seed: int = 0,
    duration: float = 20.0,
    switch_at: Optional[float] = None,
    to_protocol: str = PROTOCOL_CT,
) -> Figure5Result:
    """Run the Figure 5 experiment and return its measurements.

    Defaults follow the paper: n = 7, the replacement triggered in the
    middle of the run, CT-ABcast replaced by the same protocol.  *spec*
    gives the stack shape and workload; the load stops at *duration*,
    then the run drains so every latency is final.
    """
    switch_time = switch_at if switch_at is not None else duration / 2.0
    point = replace(
        spec, name="figure5", duration=duration, switches=(SwitchAt(to_protocol, switch_time),)
    )
    gcs = run_checked(experiment_run(point, seed))

    series = latency_series(gcs.log)
    points = [(p.send_time, p.latency) for p in series]
    window = gcs.manager.windows.get(1)

    pre = during = post = None
    perturbation = None
    if window is not None and window.start is not None and window.end is not None:
        pre = windowed_mean_latency(gcs.log, 0.0, window.start)
        during = windowed_mean_latency(gcs.log, window.start, window.end)
        # "Post" starts one window-length after the end, to let the
        # re-issued backlog clear (the paper's "quickly stabilizes").
        settle = window.end + max(0.5, 2.0 * (window.end - window.start))
        post = windowed_mean_latency(gcs.log, settle, duration)
        perturbation = find_perturbation(points, window.start)

    return Figure5Result(
        spec=point,
        points=points,
        replacement_window=window,
        perturbation=perturbation,
        pre_mean=pre,
        during_mean=during,
        post_mean=post,
    )
