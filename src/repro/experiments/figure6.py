"""Experiment F6 — the paper's Figure 6.

"Figure 6 shows the average latency as a function of the load for various
group sizes (3 or 7)", with three configurations per group size:

* **normal, without replacement layer** — the workload calls ``abcast``
  directly (solid lines in the paper);
* **normal, with replacement layer** — the workload calls ``r-abcast``;
  steady state, no replacement (dashed lines; the ≈ 5 % overhead);
* **during replacement** — same as above, with latency measured over the
  messages sent inside the measured replacement window (dotted lines).

The paper's stated reading, which ``tests/integration/
test_figure_harnesses.py`` and ``benchmarks/bench_figure6.py`` check
against this harness: the overhead of the replacement layer is ≈ 5 %, and the extra
latency during replacement is only paid during a short window.

Every point is a scenario run whose property checkers all pass at
``trace="structural"``; a point that violates one raises instead of
being plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..metrics import windowed_mean_latency
from ..scenarios.spec import PAPER_SPEC, ScenarioSpec
from ..scenarios.switchplan import SwitchAt
from ..sim.clock import to_ms
from ..viz import ascii_plot, render_table
from .common import PROTOCOL_CT, experiment_run, run_checked

__all__ = ["Figure6Point", "Figure6Result", "run_figure6", "run_one_config"]

#: The three curves of the figure, in paper order.
CONFIGURATIONS = (
    "normal_without_layer",
    "normal_with_layer",
    "during_replacement",
)


@dataclass(frozen=True)
class Figure6Point:
    """One measured point: (n, configuration, load) → mean latency."""

    n: int
    configuration: str
    load_msgs_per_sec: float
    mean_latency: Optional[float]  # seconds; None if nothing measurable


@dataclass
class Figure6Result:
    """The full figure: a latency-vs-load curve per (n, configuration)."""

    points: List[Figure6Point] = field(default_factory=list)

    def curve(self, n: int, configuration: str) -> List[Tuple[float, float]]:
        """(load, latency ms) for one curve, load-ascending."""
        pts = [
            (p.load_msgs_per_sec, to_ms(p.mean_latency))
            for p in self.points
            if p.n == n and p.configuration == configuration
            and p.mean_latency is not None
        ]
        return sorted(pts)

    def rows(self) -> List[Tuple]:
        """Table rows (n, config, load, latency-ms), the bench's output."""
        return [
            (
                p.n,
                p.configuration,
                p.load_msgs_per_sec,
                to_ms(p.mean_latency) if p.mean_latency is not None else float("nan"),
            )
            for p in sorted(
                self.points, key=lambda q: (q.n, q.configuration, q.load_msgs_per_sec)
            )
        ]

    def render(self, width: int = 72, height: int = 18) -> str:
        """ASCII rendering: one chart per group size plus the table."""
        blocks = []
        for n in sorted({p.n for p in self.points}):
            series = {
                cfg: self.curve(n, cfg)
                for cfg in CONFIGURATIONS
                if self.curve(n, cfg)
            }
            blocks.append(
                ascii_plot(
                    series,
                    width=width,
                    height=height,
                    title=f"Figure 6 — latency vs load (n={n})",
                    xlabel="load [msgs/s]",
                    ylabel="latency [ms]",
                )
            )
        blocks.append(
            render_table(
                ["n", "configuration", "load [msg/s]", "latency [ms]"],
                self.rows(),
                title="Figure 6 data",
            )
        )
        return "\n\n".join(blocks)

    def overhead_at(self, n: int, load: float) -> Optional[float]:
        """Relative replacement-layer overhead at one (n, load) point."""
        base = {p.load_msgs_per_sec: p.mean_latency for p in self.points
                if p.n == n and p.configuration == "normal_without_layer"}
        layer = {p.load_msgs_per_sec: p.mean_latency for p in self.points
                 if p.n == n and p.configuration == "normal_with_layer"}
        if base.get(load) and layer.get(load):
            return (layer[load] - base[load]) / base[load]
        return None


def run_one_config(
    n: int,
    configuration: str,
    load: float,
    duration: float = 8.0,
    seed: int = 0,
    base_spec: ScenarioSpec = PAPER_SPEC,
) -> Figure6Point:
    """Measure one (n, configuration, load) point, varied from *base_spec*."""
    if configuration not in CONFIGURATIONS:
        raise ValueError(f"unknown configuration {configuration!r}")
    during = configuration == "during_replacement"
    point = replace(
        base_spec,
        name=f"figure6-{configuration}",
        n=n,
        load_msgs_per_sec=load,
        duration=duration,
        switches=(SwitchAt(PROTOCOL_CT, duration / 2.0),) if during else (),
    )
    gcs = run_checked(
        experiment_run(point, seed, with_repl_layer=configuration != "normal_without_layer")
    )

    if during:
        window = gcs.manager.windows.get(1)
        if window is None or window.start is None or window.end is None:
            latency = None
        else:
            # The paper measures the latency of traffic hit by the
            # replacement.  The measurement window is the replacement
            # window with a floor of 250 ms so low-load points still
            # contain sends (the paper's "short period" is ~1 s).
            end = max(window.end, window.start + 0.25)
            latency = windowed_mean_latency(gcs.log, window.start, end)
    else:
        # Skip the first second of warm-up (FD stabilisation, first
        # consensus instances) for the steady-state curves.
        latency = windowed_mean_latency(gcs.log, 1.0, duration)
    return Figure6Point(
        n=n, configuration=configuration, load_msgs_per_sec=load, mean_latency=latency
    )


def run_figure6(
    group_sizes: Sequence[int] = (3, 7),
    loads: Sequence[float] = (50.0, 100.0, 200.0, 300.0, 400.0),
    configurations: Sequence[str] = CONFIGURATIONS,
    duration: float = 8.0,
    seed: int = 0,
    base_spec: ScenarioSpec = PAPER_SPEC,
) -> Figure6Result:
    """Run the full Figure 6 sweep.  This is minutes of simulation; the
    benchmark uses a reduced grid and the example script the full one."""
    result = Figure6Result()
    for n in group_sizes:
        for configuration in configurations:
            for load in loads:
                result.points.append(
                    run_one_config(
                        n,
                        configuration,
                        load,
                        duration=duration,
                        seed=seed,
                        base_spec=base_spec,
                    )
                )
    return result
