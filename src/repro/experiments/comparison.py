"""Experiment X1 — quantifying the Section 4.2/5.3 comparison.

The paper argues, qualitatively, that its solution beats Maestro-style
and Graceful-Adaptation-style DPU because (a) the application is never
blocked, (b) no auxiliary mechanism (group membership for Maestro,
barrier synchronisation for Graceful Adaptation) is needed, and (c) only
the replaced protocol is re-created rather than the whole stack.  This
harness makes those claims measurable: it runs the *same* load and the
*same* CT→CT replacement over all three indirection layers and reports

* the application-blocked time (buffered-call window of the baselines;
  kernel blocked-call time for Algorithm 1's unbind→bind gap),
* the switch duration (trigger → every stack running the new module),
* the extra coordination messages spent by each mechanism,
* the latency perturbation around the switch.

Each solution's row is a scenario run whose property checkers all pass
at ``trace="structural"``, or the harness raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..baselines.switchbase import DrainingSwitchModule
from ..kernel.service import WellKnown
from ..metrics import windowed_mean_latency
from ..scenarios.spec import PAPER_SPEC, ScenarioSpec
from ..scenarios.switchplan import SwitchAt
from ..sim.clock import to_ms
from ..viz import render_table
from .common import PROTOCOL_CT, experiment_run, run_checked

__all__ = ["ComparisonRow", "ComparisonResult", "run_comparison"]

SOLUTIONS = ("algorithm1", "maestro", "graceful")


@dataclass(frozen=True)
class ComparisonRow:
    """Measured behaviour of one DPU solution under the common scenario."""

    solution: str
    switch_duration: Optional[float]      # s, trigger -> all stacks switched
    #: Application-visible blocking: time r-abcast calls spent buffered.
    #: Algorithm 1 has no buffering mechanism at all (calls always
    #: forward), so this is structurally zero for it.
    app_blocked_total: float
    #: Blocking *below* the indirection (the unbind→bind gap), invisible
    #: to the application but part of the switch cost.
    internal_blocked_total: float
    #: Control messages the switch mechanism itself sent (announces,
    #: readiness reports, barrier rounds, flush markers, re-issues).
    coordination_messages: int
    steady_latency: Optional[float]       # s, before the switch
    during_latency: Optional[float]       # s, messages sent in the window


@dataclass
class ComparisonResult:
    rows: List[ComparisonRow]

    def render(self) -> str:
        return render_table(
            [
                "solution",
                "switch [ms]",
                "app blocked [ms]",
                "internal blocked [ms]",
                "coord msgs",
                "steady lat [ms]",
                "during lat [ms]",
            ],
            [
                (
                    r.solution,
                    to_ms(r.switch_duration) if r.switch_duration else float("nan"),
                    to_ms(r.app_blocked_total),
                    to_ms(r.internal_blocked_total),
                    r.coordination_messages,
                    to_ms(r.steady_latency) if r.steady_latency else float("nan"),
                    to_ms(r.during_latency) if r.during_latency else float("nan"),
                )
                for r in self.rows
            ],
            title="X1 — DPU solutions under identical load and switch",
        )

    def row(self, solution: str) -> ComparisonRow:
        for r in self.rows:
            if r.solution == solution:
                return r
        raise KeyError(solution)


def _run_solution(
    solution: str, base: ScenarioSpec, seed: int, switch_at: float
) -> ComparisonRow:
    algorithm1 = solution == "algorithm1"
    spec = replace(
        base,
        name=f"comparison-{solution}",
        switches=(SwitchAt(PROTOCOL_CT, switch_at),) if algorithm1 else (),
    )
    run = experiment_run(spec, seed, baseline=None if algorithm1 else solution)
    gcs = run.gcs
    sim = gcs.backend.sim
    n = spec.n

    switch_info: Dict[int, float] = {}
    switch_modules: list = []

    if not algorithm1:
        # The baselines switch through their own module, not the
        # replacement manager: the one trigger a spec cannot express.
        switch_modules = [
            m
            for stack in gcs.backend.stacks
            for m in stack.modules.values()
            if isinstance(m, DrainingSwitchModule)
        ]
        for m in switch_modules:
            m.on_switch_complete.append(
                lambda sid, epoch, prot, dur: switch_info.__setitem__(sid, sim.now)
            )
        trigger = switch_modules[0]
        sim.schedule_at(
            switch_at, trigger.call, (WellKnown.R_ABCAST, "change_protocol", PROTOCOL_CT)
        )

    run_checked(run)
    internal_blocked = sum(s.blocked_time_total for s in gcs.backend.stacks)

    if algorithm1:
        window = gcs.manager.windows.get(1)
        switch_duration = window.duration if window else None
        w_start = window.start if window else switch_at
        w_end = window.end if window and window.end else switch_at + 1.0
        # Algorithm 1 has no application-buffering mechanism: r-abcast
        # calls always forward immediately (blocking happens only below
        # the indirection, reported separately).
        app_blocked = 0.0
        # Control traffic: the one change request (ABcast once) plus the
        # per-stack re-issue burst.
        repls = [gcs.manager.module(s) for s in range(n)]
        coordination = sum(
            r.counters.get("change_requests") + r.counters.get("reissues")
            for r in repls
        )
    else:
        if switch_info:
            w_start = switch_at
            w_end = max(switch_info.values())
            switch_duration = w_end - w_start
        else:
            switch_duration, w_start, w_end = None, switch_at, switch_at + 1.0
        app_blocked = sum(m.app_blocked_total for m in switch_modules)
        # Control traffic, from the mechanism's own counters: the
        # announcement fan-out, per-stack flush markers, readiness /
        # barrier rounds, and the buffered-call replays.
        coordination = sum(
            m.counters.get("change_requests") * n          # announce fan-out
            + m.counters.get("drains")                     # flush marker abcast
            + m.counters.get("ready_sent")                 # maestro readiness
            + m.counters.get("buffered_replayed")          # replayed app calls
            for m in switch_modules
        )
        if solution == "maestro":
            coordination += n  # the initiator's 'go' fan-out
        if solution == "graceful":
            # three barrier rounds: n arrivals + n releases each
            barrier_modules = [
                m
                for stack in gcs.backend.stacks
                for m in stack.modules.values()
                if m.protocol == "barrier"
            ]
            coordination += sum(
                m.counters.get("entered") + m.counters.get("released") * n
                for m in barrier_modules
            )

    steady = windowed_mean_latency(gcs.log, 1.0, switch_at)
    during = windowed_mean_latency(gcs.log, w_start, max(w_end, w_start + 0.25))
    return ComparisonRow(
        solution=solution,
        switch_duration=switch_duration,
        app_blocked_total=app_blocked,
        internal_blocked_total=internal_blocked,
        coordination_messages=coordination,
        steady_latency=steady,
        during_latency=during,
    )


def run_comparison(
    n: int = 5,
    load: float = 100.0,
    duration: float = 10.0,
    seed: int = 0,
    solutions: tuple = SOLUTIONS,
) -> ComparisonResult:
    """Run the three DPU solutions under the identical scenario."""
    base = replace(PAPER_SPEC, n=n, load_msgs_per_sec=load, duration=duration)
    switch_at = duration / 2.0
    rows = [_run_solution(s, base, seed, switch_at) for s in solutions]
    return ComparisonResult(rows=rows)
