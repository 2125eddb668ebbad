"""Replacement orchestration and measurement.

:class:`ReplacementManager` is the operator-facing API: it finds the
replacement modules across a system's stacks, lets an experiment trigger
``changeABcast`` from any stack at any simulated instant, and measures the
**replacement window** using the paper's own definition (Section 6.2):

    "the replacement starts when any process triggers a replacement and
    finishes when all machines have replaced the old modules by new
    modules."

Pipelined replacements make the windows a **version chain**: each
:class:`ReplacementWindow` links to its predecessor, exposes how long the
two overlapped (a second change issued before the first window closed),
and the manager aggregates chain-level metrics — convergence instant,
convergence time, per-stack protocol trajectories — plus version-phase
hooks (``on_version_started`` / ``on_version_first_complete`` /
``on_version_closed``) that chained switch triggers and experiments hang
off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..errors import ReplacementError
from ..kernel.service import WellKnown
from ..sim.clock import Time
from .repl import ReplAbcastModule

if TYPE_CHECKING:
    from ..runtime.api import Backend

__all__ = ["ReplacementManager", "ReplacementWindow"]


@dataclass
class ReplacementWindow:
    """Measured timeline of one replacement (one protocol version bump)."""

    version: int
    protocol: str
    requested_at: Optional[Time] = None
    #: stack -> instant its switch began (change message Adelivered).
    started: Dict[int, Time] = field(default_factory=dict)
    #: stack -> instant its switch completed (new module bound, reissues out).
    completed: Dict[int, Time] = field(default_factory=dict)
    #: The previous version's window — the chain linkage.
    prev: Optional["ReplacementWindow"] = field(default=None, repr=False)

    @property
    def start(self) -> Optional[Time]:
        """Paper definition: when any process triggered the replacement."""
        if self.requested_at is not None:
            return self.requested_at
        return min(self.started.values()) if self.started else None

    @property
    def end(self) -> Optional[Time]:
        """Paper definition: when all machines have replaced their module."""
        return max(self.completed.values()) if self.completed else None

    @property
    def duration(self) -> Optional[Time]:
        """End minus start, once both are known."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    @property
    def overlap_with_prev(self) -> Optional[Time]:
        """Seconds both this and the previous version's window were open.

        The concurrent-open interval ``[self.start, min(self.end,
        prev.end))`` — positive exactly when the replacement was
        *pipelined*: this version was requested/started before the
        previous window closed somewhere in the group.  Clamped to this
        window's own end, so a straggler closing the *previous* window
        late (crash-recovery) cannot overstate the overlap.  ``0.0`` for
        back-to-back chains, ``None`` while either window is still
        unmeasured (or for version 1).
        """
        if self.prev is None or self.start is None:
            return None
        prev_end = self.prev.end
        if prev_end is None:
            return None
        end = self.end
        closed_both = prev_end if end is None else min(prev_end, end)
        return max(0.0, closed_both - self.start)

    def complete_on(self, stacks: List[int]) -> bool:
        """Whether every listed stack finished its switch."""
        return all(s in self.completed for s in stacks)


class ReplacementManager:
    """Triggers and observes dynamic ABcast replacements on the stacks
    of a :class:`~repro.runtime.api.Backend`."""

    def __init__(self, backend: "Backend") -> None:
        self._backend = backend
        self.windows: Dict[int, ReplacementWindow] = {}
        self._repl_modules: Dict[int, ReplAbcastModule] = {}
        #: Fired once per version, at the first stack's switch start:
        #: ``hook(version, protocol, stack_id, time)``.
        self.on_version_started: List[Callable[[int, str, int, Time], None]] = []
        #: Fired once per version, at the first stack's completion:
        #: ``hook(version, protocol, stack_id, time)``.
        self.on_version_first_complete: List[Callable[[int, str, int, Time], None]] = []
        #: Fired once per version, when every non-crashed stack completed
        #: (the window closed): ``hook(version, protocol, time)``.
        self.on_version_closed: List[Callable[[int, str, Time], None]] = []
        self._started_announced: set = set()
        self._first_complete_announced: set = set()
        self._closed_announced: set = set()
        for stack in backend.stacks:
            module = stack.bound_module(WellKnown.R_ABCAST)
            if isinstance(module, ReplAbcastModule):
                self._repl_modules[stack.stack_id] = module
                module.on_switch_start.append(self._note_start)
                module.on_switch_complete.append(self._note_complete)
                # A window can also close when its last straggler
                # *crashes* (replacement_complete quantifies over
                # non-crashed stacks only) — without this hook a
                # crash-closed window would never announce.
                stack.machine.on_crash.append(self._on_machine_crash)
        if not self._repl_modules:
            raise ReplacementError(
                "no ReplAbcastModule bound to r-abcast on any stack; "
                "build the system with a replacement layer first"
            )

    # ------------------------------------------------------------------ #
    # Triggering
    # ------------------------------------------------------------------ #
    def request_change(
        self, protocol: str, from_stack: int = 0, at: Optional[Time] = None
    ) -> None:
        """Trigger ``changeABcast(protocol)`` from *from_stack*.

        When *at* is given the request fires at that absolute simulated
        instant (the paper triggers "in the middle of the experiment");
        otherwise it fires now.
        """
        module = self._repl_modules.get(from_stack)
        if module is None:
            raise ReplacementError(f"stack {from_stack} has no replacement module")

        def fire() -> None:
            version = self._expected_version()
            window = self._window_for(version, protocol)
            if window.requested_at is None:
                window.requested_at = self._backend.sim.now
            module.call(WellKnown.R_ABCAST, "change_protocol", protocol)

        if at is None:
            fire()
        else:
            self._backend.sim.schedule_at(at, fire)

    def _expected_version(self) -> int:
        # The next version is one past the highest seq_number any stack
        # has reached (concurrent requests may share a window; the hooks
        # fix up per-version bookkeeping as switches actually happen).
        return 1 + max(m.seq_number for m in self._repl_modules.values())

    def _window_for(self, version: int, protocol: str) -> ReplacementWindow:
        """The window of *version*, created (and chain-linked) on demand."""
        window = self.windows.get(version)
        if window is None:
            window = ReplacementWindow(version=version, protocol=protocol)
            window.prev = self.windows.get(version - 1)
            self.windows[version] = window
            later = self.windows.get(version + 1)
            if later is not None and later.prev is None:
                later.prev = window
        return window

    # ------------------------------------------------------------------ #
    # Hook plumbing
    # ------------------------------------------------------------------ #
    def _note_start(self, stack_id: int, version: int, prot: str, at: Time) -> None:
        window = self._window_for(version, prot)
        window.started.setdefault(stack_id, at)
        if version not in self._started_announced:
            self._started_announced.add(version)
            for hook in list(self.on_version_started):
                hook(version, prot, stack_id, at)

    def _note_complete(self, stack_id: int, version: int, prot: str, duration: Time) -> None:
        now = self._backend.sim.now
        window = self._window_for(version, prot)
        window.completed.setdefault(stack_id, now)
        if version not in self._first_complete_announced:
            self._first_complete_announced.add(version)
            for hook in list(self.on_version_first_complete):
                hook(version, prot, stack_id, now)
        self._announce_closed(version)

    def _announce_closed(self, version: int) -> None:
        """Fire ``on_version_closed`` once, the moment *version* closes.

        A window only closes over a non-empty alive set: during a
        transient full outage ``replacement_complete`` would be vacuously
        true for every window, and announcing then would consume one-shot
        chained triggers with nobody able to act on them.
        """
        if version in self._closed_announced:
            return
        alive = [
            s for s in self._repl_modules if not self._backend.nodes[s].crashed
        ]
        if not alive or not self.windows[version].complete_on(alive):
            return
        self._closed_announced.add(version)
        window = self.windows[version]
        now = self._backend.sim.now
        for hook in list(self.on_version_closed):
            hook(version, window.protocol, now)

    def _on_machine_crash(self, time: Time) -> None:
        """A crash can close any window whose only stragglers just died."""
        for version in sorted(self.windows):
            self._announce_closed(version)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def window(self, version: int) -> ReplacementWindow:
        """The measured window of protocol *version* (KeyError if unknown)."""
        return self.windows[version]

    def replacement_complete(self, version: int) -> bool:
        """Whether every non-crashed stack finished switching to *version*."""
        window = self.windows.get(version)
        if window is None:
            return False
        return window.complete_on(
            [s for s in self._repl_modules if not self._backend.nodes[s].crashed]
        )

    def current_protocols(self) -> Dict[int, str]:
        """``stack -> currently bound protocol name`` snapshot."""
        return {
            sid: m.current_protocol for sid, m in self._repl_modules.items()
        }

    def module(self, stack_id: int) -> ReplAbcastModule:
        """The replacement module of *stack_id*."""
        return self._repl_modules[stack_id]

    # ------------------------------------------------------------------ #
    # Chain metrics
    # ------------------------------------------------------------------ #
    def protocol_trajectories(self) -> Dict[int, List[Tuple[int, str]]]:
        """Per stack, the ``(version, protocol)`` chain bound so far.

        Derived from each module's own switch chain (the single source of
        truth), initial protocol first.
        """
        return {
            sid: module.protocol_trajectory()
            for sid, module in self._repl_modules.items()
        }

    def stale_classification(self) -> Dict[str, int]:
        """Aggregated stale-discard classification across all stacks.

        ``gap=k`` counts ordinary messages discarded *k* versions behind
        the receiver (Algorithm 1, line 18); pipelined chains produce
        ``k >= 2``, paper-literal anomalies can produce ``k < 0`` (frames
        from the future of a stack that skipped a stale change).
        """
        out: Dict[str, int] = {}
        for sid in sorted(self._repl_modules):
            for gap, count in self._repl_modules[sid].stale_gaps.items():
                key = f"gap={gap}"
                out[key] = out.get(key, 0) + count
        return out

    def chain_metrics(self) -> Dict[str, Any]:
        """Aggregate metrics of the whole replacement chain.

        Returns a deterministic dict with the chain's version list, the
        first trigger and final convergence instants, the convergence
        time (first trigger → last window close), per-version overlap
        durations, and whether any two consecutive windows actually
        overlapped (``pipelined``).
        """
        versions = sorted(self.windows)
        overlaps: Dict[int, Optional[Time]] = {
            v: self.windows[v].overlap_with_prev for v in versions
        }
        starts = [w.start for w in self.windows.values() if w.start is not None]
        ends = [w.end for w in self.windows.values()]
        converged_at = None if (not ends or any(e is None for e in ends)) else max(ends)
        chain_started_at = min(starts) if starts else None
        convergence_time = (
            converged_at - chain_started_at
            if converged_at is not None and chain_started_at is not None
            else None
        )
        return {
            "versions": versions,
            "chain_started_at": chain_started_at,
            "converged_at": converged_at,
            "convergence_time": convergence_time,
            "overlap_by_version": {str(v): overlaps[v] for v in versions},
            "pipelined": any((o or 0.0) > 0.0 for o in overlaps.values()),
        }
