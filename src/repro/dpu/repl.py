"""The replacement module for atomic broadcast — Algorithm 1 of the paper.

Structure (paper, Section 4.1 / Figure 3): ``Repl`` provides the
indirection service ``r-abcast`` and requires ``abcast``.  Every consumer
of atomic broadcast (group membership, the application work-load) calls
``r-abcast`` instead of ``abcast``; ``Repl`` intercepts both the calls and
the ``adeliver`` responses.  The updateable ABcast modules are *unaware
that replacement happens* — they are ordinary, unmodified protocol
modules.  This is the paper's central structural claim, and the library
enforces it: the ABcast implementations in :mod:`repro.abcast` contain no
replacement-related code whatsoever.

Algorithm (paper, Section 5.2, Algorithm 1), stack *i*::

     1: Initialisation:
     2:    undelivered ← ∅            {messages not yet rAdelivered}
     3:    curABcast ← current ABcast protocol
     4:    seqNumber ← 0              {protocol version number}
     5: upon changeABcast(prot) do
     6:    ABcast(newABcast, seqNumber, prot)
     7: upon rABcast(m) do
     8:    undelivered ← undelivered ∪ {m}
     9:    ABcast(nil, seqNumber, m)
    10: upon Adeliver(newABcast, sn, prot) do
    11:    seqNumber ← seqNumber + 1
    12:    unbind(curABcast)
    13:    create_module(prot)
    14:    curABcast ← prot
    15:    for all m ∈ undelivered do
    16:        ABcast(nil, seqNumber, m)
    17: upon Adeliver(nil, sn, m) do
    18:    if sn = seqNumber then
    19:        if m ∈ undelivered then
    20:            undelivered ← undelivered \\ {m}
    21:        rAdeliver(m)

The change request travels through the *current* protocol's total order
(line 6), so every stack switches at the same point of that order; stale
messages (line 18) are discarded and re-issued by their origin through
the new protocol (line 16); ``create_module`` (lines 13, 22–28) performs
the requirement recursion implemented by
:meth:`repro.kernel.registry.ProtocolRegistry.create_module`.

The version chain
-----------------
Every accepted change message becomes one :class:`SwitchTask` — the
per-version state machine ``ordered → creating → bound → reissued →
retired`` — appended to the module's **switch chain**.  Overlapping
replacements (a second ``changeABcast`` issued before the first window
closes anywhere in the group) are therefore first-class: each version's
module creation, backlog re-issue and old-module retirement is tracked by
its own task, module incarnation tags and re-issue sequence numbers come
from the *task's* version (never from the live ``seq_number``, which may
already have advanced past it), and crash recovery resumes the whole
pending chain, not a single timer.  At most one task is ever in
``creating`` on a stack — module creation occupies the (simulated)
classloader serially — so later ``ordered`` tasks queue behind it and
start in version order.

Two deliberate deviations, both configurable:

* ``guard_change_sn`` (default ``True``) — the printed algorithm does not
  test ``sn`` on *change* messages (line 10).  With concurrent
  replacement requests, a stale change message is processed at a point
  that is **not** synchronised with the new protocol's total order, and
  uniform agreement can break (a regression test demonstrates it).  The
  guard discards stale change messages exactly like stale ordinary
  messages; the initiator re-issues its pending change through the new
  protocol according to ``reissue_policy`` (``"reissue"``) or drops it
  (``"drop"``, default — a superseding replacement has already happened).
* ``creation_cost`` — module creation occupies the host CPU and keeps
  the abcast service *unbound* for that long, so calls issued meanwhile
  block in the kernel's blocked-call queue and are released at the new
  bind (weak stack-well-formedness, exactly the paper's Section 3
  mechanism).  Setting it to 0 makes the switch atomic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ReplacementError
from ..kernel.module import Module, NOT_MINE
from ..kernel.registry import ProtocolRegistry
from ..kernel.service import WellKnown
from ..kernel.stack import Stack
from ..sim.clock import Duration, ms
from ..sim.monitors import Counter

__all__ = ["ReplAbcastModule", "SwitchTask", "NIL", "NEW_ABCAST"]

#: Tag of an ordinary (application) message (the algorithm's ``nil``).
NIL = "r.nil"
#: Tag of a protocol-change request (the algorithm's ``newABcast``).
NEW_ABCAST = "r.new"

#: Wire overhead the replacement layer adds to each message (tag + sn + uid).
_REPL_HEADER = 18

#: Internal unique id of a message or change request: (origin stack, seq).
_Rid = Tuple[int, int]


class SwitchTask:
    """One protocol-version transition of a stack's replacement chain.

    A task is born ``ordered`` when its change message is accepted from
    the total order (Algorithm 1, line 10) and advances through::

        ordered   -- accepted; queued behind any switch still creating
        creating  -- old module unbound, module creation in flight
        bound     -- new module created and bound (lines 13-14)
        reissued  -- the undelivered backlog re-issued (lines 15-16)
        retired   -- the old module this switch unbound was reclaimed

    ``bound → reissued`` happens within one simulated instant (the
    re-issue loop runs right after the bind); ``retired`` only ever
    happens when the module was built with ``retire_old_after``.  The
    per-stack chain of tasks *is* the protocol trajectory the
    chain-agreement checker compares across stacks.
    """

    #: Legal states, in lifecycle order (forward-only transitions).
    STATES = ("ordered", "creating", "bound", "reissued", "retired")

    __slots__ = (
        "version",
        "protocol",
        "rid",
        "state",
        "ordered_at",
        "creating_at",
        "bound_at",
        "reissued_at",
        "retired_at",
        "old_module",
        "retire_due",
        "reissue_count",
    )

    def __init__(self, version: int, protocol: str, rid: _Rid, ordered_at: float) -> None:
        self.version = version
        self.protocol = protocol
        self.rid = rid
        self.state = "ordered"
        self.ordered_at = ordered_at
        self.creating_at: Optional[float] = None
        self.bound_at: Optional[float] = None
        self.reissued_at: Optional[float] = None
        self.retired_at: Optional[float] = None
        #: Name of the module this switch unbound (retirement target).
        self.old_module: Optional[str] = None
        #: Absolute due instant of the pending retirement, if armed.
        self.retire_due: Optional[float] = None
        #: Undelivered messages re-issued under this version (lines 15-16).
        self.reissue_count = 0

    @property
    def pending(self) -> bool:
        """Whether the switch itself is still in flight (not yet bound)."""
        return self.state in ("ordered", "creating")

    def advance(self, state: str, now: float) -> None:
        """Move forward to *state* (skips allowed, regressions are bugs)."""
        order = self.STATES
        if order.index(state) <= order.index(self.state):
            raise ReplacementError(
                f"switch v{self.version}: illegal transition "
                f"{self.state!r} -> {state!r}"
            )
        self.state = state
        setattr(self, f"{state}_at", now)

    def to_dict(self) -> Dict[str, Any]:
        """A deterministic plain-dict rendering (status queries, reports)."""
        return {
            "version": self.version,
            "protocol": self.protocol,
            "state": self.state,
            "ordered_at": self.ordered_at,
            "creating_at": self.creating_at,
            "bound_at": self.bound_at,
            "reissued_at": self.reissued_at,
            "retired_at": self.retired_at,
            "reissues": self.reissue_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SwitchTask v{self.version} {self.protocol} {self.state}>"


class ReplAbcastModule(Module):
    """``Repl`` — the replacement module dedicated to the ABcast service.

    Service vocabulary (service ``r-abcast``):

    * call ``abcast(m, size_bytes)`` — the algorithm's ``rABcast``;
    * call ``change_protocol(prot_name)`` — the algorithm's
      ``changeABcast``;
    * response ``adeliver(origin, m, size_bytes)`` — ``rAdeliver``;
    * query ``status()`` — current version, protocol, pending counts and
      the switch chain.

    Parameters
    ----------
    stack, registry:
        The hosting stack and the protocol registry used by
        ``create_module``.
    initial_protocol:
        Name (in the registry) of the protocol bound to ``abcast`` when
        the system starts; used only for bookkeeping/reporting.
    guard_change_sn, reissue_policy, creation_cost:
        See the module docstring.
    dedup_deliveries:
        Belt-and-braces uid dedup at rAdeliver (default off — with the
        guard on, Algorithm 1 needs no dedup, and leaving it off lets the
        property checkers *observe* the paper-literal anomaly).
    """

    PROVIDES = (WellKnown.R_ABCAST,)
    REQUIRES = (WellKnown.ABCAST,)
    PROTOCOL = "repl-abcast"

    def __init__(
        self,
        stack: Stack,
        registry: ProtocolRegistry,
        initial_protocol: str,
        guard_change_sn: bool = True,
        reissue_policy: str = "drop",
        creation_cost: Duration = ms(5.0),
        dedup_deliveries: bool = False,
        retire_old_after: Optional[Duration] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(stack, name=name)
        if reissue_policy not in ("drop", "reissue"):
            raise ReplacementError(
                f"unknown reissue_policy {reissue_policy!r}; use 'drop' or 'reissue'"
            )
        if retire_old_after is not None and retire_old_after <= 0:
            raise ReplacementError("retire_old_after must be positive (or None)")
        self.registry = registry
        self.guard_change_sn = guard_change_sn
        self.reissue_policy = reissue_policy
        self.creation_cost = creation_cost
        self.dedup_deliveries = dedup_deliveries
        #: Remove the unbound old module this long after a switch.  The
        #: paper keeps old modules forever ("unbinding a module does not
        #: remove it from the stack"); a long-running system must
        #: eventually reclaim them.  The delay must exceed the time other
        #: stacks may still need this stack's participation in the old
        #: protocol's in-flight traffic (seconds are plenty on a LAN).
        self.retire_old_after = retire_old_after
        self.counters = Counter()

        # -- Algorithm 1 state ------------------------------------------ #
        #: line 2 — messages rABcast here and not yet rAdelivered here,
        #: as ``rid -> (m, size, issued_sn)``.  ``issued_sn`` is the
        #: seqNumber the frame was (last) issued under; the reissue loop
        #: (lines 15-16) skips entries already issued under (or past) the
        #: version being installed.  This matters only when module
        #: creation takes time: a message ABcast inside the unbind→bind
        #: gap carries the *new* sn and its own (kernel-blocked) call is
        #: released at bind — reissuing it too would deliver it twice.
        #: With zero creation cost the gap is empty and this reduces to
        #: the paper's lines 15-16 verbatim.
        self.undelivered: Dict[_Rid, Tuple[Any, int, int]] = {}
        #: line 4 — the protocol version number.
        self.seq_number = 0
        #: line 3 — name of the protocol currently bound (bookkeeping).
        self.current_protocol = initial_protocol
        #: The protocol bound at construction: version 0 of the chain.
        self.initial_protocol = initial_protocol

        # -- the version chain ------------------------------------------ #
        #: Every accepted change, in version order: ``chain[k]`` installs
        #: version ``k + 1``.  Append-only; the per-stack protocol
        #: trajectory the chain-agreement checker compares.
        self.switch_chain: List[SwitchTask] = []
        #: The (single) task whose module creation is in flight, if any.
        self._creating: Optional[SwitchTask] = None

        # -- deviation / instrumentation state -------------------------- #
        self._next_rid = 0
        #: Change requests this stack initiated and not yet seen applied.
        self._pending_changes: Dict[_Rid, str] = {}
        self._delivered_rids: set = set()
        #: Stale ordinary-message discards classified by version gap
        #: (``seq_number - sn`` at discard time).  Pipelined chains
        #: produce gaps ≥ 2 — a message can go stale across *several*
        #: versions before its origin re-issues it; negative gaps only
        #: occur in paper-literal runs where a stack processed a stale
        #: change and ran ahead of the frame's issuer.
        self.stale_gaps: Dict[int, int] = {}
        #: Hooks fired as ``hook(stack_id, seq_number, prot, started_at)``.
        self.on_switch_start: List[Callable[..., None]] = []
        #: Hooks fired as ``hook(stack_id, seq_number, prot, duration)``.
        self.on_switch_complete: List[Callable[..., None]] = []

        self.export_call(WellKnown.R_ABCAST, "abcast", self._rabcast)
        self.export_call(WellKnown.R_ABCAST, "change_protocol", self._change_abcast)
        self.export_query(WellKnown.R_ABCAST, "status", self._status)
        self.subscribe(WellKnown.ABCAST, "adeliver", self._on_adeliver)

    # ------------------------------------------------------------------ #
    # Lines 5-6: changeABcast(prot)
    # ------------------------------------------------------------------ #
    def _change_abcast(self, prot: str) -> None:
        self.registry.info(prot)  # fail fast on unknown protocols
        rid = self._fresh_rid()
        self._pending_changes[rid] = prot
        self.counters.incr("change_requests")
        self._abcast_frame((NEW_ABCAST, self.seq_number, rid, prot), 64)

    # ------------------------------------------------------------------ #
    # Lines 7-9: rABcast(m)
    # ------------------------------------------------------------------ #
    def _rabcast(self, m: Any, size_bytes: int) -> None:
        rid = self._fresh_rid()
        self.undelivered[rid] = (m, size_bytes, self.seq_number)  # line 8
        self.counters.incr("rabcasts")
        self._abcast_frame((NIL, self.seq_number, rid, m, size_bytes), size_bytes)

    def _abcast_frame(self, frame: tuple, size_bytes: int) -> None:
        self.call(WellKnown.ABCAST, "abcast", frame, size_bytes + _REPL_HEADER)

    def _fresh_rid(self) -> _Rid:
        rid = (self.stack_id, self._next_rid)
        self._next_rid += 1
        return rid

    # ------------------------------------------------------------------ #
    # Lines 10-21: the Adeliver interceptor
    # ------------------------------------------------------------------ #
    def _on_adeliver(self, origin: int, frame: Any, size_bytes: int):
        if not (isinstance(frame, tuple) and frame and frame[0] in (NIL, NEW_ABCAST)):
            return NOT_MINE
        if frame[0] == NEW_ABCAST:
            _, sn, rid, prot = frame
            self._on_change_message(sn, rid, prot)
        else:
            _, sn, rid, m, m_size = frame
            self._on_ordinary_message(sn, rid, m, m_size)
        return None

    # Lines 10-16 -------------------------------------------------------- #
    def _on_change_message(self, sn: int, rid: _Rid, prot: str) -> None:
        if self.guard_change_sn and sn != self.seq_number:
            # Deviation (module docstring): a stale change message is not
            # synchronised with the current protocol's total order.
            self.counters.incr("stale_changes_discarded")
            if rid in self._pending_changes:
                if self.reissue_policy == "reissue":
                    self.counters.incr("changes_reissued")
                    self._abcast_frame((NEW_ABCAST, self.seq_number, rid, prot), 64)
                else:
                    del self._pending_changes[rid]
                    self.counters.incr("changes_dropped_superseded")
            return
        # line 11 — the version is assigned at ordering time; everything
        # downstream (module tag, reissue sn) uses the *task's* version,
        # because by creation time ``seq_number`` may already be ahead.
        self.seq_number += 1
        self._pending_changes.pop(rid, None)
        task = SwitchTask(self.seq_number, prot, rid, self.now)
        self.switch_chain.append(task)
        self.counters.incr("switches")
        if self._creating is None:
            self._begin_switch(task)
        # else: a previous version's module creation still occupies the
        # classloader (reachable only in paper-literal mode, where a
        # stale change is accepted mid-gap); the task waits in state
        # ``ordered`` and starts when the chain reaches it.

    def _begin_switch(self, task: SwitchTask) -> None:
        """Unbind the current module and start creating *task*'s one."""
        task.advance("creating", self.now)
        self._creating = task
        for hook in self.on_switch_start:
            hook(self.stack_id, task.version, task.protocol, task.creating_at)
        # line 12 — from here until the new bind, calls to ``abcast``
        # block in the kernel's queue (weak stack-well-formedness).
        old_module = self.stack.unbind(WellKnown.ABCAST)
        if self.retire_old_after is not None:
            task.old_module = old_module.name
            task.retire_due = self.now + self.retire_old_after
            self.set_timer(self.retire_old_after, self._retire, task)
        # Module creation is modelled as *elapsed* time, not CPU burn:
        # the dominant cost in the paper's Java framework is classloading
        # and allocation, during which the event loop keeps serving the
        # still-running old protocol.  This is what lets calls actually
        # reach the unbound service and block (weak well-formedness).
        if self.creation_cost > 0:
            self.set_timer(self.creation_cost, self._complete_switch, task)
        else:
            self._complete_switch(task)

    def on_restart(self) -> None:
        """Resume the whole pending chain after a crash (crash-recovery).

        A crash between ``unbind`` and the creation-timer completion
        would otherwise leave ``abcast`` unbound forever on the recovered
        stack: the creation timer died with the old incarnation while
        the task stayed ``creating``, so every abcast call blocks
        permanently.  Module creation restarts from scratch in the new
        incarnation (the classloading work is lost with the crash), and
        any tasks still ``ordered`` behind it follow in version order
        when it completes — the chain resumes as a whole.  Retirement
        timers of *every* chain entry are re-armed too.
        """
        if self._creating is not None:
            self.set_timer(self.creation_cost, self._complete_switch, self._creating)
        else:
            # Defensive: the accept path starts a switch synchronously,
            # so an ordered head without a creating task should not
            # occur — but resuming it is strictly safer than stalling.
            for task in self.switch_chain:
                if task.state == "ordered":
                    self._begin_switch(task)
                    break
        for task in self.switch_chain:
            if task.retire_due is not None and task.state != "retired":
                self.set_timer(max(0.0, task.retire_due - self.now), self._retire, task)

    def _complete_switch(self, task: SwitchTask) -> None:
        if self._creating is not task:
            # A stale completion (the timer of a dead incarnation cannot
            # reach here — epochs guard that — but keep the invariant
            # explicit for free).
            return  # pragma: no cover - defensive
        self._creating = None
        # lines 13-14 (+ 22-28 via the registry): create and bind the new
        # protocol module under a fresh incarnation tag agreed via the
        # totally-ordered version of *this task* — under pipelining the
        # live seq_number may already name a later version.
        tag = f"{task.protocol}/v{task.version}"
        self.registry.create_module(
            self.stack, task.protocol, bind=True, factory_kwargs={"instance_tag": tag}
        )
        self.current_protocol = task.protocol
        task.advance("bound", self.now)
        # lines 15-16 — re-issue everything not yet rAdelivered that was
        # issued under an older protocol version (see the ``undelivered``
        # docstring for why gap-issued messages are skipped).  Frames are
        # stamped with the task's version: they travel through the module
        # bound *right now*, whose total order carries exactly that
        # version's traffic.
        reissued = 0
        for rid, (m, m_size, issued_sn) in list(self.undelivered.items()):
            if issued_sn >= task.version:
                continue
            reissued += 1
            self.counters.incr("reissues")
            self.undelivered[rid] = (m, m_size, task.version)
            self._abcast_frame((NIL, task.version, rid, m, m_size), m_size)
        task.reissue_count = reissued
        task.advance("reissued", self.now)
        for hook in self.on_switch_complete:
            hook(self.stack_id, task.version, task.protocol, self.now - task.creating_at)
        # Chain continuation: start the next ordered version, if any
        # (paper-literal pipelining queues them behind the classloader).
        for next_task in self.switch_chain[task.version:]:
            if next_task.state == "ordered":
                self._begin_switch(next_task)
                break

    # Lines 17-21 -------------------------------------------------------- #
    def _on_ordinary_message(self, sn: int, rid: _Rid, m: Any, m_size: int) -> None:
        if sn != self.seq_number:  # line 18
            gap = self.seq_number - sn
            self.counters.incr("stale_messages_discarded")
            if gap >= 2 or gap < 0:
                # Multi-version staleness only arises under pipelined
                # chains (gap ≥ 2) or the paper-literal anomaly (gap < 0).
                self.counters.incr("stale_multi_version")
            self.stale_gaps[gap] = self.stale_gaps.get(gap, 0) + 1
            return
        if rid in self.undelivered:  # lines 19-20
            del self.undelivered[rid]
        if self.dedup_deliveries:
            if rid in self._delivered_rids:
                self.counters.incr("dedup_suppressed")
                return
            self._delivered_rids.add(rid)
        self.counters.incr("radelivers")
        # line 21 — rAdeliver(m)
        self.respond(WellKnown.R_ABCAST, "adeliver", rid[0], m, m_size)

    def _retire(self, task: SwitchTask) -> None:
        """Reclaim the long-unbound module *task* replaced (see constructor)."""
        if task.pending:
            # The switch itself is still in flight — reachable when a
            # crash pushed the (restarted-from-scratch) creation past the
            # original retirement due time, or with a retire delay shorter
            # than the creation cost.  Never reclaim the module the stack
            # is still switching *away from* mid-window; retry once the
            # creation window has passed.
            task.retire_due = self.now + self.creation_cost
            self.set_timer(self.creation_cost, self._retire, task)
            return
        task.retire_due = None
        module_name = task.old_module
        if module_name is not None and module_name in self.stack.modules:
            bound = self.stack.bound_module(WellKnown.ABCAST)
            if bound is not None and bound.name == module_name:
                return  # it was re-bound meanwhile; never remove the active one
            self.stack.remove_module(module_name)
            self.counters.incr("retired_modules")
            if task.state != "retired":
                task.advance("retired", self.now)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _status(self) -> dict:
        return {
            "seq_number": self.seq_number,
            "current_protocol": self.current_protocol,
            "undelivered": len(self.undelivered),
            "pending_changes": len(self._pending_changes),
            "switching": self._creating is not None,
            "pending_chain": sum(1 for t in self.switch_chain if t.pending),
            "chain": [t.to_dict() for t in self.switch_chain],
            "stale_gaps": dict(sorted(self.stale_gaps.items())),
        }

    @property
    def undelivered_count(self) -> int:
        """Messages rABcast here and not yet rAdelivered here."""
        return len(self.undelivered)

    def protocol_trajectory(self) -> List[Tuple[int, str]]:
        """The ``(version, protocol)`` chain this stack has *bound* so far
        (the initial protocol as version 0, then every completed switch)."""
        out: List[Tuple[int, str]] = [(0, self.initial_protocol)]
        out.extend(
            (t.version, t.protocol)
            for t in self.switch_chain
            if t.bound_at is not None
        )
        return out
