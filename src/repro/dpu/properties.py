"""Checkers for the paper's generic dynamic-update properties (Section 3).

All checkers are pure functions over a recorded
:class:`~repro.kernel.trace.TraceRecorder`; each returns a list of
violation strings (empty = property holds on this trace); the two
stack-well-formedness checkers also have an ``assert_*`` twin raising
:class:`~repro.errors.PropertyViolation`.
Each reads only the record kinds its docstring names, through the
recorder's per-kind index (:meth:`~repro.kernel.trace.TraceRecorder.of_kind`)
— never the whole stream, whose per-call rows dominate a full trace.

Finite-trace caveat: the *weak* properties are "eventually" properties.
On a finite trace a pending obligation near the end may be an artefact of
stopping the clock, not a violation; callers can pass ``ignore_after`` to
exempt obligations created after that instant (experiments instead run to
quiescence, making the strict check exact).

Definitions implemented (quoted from the paper):

* **strong stack-well-formedness** — "a stack is strongly well-formed iff
  whenever a module calls a service, the service is bound to one module";
* **weak stack-well-formedness** — "... the service is *eventually* bound
  to one module";
* **strong protocol-operationability** — "a protocol P is strongly
  operational in a set of stacks Π iff whenever a module Pi is bound in
  some stack i, then all non-crashed stacks j in Π contain a module Pj";
* **weak protocol-operationability** — "... *eventually* contain a module
  Pj".

Beyond the paper's four, the file hosts the trace side of **chain
agreement** (pipelined replacements): every stack must traverse the
identical protocol chain in the identical order.
:func:`protocol_chains` extracts each stack's ordered bind history for a
service from the kernel trace; :func:`check_chain_agreement` feeds it to
the comparison core in
:func:`repro.dpu.abcast_checker.chain_agreement_violations`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PropertyViolation
from ..kernel.events import TraceKind, TraceRecord
from ..kernel.service import WellKnown
from ..kernel.trace import TraceRecorder
from ..sim.clock import Time
from .abcast_checker import chain_agreement_violations

__all__ = [
    "check_weak_stack_well_formedness",
    "check_strong_stack_well_formedness",
    "check_weak_protocol_operationability",
    "check_strong_protocol_operationability",
    "protocol_chains",
    "check_chain_agreement",
    "assert_weak_stack_well_formedness",
    "assert_strong_stack_well_formedness",
]


# --------------------------------------------------------------------------- #
# Stack-well-formedness
# --------------------------------------------------------------------------- #
def check_weak_stack_well_formedness(
    trace: TraceRecorder,
    ignore_after: Optional[Time] = None,
) -> List[str]:
    """Every blocked call must eventually be released (unless the stack crashed).

    A blocked call on a stack that crashes at any point is exempt: a
    crashed stack makes no further calls and honours no obligations — the
    paper's properties quantify over non-crashed stacks, and an obligation
    pending at the crash instant dies with the stack.  Reads
    ``CALL_BLOCKED``, ``CALL_UNBLOCKED`` and ``CRASH`` records.
    """
    crashes = trace.crashes()
    blocked: Dict[Tuple[int, str], Time] = {}  # (stack, call_id) -> block time
    for event in trace.of_kind(TraceKind.CALL_BLOCKED, TraceKind.CALL_UNBLOCKED):
        if event.kind is TraceKind.CALL_BLOCKED:
            blocked[(event.stack_id, event.get("call_id"))] = event.time
        else:
            blocked.pop((event.stack_id, event.get("call_id")), None)
    violations = []
    for (stack_id, call_id), t in sorted(blocked.items(), key=lambda kv: kv[1]):
        if stack_id in crashes:
            continue
        if ignore_after is not None and t > ignore_after:
            continue
        violations.append(
            f"call {call_id} on stack {stack_id} blocked at t={t:.6f} and never released"
        )
    return violations


def check_strong_stack_well_formedness(trace: TraceRecorder) -> List[str]:
    """No call may ever block (the service must be bound at call time);
    reads ``CALL_BLOCKED`` records."""
    return [
        f"call {e.get('call_id')} on stack {e.stack_id} blocked at t={e.time:.6f} "
        f"(service {e.service!r} unbound)"
        for e in trace.of_kind(TraceKind.CALL_BLOCKED)
    ]


# --------------------------------------------------------------------------- #
# Protocol-operationability
# --------------------------------------------------------------------------- #
def _module_presence(
    trace: TraceRecorder, protocol: str
) -> Dict[int, List[Tuple[Time, Time]]]:
    """Per stack, the [added, removed) intervals of modules of *protocol*
    (its ``MODULE_ADDED`` / ``MODULE_REMOVED`` records)."""
    open_since: Dict[Tuple[int, str], Time] = {}
    intervals: Dict[int, List[Tuple[Time, Time]]] = {}
    for event in trace.of_kind(
        TraceKind.MODULE_ADDED, TraceKind.MODULE_REMOVED, protocol=protocol
    ):
        if event.kind is TraceKind.MODULE_ADDED:
            open_since[(event.stack_id, event.module)] = event.time
        else:
            start = open_since.pop((event.stack_id, event.module), None)
            if start is not None:
                intervals.setdefault(event.stack_id, []).append((start, event.time))
    for (stack_id, _module), start in open_since.items():
        intervals.setdefault(stack_id, []).append((start, float("inf")))
    return intervals


def _binds(
    trace: TraceRecorder, protocol: str, stacks: Sequence[int]
) -> List[TraceRecord]:
    """The ``BIND`` records of *protocol* on *stacks*, in recording order."""
    wanted = set(stacks)
    return [e for e in trace.of_kind(TraceKind.BIND, protocol=protocol) if e.stack_id in wanted]


def check_weak_protocol_operationability(
    trace: TraceRecorder,
    protocol: str,
    stacks: Sequence[int],
    ignore_after: Optional[Time] = None,
) -> List[str]:
    """Whenever a module of *protocol* is bound on some stack, every
    non-crashed stack in *stacks* must eventually contain such a module.
    Reads ``CRASH`` and *protocol*'s ``BIND`` / ``MODULE_*`` records."""
    crashes = trace.crashes()
    presence = _module_presence(trace, protocol)
    violations = []
    for bind in _binds(trace, protocol, stacks):
        if ignore_after is not None and bind.time > ignore_after:
            continue
        for j in stacks:
            crash_t = crashes.get(j)
            if crash_t is not None and crash_t <= bind.time:
                continue  # j crashed before the obligation arose
            # "eventually contains": some presence interval ends after the
            # bind instant (still open counts), or j crashes later.
            ok = any(end > bind.time for (_s, end) in presence.get(j, []))
            if not ok and crash_t is None:
                violations.append(
                    f"protocol {protocol!r} bound on stack {bind.stack_id} at "
                    f"t={bind.time:.6f}, but stack {j} never contains a module of it"
                )
    return violations


def check_strong_protocol_operationability(
    trace: TraceRecorder,
    protocol: str,
    stacks: Sequence[int],
) -> List[str]:
    """Whenever a module of *protocol* is bound on some stack, every
    non-crashed stack in *stacks* must contain such a module *right then*.
    Reads ``CRASH`` and *protocol*'s ``BIND`` / ``MODULE_*`` records."""
    crashes = trace.crashes()
    presence = _module_presence(trace, protocol)
    violations = []
    for bind in _binds(trace, protocol, stacks):
        for j in stacks:
            crash_t = crashes.get(j)
            if crash_t is not None and crash_t <= bind.time:
                continue
            ok = any(
                start <= bind.time < end for (start, end) in presence.get(j, [])
            )
            if not ok:
                violations.append(
                    f"protocol {protocol!r} bound on stack {bind.stack_id} at "
                    f"t={bind.time:.6f}, but stack {j} does not contain a module of "
                    f"it at that instant"
                )
    return violations


# --------------------------------------------------------------------------- #
# Chain agreement (pipelined replacements)
# --------------------------------------------------------------------------- #
def protocol_chains(
    trace: TraceRecorder,
    stacks: Sequence[int],
    service: str = WellKnown.ABCAST,
) -> Dict[int, List[str]]:
    """Per stack, the ordered protocol chain bound to *service*.

    The first entry is the initial protocol (its bind at build time),
    then one entry per completed replacement — the observable trajectory
    a pipelined chain leaves in the kernel trace.  Re-binding the *same*
    module (registry requirement resolution) still counts as a chain
    step only when it targets *service*, which only the replacement layer
    ever rebinds.  Reads ``BIND`` records.
    """
    wanted = set(stacks)
    chains: Dict[int, List[str]] = {s: [] for s in stacks}
    for event in trace.of_kind(TraceKind.BIND):
        if event.service == service and event.stack_id in wanted:
            chains[event.stack_id].append(event.protocol)
    return chains


def check_chain_agreement(
    trace: TraceRecorder,
    stacks: Sequence[int],
    crashed: Optional[Dict[int, Time]] = None,
    service: str = WellKnown.ABCAST,
) -> List[str]:
    """Every stack traverses the identical protocol chain in the identical
    order (correct stacks exactly; ever-crashed stacks as a subsequence).

    See :func:`repro.dpu.abcast_checker.chain_agreement_violations` for
    the precise quantification.  Reads ``BIND`` records (through
    :func:`protocol_chains`).
    """
    return chain_agreement_violations(
        protocol_chains(trace, stacks, service=service), crashed=crashed
    )


# --------------------------------------------------------------------------- #
# Assertion twins
# --------------------------------------------------------------------------- #
def _raise_if(prop: str, violations: List[str]) -> None:
    if violations:
        preview = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise PropertyViolation(prop, preview + more)


def assert_weak_stack_well_formedness(
    trace: TraceRecorder, ignore_after: Optional[Time] = None
) -> None:
    """Raise :class:`PropertyViolation` unless the property holds."""
    _raise_if(
        "weak stack-well-formedness",
        check_weak_stack_well_formedness(trace, ignore_after=ignore_after),
    )


def assert_strong_stack_well_formedness(trace: TraceRecorder) -> None:
    """Raise :class:`PropertyViolation` unless the property holds."""
    _raise_if(
        "strong stack-well-formedness", check_strong_stack_well_formedness(trace)
    )
