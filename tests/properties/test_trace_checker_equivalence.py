"""Property tests: the per-kind trace checkers equal full-scan references.

The checkers in :mod:`repro.dpu.properties` read only the record kinds
they need through :meth:`TraceRecorder.of_kind`.  The reference
implementations below are the earlier full-stream versions, which walked
every record of the trace; on random recorders over every
:class:`TraceKind` — unmatched blocks, removes with no add, re-added
modules, crash records, with and without ``ignore_after`` — both must
return *equal* violation lists.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpu.properties import (
    check_strong_protocol_operationability,
    check_strong_stack_well_formedness,
    check_weak_protocol_operationability,
    check_weak_stack_well_formedness,
    protocol_chains,
)
from repro.kernel import TraceKind, TraceRecorder

STACKS = (0, 1, 2, 3)
SERVICES = ("abcast", "svc", None)
MODULES = ("m0", "m1", "m2")
PROTOCOLS = ("p", "q", None)
CALL_IDS = (1, 2, 3, None)


# --------------------------------------------------------------------------- #
# Full-scan references
# --------------------------------------------------------------------------- #
def ref_weak_stack_well_formedness(trace, ignore_after=None) -> List[str]:
    crashes = trace.crashes()
    blocked: Dict[Tuple[int, str], float] = {}
    for event in trace.of_kind(*TraceKind):
        if event.kind is TraceKind.CALL_BLOCKED:
            blocked[(event.stack_id, event.get("call_id"))] = event.time
        elif event.kind is TraceKind.CALL_UNBLOCKED:
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


def ref_strong_stack_well_formedness(trace) -> List[str]:
    return [
        f"call {e.get('call_id')} on stack {e.stack_id} blocked at t={e.time:.6f} "
        f"(service {e.service!r} unbound)"
        for e in trace.of_kind(*TraceKind)
        if e.kind is TraceKind.CALL_BLOCKED
    ]


def ref_module_presence(trace, protocol):
    open_since: Dict[Tuple[int, str], float] = {}
    intervals: Dict[int, List[Tuple[float, float]]] = {}
    for event in trace.of_kind(*TraceKind):
        if event.protocol != protocol:
            continue
        if event.kind is TraceKind.MODULE_ADDED:
            open_since[(event.stack_id, event.module)] = event.time
        elif event.kind is TraceKind.MODULE_REMOVED:
            start = open_since.pop((event.stack_id, event.module), None)
            if start is not None:
                intervals.setdefault(event.stack_id, []).append((start, event.time))
    for (stack_id, _module), start in open_since.items():
        intervals.setdefault(stack_id, []).append((start, float("inf")))
    return intervals


def _ref_binds(trace, protocol, stacks):
    return [
        e for e in trace.of_kind(*TraceKind)
        if e.kind is TraceKind.BIND and e.protocol == protocol
        and e.stack_id in set(stacks)
    ]


def ref_weak_protocol_operationability(
    trace, protocol, stacks, ignore_after=None
) -> List[str]:
    crashes = trace.crashes()
    presence = ref_module_presence(trace, protocol)
    violations = []
    for bind in _ref_binds(trace, protocol, stacks):
        if ignore_after is not None and bind.time > ignore_after:
            continue
        for j in stacks:
            crash_t = crashes.get(j)
            if crash_t is not None and crash_t <= bind.time:
                continue
            ok = any(end > bind.time for (_s, end) in presence.get(j, []))
            if not ok and crash_t is None:
                violations.append(
                    f"protocol {protocol!r} bound on stack {bind.stack_id} at "
                    f"t={bind.time:.6f}, but stack {j} never contains a module of it"
                )
    return violations


def ref_strong_protocol_operationability(trace, protocol, stacks) -> List[str]:
    crashes = trace.crashes()
    presence = ref_module_presence(trace, protocol)
    violations = []
    for bind in _ref_binds(trace, protocol, stacks):
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


def ref_protocol_chains(trace, stacks, service="abcast") -> Dict[int, List[str]]:
    wanted = set(stacks)
    chains: Dict[int, List[str]] = {s: [] for s in stacks}
    for event in trace.of_kind(*TraceKind):
        if (event.kind is TraceKind.BIND and event.service == service
                and event.stack_id in wanted):
            chains[event.stack_id].append(event.protocol)
    return chains


# --------------------------------------------------------------------------- #
# Random recorders
# --------------------------------------------------------------------------- #
#: Structural kinds are drawn more often so that obligations and their
#: discharges actually meet; every kind still appears.
KINDS = st.one_of(
    st.sampled_from(list(TraceKind)),
    st.sampled_from([
        TraceKind.MODULE_ADDED, TraceKind.MODULE_REMOVED, TraceKind.BIND,
        TraceKind.CALL_BLOCKED, TraceKind.CALL_UNBLOCKED,
    ]),
)

ROWS = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    KINDS,
    st.sampled_from(STACKS),
    st.sampled_from(SERVICES),
    st.sampled_from(MODULES),
    st.sampled_from(PROTOCOLS),
    st.sampled_from(CALL_IDS),
)


@st.composite
def recorders(draw) -> TraceRecorder:
    rows = draw(st.lists(ROWS, max_size=60))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0])  # simulated-time order, like a run
    trace = TraceRecorder()
    for time, kind, stack_id, service, module, protocol, call_id in rows:
        trace.record(time, kind, stack_id, service, module, protocol, None, call_id)
    return trace


IGNORE_AFTER = st.one_of(
    st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
)
STACK_SETS = st.lists(st.sampled_from(STACKS + (9,)), unique=True, max_size=5)
#: The checkers take ``protocol: str`` (``of_kind(protocol=None)`` means
#: "no filter", not "records without a protocol"); "r" is never recorded.
QUERIED = st.sampled_from(("p", "q", "r"))


class TestCheckersEqualFullScan:
    @given(recorders(), IGNORE_AFTER)
    @settings(max_examples=150, deadline=None)
    def test_weak_stack_well_formedness(self, trace, ignore_after):
        assert check_weak_stack_well_formedness(
            trace, ignore_after=ignore_after
        ) == ref_weak_stack_well_formedness(trace, ignore_after=ignore_after)

    @given(recorders())
    @settings(max_examples=100, deadline=None)
    def test_strong_stack_well_formedness(self, trace):
        assert check_strong_stack_well_formedness(
            trace
        ) == ref_strong_stack_well_formedness(trace)

    @given(recorders(), QUERIED, STACK_SETS, IGNORE_AFTER)
    @settings(max_examples=150, deadline=None)
    def test_weak_protocol_operationability(
        self, trace, protocol, stacks, ignore_after
    ):
        assert check_weak_protocol_operationability(
            trace, protocol, stacks, ignore_after=ignore_after
        ) == ref_weak_protocol_operationability(
            trace, protocol, stacks, ignore_after=ignore_after
        )

    @given(recorders(), QUERIED, STACK_SETS)
    @settings(max_examples=150, deadline=None)
    def test_strong_protocol_operationability(self, trace, protocol, stacks):
        assert check_strong_protocol_operationability(
            trace, protocol, stacks
        ) == ref_strong_protocol_operationability(trace, protocol, stacks)

    @given(recorders(), STACK_SETS, st.sampled_from(("abcast", "svc")))
    @settings(max_examples=100, deadline=None)
    def test_protocol_chains(self, trace, stacks, service):
        assert protocol_chains(trace, stacks, service=service) == ref_protocol_chains(
            trace, stacks, service=service
        )


def test_hand_built_trace_with_every_special_case():
    """Remove-without-add, re-add, a later crash and an unmatched block."""
    trace = TraceRecorder()
    for row in (
        (0.1, TraceKind.MODULE_REMOVED, 0, None, "m0", "p"),  # remove, no add
        (0.2, TraceKind.MODULE_ADDED, 0, None, "m0", "p"),
        (0.3, TraceKind.MODULE_REMOVED, 0, None, "m0", "p"),
        (0.4, TraceKind.MODULE_ADDED, 0, None, "m0", "p"),    # re-added
        (0.5, TraceKind.BIND, 1, "abcast", "m0", "p"),
        (0.6, TraceKind.CRASH, 2),
    ):
        trace.record(*row)
    trace.record(0.7, TraceKind.CALL_BLOCKED, 3, "svc", None, None, None, 1)
    assert check_weak_stack_well_formedness(trace) == [
        "call 3:1 on stack 3 blocked at t=0.700000 and never released"
    ]
    # Stack 0 holds "p" again from 0.4, stack 2 crashes later: only the
    # stacks that never contain "p" (1 and 3) are reported.
    weak = check_weak_protocol_operationability(trace, "p", STACKS)
    assert weak == ref_weak_protocol_operationability(trace, "p", STACKS)
    assert [v.rsplit("stack ", 1)[1] for v in weak] == [
        "1 never contains a module of it", "3 never contains a module of it",
    ]
