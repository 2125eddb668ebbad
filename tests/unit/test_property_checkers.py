"""Unit tests: the Section 3 property checkers, on synthetic traces."""

import pytest

from repro.errors import PropertyViolation
from repro.dpu.properties import (
    assert_strong_stack_well_formedness,
    assert_weak_stack_well_formedness,
    check_strong_protocol_operationability,
    check_strong_stack_well_formedness,
    check_weak_protocol_operationability,
    check_weak_stack_well_formedness,
)
from repro.kernel import TraceKind, TraceRecorder


def trace_of(*events):
    tr = TraceRecorder()
    for time, kind, stack_id, kwargs in events:
        tr.record(time, kind, stack_id, **kwargs)
    return tr


class TestWeakWellFormedness:
    def test_released_block_is_fine(self):
        tr = trace_of(
            (1.0, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=1)),
            (2.0, TraceKind.CALL_UNBLOCKED, 0, dict(service="s", call_id=1)),
        )
        assert check_weak_stack_well_formedness(tr) == []

    def test_permanent_block_is_violation(self):
        tr = trace_of(
            (1.0, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=1)),
        )
        violations = check_weak_stack_well_formedness(tr)
        assert len(violations) == 1 and "0:1" in violations[0]

    def test_block_on_crashed_stack_exempt(self):
        tr = trace_of(
            (0.5, TraceKind.CRASH, 0, {}),
            (1.0, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=1)),
        )
        assert check_weak_stack_well_formedness(tr) == []

    def test_block_before_crash_exempt_too(self):
        # The stack crashed after blocking: the obligation dies with it.
        tr = trace_of(
            (1.0, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=1)),
            (2.0, TraceKind.CRASH, 0, {}),
        )
        # The paper's properties quantify over non-crashed stacks: an
        # obligation pending at the crash instant dies with the stack.
        assert check_weak_stack_well_formedness(tr) == []

    def test_ignore_after_horizon(self):
        tr = trace_of(
            (9.5, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=9)),
        )
        assert check_weak_stack_well_formedness(tr, ignore_after=9.0) == []

    def test_assertion_twin_raises(self):
        tr = trace_of(
            (1.0, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=1)),
        )
        with pytest.raises(PropertyViolation):
            assert_weak_stack_well_formedness(tr)


class TestStrongWellFormedness:
    def test_any_block_is_violation(self):
        tr = trace_of(
            (1.0, TraceKind.CALL_BLOCKED, 0, dict(service="s", call_id=1)),
            (2.0, TraceKind.CALL_UNBLOCKED, 0, dict(service="s", call_id=1)),
        )
        assert len(check_strong_stack_well_formedness(tr)) == 1
        with pytest.raises(PropertyViolation):
            assert_strong_stack_well_formedness(tr)

    def test_clean_trace_passes(self):
        tr = trace_of((1.0, TraceKind.CALL, 0, dict(service="s", call_id=1)))
        assert check_strong_stack_well_formedness(tr) == []


class TestOperationability:
    def _bind(self, t, stack, protocol="P"):
        return (t, TraceKind.BIND, stack, dict(service="p", module=f"m@{stack}", protocol=protocol))

    def _added(self, t, stack, protocol="P"):
        return (t, TraceKind.MODULE_ADDED, stack, dict(module=f"m@{stack}", protocol=protocol))

    def _removed(self, t, stack, protocol="P"):
        return (t, TraceKind.MODULE_REMOVED, stack, dict(module=f"m@{stack}", protocol=protocol))

    def test_weak_satisfied_by_later_addition(self):
        tr = trace_of(
            self._added(0.0, 0),
            self._bind(1.0, 0),
            self._added(5.0, 1),  # "eventually contains"
        )
        assert check_weak_protocol_operationability(tr, "P", [0, 1]) == []

    def test_weak_violated_when_never_added(self):
        tr = trace_of(self._added(0.0, 0), self._bind(1.0, 0))
        violations = check_weak_protocol_operationability(tr, "P", [0, 1])
        assert len(violations) == 1 and "stack 1" in violations[0]

    def test_weak_crashed_stack_exempt(self):
        tr = trace_of(
            (0.5, TraceKind.CRASH, 1, {}),
            self._added(0.0, 0),
            self._bind(1.0, 0),
        )
        assert check_weak_protocol_operationability(tr, "P", [0, 1]) == []

    def test_weak_removed_before_bind_counts_as_violation(self):
        tr = trace_of(
            self._added(0.0, 0),
            self._added(0.0, 1),
            self._removed(0.5, 1),
            self._bind(1.0, 0),
        )
        violations = check_weak_protocol_operationability(tr, "P", [0, 1])
        assert len(violations) == 1

    def test_strong_requires_presence_at_bind_instant(self):
        tr = trace_of(
            self._added(0.0, 0),
            self._bind(1.0, 0),
            self._added(5.0, 1),  # too late for the strong flavour
        )
        assert check_weak_protocol_operationability(tr, "P", [0, 1]) == []
        violations = check_strong_protocol_operationability(tr, "P", [0, 1])
        assert len(violations) == 1

    def test_strong_satisfied_with_simultaneous_presence(self):
        tr = trace_of(
            self._added(0.0, 0),
            self._added(0.0, 1),
            self._bind(1.0, 0),
        )
        assert check_strong_protocol_operationability(tr, "P", [0, 1]) == []

    def test_other_protocols_ignored(self):
        tr = trace_of(
            self._added(0.0, 0, protocol="Q"),
            self._bind(1.0, 0, protocol="Q"),
        )
        assert check_weak_protocol_operationability(tr, "P", [0, 1]) == []
