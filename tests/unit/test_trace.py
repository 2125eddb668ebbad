"""Unit tests: the trace recorder and the slotted record type."""

import pytest

from repro.kernel import NULL_TRACE, TraceEvent, TraceKind, TraceRecord, TraceRecorder


class TestRecording:
    def test_records_in_order(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.BIND, 0, service="s")
        tr.record(2.0, TraceKind.UNBIND, 0, service="s")
        assert [e.kind for e in tr] == [TraceKind.BIND, TraceKind.UNBIND]
        assert len(tr) == 2

    def test_disabled_records_nothing(self):
        tr = TraceRecorder(enabled=False)
        tr.record(1.0, TraceKind.BIND, 0)
        assert len(tr) == 0

    def test_keep_filter(self):
        tr = TraceRecorder(keep=[TraceKind.CRASH])
        tr.record(1.0, TraceKind.BIND, 0)
        tr.record(2.0, TraceKind.CRASH, 1)
        assert [e.kind for e in tr] == [TraceKind.CRASH]

    def test_subscribers_called(self):
        tr = TraceRecorder()
        seen = []
        tr.subscribers.append(seen.append)
        tr.record(1.0, TraceKind.BIND, 0)
        assert len(seen) == 1

    def test_detail_access(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.CALL, 0, service="s", call_id=1, method="go")
        e = tr.events[0]
        assert e.get("call_id") == "0:1"
        assert e.get("missing", "dflt") == "dflt"

    def test_call_id_rendered_from_stack_and_seq(self):
        """record() takes the stack-local int seq; the built record
        carries the ``"<stack>:<seq>"`` string through both accessors."""
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.CALL, 3, service="s", method="go", call_id=7)
        tr.record(2.0, TraceKind.BIND, 3, service="s")
        call, bind = tr.events
        assert call.call_id == call.get("call_id") == "3:7"
        assert bind.call_id is None and bind.get("call_id", "dflt") == "dflt"


class TestQueries:
    def _populate(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.BIND, 0, service="a")
        tr.record(2.0, TraceKind.BIND, 1, service="b")
        tr.record(3.0, TraceKind.CRASH, 1)
        tr.record(4.0, TraceKind.CRASH, 1)  # duplicate crash record
        return tr

    def test_of_kind(self):
        tr = self._populate()
        assert len(tr.of_kind(TraceKind.BIND)) == 2
        assert len(tr.of_kind(TraceKind.BIND, TraceKind.CRASH)) == 4

    def test_for_stack(self):
        tr = self._populate()
        assert len(tr.for_stack(1)) == 3

    def test_for_service(self):
        tr = self._populate()
        assert len(tr.for_service("a")) == 1

    def test_crashes_first_occurrence_wins(self):
        tr = self._populate()
        assert tr.crashes() == {1: 3.0}

    def test_crashed_before(self):
        tr = self._populate()
        assert tr.crashed_before(1, 3.0)
        assert not tr.crashed_before(1, 2.9)
        assert not tr.crashed_before(0, 10.0)

    def test_counts(self):
        tr = self._populate()
        assert tr.counts() == {"bind": 2, "crash": 2}

    def test_clear(self):
        tr = self._populate()
        tr.clear()
        assert len(tr) == 0
        # The per-kind index must clear too, not serve stale records.
        assert tr.of_kind(TraceKind.BIND) == []
        assert tr.crashes() == {}

    def test_of_kind_index_matches_scan(self):
        tr = self._populate()
        for kinds in ([TraceKind.BIND], [TraceKind.BIND, TraceKind.CRASH]):
            wanted = set(kinds)
            assert tr.of_kind(*kinds) == [e for e in tr if e.kind in wanted]

    def test_of_kind_protocol_filter(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.MODULE_ADDED, 0, None, "a", "p")
        tr.record(2.0, TraceKind.BIND, 0, "s", "a", "p")
        tr.record(3.0, TraceKind.MODULE_ADDED, 1, None, "b", "q")
        tr.record(4.0, TraceKind.MODULE_REMOVED, 0, None, "a", "p")
        assert [e.time for e in tr.of_kind(
            TraceKind.MODULE_ADDED, TraceKind.MODULE_REMOVED, protocol="p"
        )] == [1.0, 4.0]
        assert tr.of_kind(TraceKind.BIND, protocol="q") == []

    def test_queries_build_fresh_records(self):
        tr = self._populate()
        assert tr.events == tr.events and tr.events is not tr.events
        tr.record(5.0, TraceKind.BIND, 2, service="c")
        assert len(tr.events) == len(list(tr)) == 5

    def test_wants_reflects_keep_filter(self):
        assert TraceRecorder().wants(TraceKind.CALL)
        filtered = TraceRecorder(keep=[TraceKind.CRASH])
        assert filtered.wants(TraceKind.CRASH)
        assert not filtered.wants(TraceKind.CALL)


class TestSlottedRecords:
    def test_hot_fields_are_slots(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.CALL, 0, service="s", method="go", call_id=1)
        e = tr.events[0]
        assert (e.method, e.call_id, e.event) == ("go", "0:1", None)
        assert not hasattr(e, "__dict__")  # slotted: no per-record dict
        assert dict(e.detail) == {}  # hot record: shared empty mapping

    def test_get_covers_slots_and_detail(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.RECOVER, 2, detail={"epoch": 3})
        tr.record(2.0, TraceKind.RESPONSE, 2, service="s", event="pong")
        recover, response = tr.events
        assert recover.get("epoch") == 3
        assert recover.get("method", "dflt") == "dflt"
        assert response.get("event") == "pong"

    def test_records_are_immutable(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.BIND, 0, service="s")
        with pytest.raises(AttributeError):
            tr.events[0].service = "other"

    def test_trace_event_alias(self):
        assert TraceEvent is TraceRecord


class TestNullTrace:
    def test_shared_and_disabled(self):
        assert NULL_TRACE.enabled is False
        NULL_TRACE.record(1.0, TraceKind.BIND, 0)
        assert len(NULL_TRACE) == 0

    def test_cannot_be_enabled(self):
        """The process-wide null sink must stay inert: enabling it would
        silently couple every trace-off stack in the process."""
        with pytest.raises(ValueError, match="always-off sink"):
            NULL_TRACE.enabled = True
        NULL_TRACE.enabled = False  # idempotent no-op stays allowed
        assert not NULL_TRACE.wants(TraceKind.CALL)
