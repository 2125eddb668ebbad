"""Unit tests: the trace recorder and the slotted record type."""

import pytest

from repro.kernel import NULL_TRACE, Stack, TraceEvent, TraceKind, TraceRecord, TraceRecorder
from repro.sim import Machine, Simulator


class TestRecording:
    def test_records_in_order(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.BIND, 0, service="s")
        tr.record(2.0, TraceKind.UNBIND, 0, service="s")
        assert [e.kind for e in tr.of_kind(*TraceKind)] == [TraceKind.BIND, TraceKind.UNBIND]
        assert len(tr) == 2

    def test_disabled_records_nothing(self):
        tr = TraceRecorder(keep=frozenset())
        for kind in TraceKind:
            tr.record(1.0, kind, 0)
        assert len(tr) == 0

    def test_keep_filter(self):
        tr = TraceRecorder(keep=[TraceKind.CRASH])
        tr.record(1.0, TraceKind.BIND, 0)
        tr.record(2.0, TraceKind.CRASH, 1)
        assert [e.kind for e in tr.of_kind(*TraceKind)] == [TraceKind.CRASH]

    def test_keep_is_read_only(self):
        """Stacks cache per-kind flags from ``keep`` when they are built,
        so a later reassignment would make them disagree with record()."""
        tr = TraceRecorder(keep=[TraceKind.CRASH])
        with pytest.raises(AttributeError):
            tr.keep = None
        assert tr.keep == frozenset({TraceKind.CRASH})

    def test_detail_access(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.CALL, 0, service="s", call_id=1, method="go")
        e, = tr.of_kind(*TraceKind)
        assert e.get("call_id") == "0:1"
        assert e.get("missing", "dflt") == "dflt"

    def test_call_id_rendered_from_stack_and_seq(self):
        """record() takes the stack-local int seq; the built record
        carries the ``"<stack>:<seq>"`` string through both accessors."""
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.CALL, 3, service="s", method="go", call_id=7)
        tr.record(2.0, TraceKind.BIND, 3, service="s")
        call, bind = tr.of_kind(*TraceKind)
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

    def test_crashes_first_occurrence_wins(self):
        tr = self._populate()
        assert tr.crashes() == {1: 3.0}

    def test_counts(self):
        tr = self._populate()
        assert tr.counts() == {"bind": 2, "crash": 2}

    def test_of_kind_index_matches_scan(self):
        tr = self._populate()
        for kinds in ([TraceKind.BIND], [TraceKind.BIND, TraceKind.CRASH]):
            wanted = set(kinds)
            assert tr.of_kind(*kinds) == [e for e in tr.of_kind(*TraceKind) if e.kind in wanted]

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
        first, second = tr.of_kind(*TraceKind), tr.of_kind(*TraceKind)
        assert first == second and first is not second
        assert first[0] is not second[0]
        tr.record(5.0, TraceKind.BIND, 2, service="c")
        assert len(tr.of_kind(*TraceKind)) == len(tr) == 5

    def test_wants_reflects_keep_filter(self):
        assert TraceRecorder().wants(TraceKind.CALL)
        filtered = TraceRecorder(keep=[TraceKind.CRASH])
        assert filtered.wants(TraceKind.CRASH)
        assert not filtered.wants(TraceKind.CALL)


class TestSlottedRecords:
    def test_hot_fields_are_slots(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.CALL, 0, service="s", method="go", call_id=1)
        e, = tr.of_kind(*TraceKind)
        assert (e.method, e.call_id, e.event) == ("go", "0:1", None)
        assert not hasattr(e, "__dict__")  # slotted: no per-record dict
        assert dict(e.detail) == {}  # hot record: shared empty mapping

    def test_get_covers_slots_and_detail(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.RECOVER, 2, detail={"epoch": 3})
        tr.record(2.0, TraceKind.RESPONSE, 2, service="s", event="pong")
        recover, response = tr.of_kind(*TraceKind)
        assert recover.get("epoch") == 3
        assert recover.get("method", "dflt") == "dflt"
        assert response.get("event") == "pong"

    def test_records_are_immutable(self):
        tr = TraceRecorder()
        tr.record(1.0, TraceKind.BIND, 0, service="s")
        with pytest.raises(AttributeError):
            tr.of_kind(TraceKind.BIND)[0].service = "other"

    def test_trace_event_alias(self):
        assert TraceEvent is TraceRecord


class TestNullTrace:
    def test_shared_and_disabled(self):
        assert NULL_TRACE.keep == frozenset()
        NULL_TRACE.record(1.0, TraceKind.BIND, 0)
        assert len(NULL_TRACE) == 0

    def test_stacks_share_it_and_it_cannot_be_made_to_record(self):
        """The process-wide null sink must stay inert: making it record
        would silently couple every trace-off stack in the process."""
        sim = Simulator(seed=0)
        first, second = Stack(Machine(sim, 0)), Stack(Machine(sim, 1))
        assert first.trace is second.trace is NULL_TRACE
        with pytest.raises(AttributeError):
            NULL_TRACE.keep = None
        for kind in TraceKind:
            assert not NULL_TRACE.wants(kind)
            NULL_TRACE.record(1.0, kind, 0)
        assert len(NULL_TRACE) == 0
