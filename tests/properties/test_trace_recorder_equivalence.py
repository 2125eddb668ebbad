"""Property tests: the trace recorder equals the earlier all-columns recorder.

:class:`~repro.kernel.trace.TraceRecorder` writes the per-call firehose
(``call``, ``call_dispatched``, ``response``, ``response_buffered``) to
one flat hot log and every other kind to columns with a per-kind row
index.  The reference below is the earlier recorder, kept verbatim
apart from its name: every record in ten columns plus a per-kind row
index.  Over random ``record()``/``clear()`` sequences on all 13 kinds,
enabled or not, with and without a ``keep`` filter, both must answer
every query with equal records in the same order, and hand their
subscribers equal records.  Only ``counts()`` may order its keys
differently: it is compared as a mapping.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import TraceKind, TraceRecord, TraceRecorder
from repro.sim.clock import Time

# --------------------------------------------------------------------------- #
# Reference: the earlier recorder, verbatim
# --------------------------------------------------------------------------- #
class ReferenceTraceRecorder:
    """Collects, filters, and queries kernel trace records.

    Parameters
    ----------
    enabled:
        When ``False`` the recorder drops everything (zero memory cost).
    keep:
        When given, only these :class:`TraceKind` values are retained.
        Fixed at construction (stacks cache per-kind flags from it).
    """

    __slots__ = (
        "enabled",
        "keep",
        "subscribers",
        "_times",
        "_kinds",
        "_stacks",
        "_services",
        "_modules",
        "_protocols",
        "_methods",
        "_call_ids",
        "_event_names",
        "_details",
        "_kind_rows",
    )

    def __init__(
        self,
        enabled: bool = True,
        keep: Optional[Iterable[TraceKind]] = None,
    ) -> None:
        self.enabled = enabled
        self.keep: Optional[Set[TraceKind]] = set(keep) if keep is not None else None
        # Columnar event storage: one list per record field, row i across
        # all columns is event i.  Append-only between clears.
        self._times: List[Time] = []
        self._kinds: List[TraceKind] = []
        self._stacks: List[int] = []
        self._services: List[Optional[str]] = []
        self._modules: List[Optional[str]] = []
        self._protocols: List[Optional[str]] = []
        self._methods: List[Optional[str]] = []
        self._call_ids: List[Optional[int]] = []  # stack-local call seq
        self._event_names: List[Optional[str]] = []
        self._details: List[Optional[Mapping[str, Any]]] = []
        #: Per-kind row indices (mirrors the old per-kind record index):
        #: ``of_kind`` and the checkers that call it stop scanning the
        #: full stream.
        self._kind_rows: Dict[TraceKind, List[int]] = {}
        #: Live subscribers called on each recorded event (e.g. online checkers).
        self.subscribers: List[Callable[[TraceRecord], None]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def wants(self, kind: TraceKind) -> bool:
        """Whether records of *kind* pass the :attr:`keep` filter.

        Ignores :attr:`enabled` — callers pair a cached ``wants`` flag
        with a live ``enabled`` check, which is the stack's fast path.
        """
        return self.keep is None or kind in self.keep

    def record(
        self,
        time: Time,
        kind: TraceKind,
        stack_id: int,
        service: Optional[str] = None,
        module: Optional[str] = None,
        protocol: Optional[str] = None,
        method: Optional[str] = None,
        call_id: Optional[int] = None,
        event: Optional[str] = None,
        detail: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one event (a no-op when disabled or filtered out).

        Every field lands in its named slot; *call_id* is the call's
        stack-local int seq, rendered as ``"<stack_id>:<seq>"`` in the
        built :attr:`~TraceRecord.call_id`.  *detail* is the record's
        :attr:`~TraceRecord.detail` mapping, passed as a dict by the few
        kinds that carry one (``module_added``, ``recover``, ...).  The
        signature deliberately has no ``**kwargs``: the kernel records
        per dispatch, positionally, and CPython would build a kwargs dict
        per call.
        """
        if not self.enabled:
            return
        keep = self.keep
        if keep is not None and kind not in keep:
            return
        row = len(self._times)
        self._times.append(time)
        self._kinds.append(kind)
        self._stacks.append(stack_id)
        self._services.append(service)
        self._modules.append(module)
        self._protocols.append(protocol)
        self._methods.append(method)
        self._call_ids.append(call_id)
        self._event_names.append(event)
        self._details.append(detail if detail else None)
        rows = self._kind_rows.get(kind)
        if rows is None:
            rows = self._kind_rows[kind] = []
        rows.append(row)
        if self.subscribers:
            record = self._row(row)
            for sub in self.subscribers:
                sub(record)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def _row(self, i: int) -> TraceRecord:
        """Build row *i* as a :class:`TraceRecord`.

        The ``call_id`` column holds the stack-local call seq; the record
        carries it rendered as ``"<stack>:<seq>"``.
        """
        stack_id = self._stacks[i]
        call_id = self._call_ids[i]
        return TraceRecord(
            self._times[i], self._kinds[i], stack_id,
            self._services[i], self._modules[i], self._protocols[i],
            self._methods[i],
            None if call_id is None else f"{stack_id}:{call_id}",
            self._event_names[i], self._details[i],
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.events)

    @property
    def events(self) -> List[TraceRecord]:
        """Every record, in recording order (a new list on each access)."""
        return [self._row(i) for i in range(len(self._times))]

    def of_kind(
        self, *kinds: TraceKind, protocol: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records whose kind is one of *kinds*, in recording order.

        When *protocol* is given, only records of that protocol.  Row
        indices are recording order, so a multi-kind query is a sorted
        merge of the per-kind row lists, and records are built only for
        the rows returned — never a full-stream scan.
        """
        lists = [r for r in (self._kind_rows.get(k) for k in set(kinds)) if r]
        if not lists:
            return []
        rows = lists[0] if len(lists) == 1 else sorted(i for r in lists for i in r)
        if protocol is not None:
            protocols = self._protocols
            rows = [i for i in rows if protocols[i] == protocol]
        return [self._row(i) for i in rows]

    def for_stack(self, stack_id: int) -> List[TraceRecord]:
        """Records of a single stack, in time order."""
        return [self._row(i) for i, s in enumerate(self._stacks) if s == stack_id]

    def for_service(self, service: str) -> List[TraceRecord]:
        """Records mentioning *service*, in time order."""
        return [self._row(i) for i, s in enumerate(self._services) if s == service]

    def crashes(self) -> Dict[int, Time]:
        """Map of ``stack_id -> crash time`` for stacks that crashed.

        Reads the columns directly — no record materialisation.
        """
        out: Dict[int, Time] = {}
        times, stacks = self._times, self._stacks
        for row in self._kind_rows.get(TraceKind.CRASH, ()):
            stack_id = stacks[row]
            if stack_id not in out:
                out[stack_id] = times[row]
        return out

    def crashed_before(self, stack_id: int, time: Time) -> bool:
        """Whether *stack_id* had crashed at or before *time*."""
        t = self.crashes().get(stack_id)
        return t is not None and t <= time

    def counts(self) -> Mapping[str, int]:
        """Histogram of event kinds (for quick diagnostics)."""
        return {
            kind.value: len(rows)
            for kind, rows in self._kind_rows.items()
            if rows
        }

    def clear(self) -> None:
        """Drop all recorded events."""
        self._times.clear()
        self._kinds.clear()
        self._stacks.clear()
        self._services.clear()
        self._modules.clear()
        self._protocols.clear()
        self._methods.clear()
        self._call_ids.clear()
        self._event_names.clear()
        self._details.clear()
        self._kind_rows.clear()


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
KINDS = list(TraceKind)
_names = st.none() | st.sampled_from(["a", "b", "c"])
_details = st.none() | st.just({}) | st.builds(dict, epoch=st.integers(0, 3))

#: Field shapes the stack records: method and seq on the call kinds, the
#: event on the response kinds, no detail.
_hot_shaped = st.tuples(
    st.sampled_from([TraceKind.CALL, TraceKind.CALL_DISPATCHED]),
    _names, _names, _names, _names, st.none() | st.integers(0, 9), st.none(), st.none(),
) | st.tuples(
    st.sampled_from([TraceKind.RESPONSE, TraceKind.RESPONSE_BUFFERED]),
    _names, _names, _names, st.none(), st.none(), _names, st.none(),
)
#: Any kind with any fields (a firehose kind that does not fit the hot
#: log's shape goes to the columns).
_any_shaped = st.tuples(
    st.sampled_from(KINDS), _names, _names, _names, _names,
    st.none() | st.integers(0, 9), _names, _details,
)


@st.composite
def _op(draw: Any) -> tuple:
    if draw(st.integers(0, 30)) == 0:
        return ("clear",)
    time = draw(st.floats(0.0, 10.0, allow_nan=False))
    stack_id = draw(st.integers(0, 3))
    kind, service, module, protocol, method, call_id, event, detail = draw(
        _hot_shaped | _any_shaped
    )
    return ("record", (time, kind, stack_id, service, module, protocol,
                       method, call_id, event, detail))


_keeps = st.none() | st.sets(st.sampled_from(KINDS))


def _replay(recorder: Any, ops: List[tuple]) -> List[TraceRecord]:
    seen: List[TraceRecord] = []
    recorder.subscribers.append(seen.append)
    for op in ops:
        if op[0] == "clear":
            recorder.clear()
        else:
            recorder.record(*op[1])
    return seen


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestRecorderEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_op(), max_size=60), keep=_keeps,
           kind_sets=st.lists(st.lists(st.sampled_from(KINDS), max_size=4), max_size=4),
           protocol=_names, enabled=st.booleans())
    def test_every_query_matches_reference(self, ops, keep, kind_sets, protocol, enabled):
        ref = ReferenceTraceRecorder(enabled=enabled, keep=keep)
        new = TraceRecorder(enabled=enabled, keep=keep)
        assert _replay(new, ops) == _replay(ref, ops)
        assert new.events == ref.events
        assert list(new) == list(ref)
        assert len(new) == len(ref)
        assert dict(new.counts()) == dict(ref.counts())
        assert new.crashes() == ref.crashes()
        for stack_id in range(4):
            assert new.for_stack(stack_id) == ref.for_stack(stack_id)
        for service in ("a", "b", "c"):
            assert new.for_service(service) == ref.for_service(service)
        for kinds in kind_sets + [KINDS]:
            assert new.of_kind(*kinds) == ref.of_kind(*kinds)
            if protocol is not None:
                assert (new.of_kind(*kinds, protocol=protocol)
                        == ref.of_kind(*kinds, protocol=protocol))
