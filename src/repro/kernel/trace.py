"""The trace recorder shared by all stacks of a system.

One :class:`TraceRecorder` collects the :class:`~repro.kernel.events.TraceRecord`
stream of an entire distributed execution (all stacks interleaved in
global simulated-time order).  Property checkers and debugging tools then
query it; recording can be disabled wholesale for pure benchmarking runs
(:data:`NULL_TRACE` is the shared always-off sink), or filtered by kind
to bound memory — campaigns run with
:data:`~repro.kernel.events.STRUCTURAL_TRACE_KINDS` so the checkers keep
their teeth while the per-call firehose is never allocated.

Storage keeps no record objects.  The per-call firehose (``call``,
``call_dispatched``, ``response``, ``response_buffered``) goes to one
flat **hot log**, :data:`HOT_STRIDE` values per record, which the stack
extends directly: no Python frame and no per-kind index per record.
Every other kind goes to ten parallel columns plus a per-kind row index;
each row also stores the hot log's length when it was recorded, and
queries merge the two stores back into recording order.  Records are
built at query time, only for the entries a query returns, so the
checkers' :meth:`TraceRecorder.of_kind` reads on structural kinds never
touch the hot log.

The split is kept on evidence (``benchmarks/e2e`` ``sim-fulltrace-log``,
alternating pairs on a 2-vCPU host): against one ``record()`` call per
firehose record, ``pass_cost`` fell to 0.894× (10/10 pairs) and peak RSS
by 5.9 %, and trace self time went from 17 % to 0.1 % of a traced pass.
A flat log written *inside* ``record()`` was neutral (0.985×), and one
retained tuple per record ~8 % slower: the gain is the dropped frame.

Hot-path contract with :class:`~repro.kernel.stack.Stack`: the stack
caches per-kind "wants" flags (see :meth:`TraceRecorder.wants`) at
construction and re-checks only the cheap :attr:`enabled` attribute per
call.  It binds the hot log's ``extend`` once, so :meth:`clear` empties
the log in place, and publishes each entry to :attr:`subscribers` while
there are any.  The :attr:`keep` filter is fixed at construction;
toggle :attr:`enabled` freely.
"""

from __future__ import annotations

from heapq import merge
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

from ..sim.clock import Time
from .events import STRUCTURAL_TRACE_KINDS, TraceKind, TraceRecord

__all__ = ["TraceRecorder", "NULL_TRACE", "HOT_STRIDE"]


#: Values per hot-log record: time, kind, stack_id, service, module,
#: protocol, name (a call's method, a response's event), seq.
HOT_STRIDE = 8


class TraceRecorder:
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
        "_hot",
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
        "_hot_pos",
        "_kind_rows",
    )

    def __init__(
        self,
        enabled: bool = True,
        keep: Optional[Iterable[TraceKind]] = None,
    ) -> None:
        self.enabled = enabled
        self.keep: Optional[Set[TraceKind]] = set(keep) if keep is not None else None
        #: The firehose log; never rebound (stacks hold its ``extend``).
        self._hot: List[Any] = []
        # Every other record: one list per field, row i across all
        # columns is record i.  Append-only between clears.
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
        self._hot_pos: List[int] = []  # len(_hot) when the row was recorded
        #: Per-kind row indices: ``of_kind`` and the checkers that call
        #: it stop scanning the full stream.
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
        kinds that carry one (``module_added``, ``recover``, ...).  A
        firehose record goes to the hot log unless it has a detail, an
        event on a call kind or a method on a response kind.  The
        signature has no ``**kwargs``: CPython would build a dict per call.
        """
        if not self.enabled:
            return
        keep = self.keep
        if keep is not None and kind not in keep:
            return
        if kind not in STRUCTURAL_TRACE_KINDS and not detail:
            calls = kind is TraceKind.CALL or kind is TraceKind.CALL_DISPATCHED
            if (event if calls else method) is None:
                name = method if calls else event
                self._hot.extend((time, kind, stack_id, service, module, protocol, name, call_id))
                if self.subscribers:
                    self._publish_hot()
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
        self._hot_pos.append(len(self._hot))
        rows = self._kind_rows.get(kind)
        if rows is None:
            rows = self._kind_rows[kind] = []
        rows.append(row)
        if self.subscribers:
            record = self._row(row)
            for sub in self.subscribers:
                sub(record)

    def _publish_hot(self) -> None:
        """Hand the newest hot-log record to every subscriber."""
        record = self._hot_row(len(self._hot) - HOT_STRIDE)
        for sub in self.subscribers:
            sub(record)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def _row(self, i: int) -> TraceRecord:
        """Build column row *i* as a :class:`TraceRecord`.

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

    def _hot_row(self, at: int) -> TraceRecord:
        """Build the hot-log record that starts at offset *at*."""
        time, kind, stack_id, service, module, protocol, name, seq = self._hot[at:at + HOT_STRIDE]
        call_id = None if seq is None else f"{stack_id}:{seq}"
        if kind is TraceKind.CALL or kind is TraceKind.CALL_DISPATCHED:
            return TraceRecord(time, kind, stack_id, service, module, protocol, name, call_id)
        return TraceRecord(time, kind, stack_id, service, module, protocol, None, call_id, name)

    def _merge(self, rows: Iterable[int], offsets: Iterable[int]) -> List[TraceRecord]:
        """Build column *rows* and hot-log *offsets* (each ascending), in
        recording order: a row recorded when the log held ``p`` values
        sorts just before offset ``p``."""
        keyed = merge(((self._hot_pos[i] - 0.5, i, False) for i in rows),
                      ((o, o, True) for o in offsets))
        return [self._hot_row(j) if hot else self._row(j) for _, j, hot in keyed]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._times) + len(self._hot) // HOT_STRIDE

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.events)

    @property
    def events(self) -> List[TraceRecord]:
        """Every record, in recording order (a new list on each access)."""
        return self._merge(range(len(self._times)), range(0, len(self._hot), HOT_STRIDE))

    def of_kind(
        self, *kinds: TraceKind, protocol: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records whose kind is one of *kinds*, in recording order.

        When *protocol* is given, only records of that protocol.  Column
        rows come from the per-kind row index, and only a firehose kind
        scans the hot log; records are built only for the entries returned.
        """
        lists = [r for r in (self._kind_rows.get(k) for k in set(kinds)) if r]
        rows = lists[0] if len(lists) == 1 else sorted(i for r in lists for i in r)
        hot = self._hot
        offsets = [] if STRUCTURAL_TRACE_KINDS.issuperset(kinds) else [
            o for o in range(0, len(hot), HOT_STRIDE) if hot[o + 1] in kinds
        ]
        if protocol is not None:
            rows = [i for i in rows if self._protocols[i] == protocol]
            offsets = [o for o in offsets if hot[o + 5] == protocol]
        return self._merge(rows, offsets)

    def for_stack(self, stack_id: int) -> List[TraceRecord]:
        """Records of a single stack, in time order."""
        return [r for r in self.events if r.stack_id == stack_id]

    def for_service(self, service: str) -> List[TraceRecord]:
        """Records mentioning *service*, in time order."""
        return [r for r in self.events if r.service == service]

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
        hot_kinds = self._hot[1::HOT_STRIDE]
        counts = ((k, len(self._kind_rows.get(k, ())) + hot_kinds.count(k)) for k in TraceKind)
        return {kind.value: n for kind, n in counts if n}

    def clear(self) -> None:
        """Drop all recorded events."""
        self._hot.clear()
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
        self._hot_pos.clear()
        self._kind_rows.clear()


class _NullTraceRecorder(TraceRecorder):
    """The always-off sink behind :data:`NULL_TRACE`.

    One instance is shared by every ``Stack(trace=False)`` in the
    process, so it must stay inert: :attr:`enabled` is pinned ``False``
    (assigning ``True`` raises — enable tracing by passing ``trace=True``
    or a real recorder to the stack instead), and :meth:`wants` answers
    ``False`` so stacks cache all-off flags and never even read
    ``enabled`` on the hot path.
    """

    __slots__ = ()

    @property
    def enabled(self) -> bool:  # shadows the base slot
        """Always ``False``; assigning ``True`` raises."""
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        """Reject enabling; assigning ``False`` is an idempotent no-op."""
        if value:
            raise ValueError(
                "NULL_TRACE is the shared always-off sink; construct the "
                "stack with trace=True or a TraceRecorder to record events"
            )

    def wants(self, kind: TraceKind) -> bool:
        """Nothing is ever wanted by the null sink."""
        return False


#: Shared always-disabled sink: the null object behind ``Stack(trace=False)``
#: and standalone benchmark stacks.  Inert by construction (see
#: :class:`_NullTraceRecorder`), so sharing one instance across systems
#: is safe.
NULL_TRACE = _NullTraceRecorder(enabled=False)
