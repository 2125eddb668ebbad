"""The trace recorder shared by all stacks of a system.

One :class:`TraceRecorder` collects the :class:`~repro.kernel.events.TraceRecord`
stream of an entire distributed execution (all stacks interleaved in
global simulated-time order).  Property checkers and debugging tools then
query it; recording can be disabled wholesale for pure benchmarking runs
(:data:`NULL_TRACE` is the shared always-off sink), or filtered by kind
to bound memory — campaigns run with
:data:`~repro.kernel.events.STRUCTURAL_TRACE_KINDS` so the checkers keep
their teeth while the per-call firehose is never allocated.

Storage is **columnar**: recording appends plain scalars to ten parallel
column lists (plus a per-kind row index) instead of allocating a
:class:`TraceRecord` object per event.  Appending to a list of floats and
strings is a handful of ``list.append`` calls — no object header, no
slot initialisation, no per-record GC tracking — which matters because
structural tracing stays on during campaigns and sits directly on the
kernel's dispatch path.  Records are built at query time, and only for
the rows a query asks for: :meth:`TraceRecorder.of_kind` reads the
per-kind row index, so the property checkers never touch the per-call
firehose of a full trace.

The columns are kept on evidence (``benchmarks/e2e`` ``sim-fulltrace-log``,
three alternating pairs on a 2-vCPU host): one list of per-row tuples
was ~8 % slower (``pass_cost`` 4.44 → 4.79 ref, +2.4 MiB peak RSS) —
each retained tuple is a GC-tracked object, ~34 k per cell — and one
flat list extended by the ten fields per record was neutral (B/A 0.985,
inside the columnar runs' quartile spread).

Hot-path contract with :class:`~repro.kernel.stack.Stack`: the stack
caches per-kind "wants" flags (see :meth:`TraceRecorder.wants`) at
construction and re-checks only the cheap :attr:`enabled` attribute per
call.  The :attr:`keep` filter is fixed at construction; toggle
:attr:`enabled` freely.
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

from ..sim.clock import Time
from .events import TraceKind, TraceRecord

__all__ = ["TraceRecorder", "NULL_TRACE"]


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
