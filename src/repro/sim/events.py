"""Event queue for the discrete-event engine.

The queue is a binary heap whose entries are plain tuples, keyed by
``(time, priority, seq)``:

* ``time`` — the simulated instant the event fires;
* ``priority`` — ties at the same instant are broken by priority
  (lower fires first), letting infrastructure events (e.g. crash
  processing) pre-empt ordinary protocol events deterministically;
* ``seq`` — a monotonically increasing sequence number, so events
  scheduled earlier fire earlier among equals.  This makes every run
  with the same seed **bit-for-bit deterministic**, which the property
  tests rely on to shrink counterexamples.

Three kinds of heap entry coexist:

* **cancellable** — ``(time, priority, seq, handle)`` where *handle* is a
  slotted :class:`EventHandle` the caller can :meth:`~EventQueue.cancel`,
  pushed by :meth:`EventQueue.push`;
* **fire-and-forget** — ``(time, priority, seq, callback, args)``, pushed
  straight onto the heap by :meth:`Simulator.schedule_at
  <repro.sim.engine.Simulator.schedule_at>` with no handle allocation at
  all.  Most events that are not CPU tasks (network deliveries, one-shot
  ticks) are never cancelled and take this shape;
* **CPU task** — ``(time, priority, seq, fn, args, node, epoch)``, pushed
  by :meth:`Machine.execute <repro.sim.process.Machine.execute>`: an
  incarnation-scoped entry that fires ``fn(*args)`` only while *node* is
  up and still in incarnation *epoch*.  :meth:`Simulator.run
  <repro.sim.engine.Simulator.run>` applies that guard inline; every
  other reader sees the entry as the equivalent fire-and-forget call
  ``node._run_task(epoch, fn, args)`` (:func:`entry_callback`).  Kernel
  calls and responses land here, so this is the engine's hot path.

Because ``seq`` is unique, tuple comparison always terminates within the
first three elements and the three entry shapes mix freely in one heap.
Cancellation is *lazy*: :meth:`EventQueue.cancel` marks the handle and the
heap drops cancelled entries when they surface, which keeps both schedule
and cancel O(log n) amortised.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from .clock import Time

__all__ = [
    "EventHandle", "EventQueue", "entry_callback",
    "PRIORITY_CONTROL", "PRIORITY_NORMAL", "PRIORITY_LATE",
]

#: Fires before ordinary events at the same instant (crashes, engine control).
PRIORITY_CONTROL = 0
#: Default priority for protocol and timer events.
PRIORITY_NORMAL = 10
#: Fires after ordinary events at the same instant (probes, sampling).
PRIORITY_LATE = 20


def entry_callback(entry: tuple) -> tuple:
    """``(callback, args)`` of a handle-less heap entry.

    A fire-and-forget entry names its call directly; a CPU task is the
    call ``node._run_task(epoch, fn, args)``, which applies the same
    incarnation guard as :meth:`Simulator.run
    <repro.sim.engine.Simulator.run>`'s inline dispatch.
    """
    if len(entry) == 5:
        return entry[3], entry[4]
    return entry[5]._run_task, (entry[6], entry[3], entry[4])


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "fired")

    def __init__(
        self,
        time: Time,
        priority: int,
        seq: int,
        callback: Optional[Callable[..., Any]],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self.cancelled = True
        self.callback = None  # break reference cycles early
        self.args = ()

    @property
    def active(self) -> bool:
        """``True`` while the event is still going to fire."""
        return not self.cancelled

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<EventHandle t={self.time:.6f} prio={self.priority} seq={self.seq} {state}>"


class EventQueue:
    """A deterministic priority queue of scheduled events.

    The active count is derived (``len(heap) - pending cancellations``)
    rather than maintained per push/pop, which keeps the hot paths free
    of bookkeeping: pushes are a bare ``heappush`` and only
    :meth:`cancel` — the rare operation — touches a counter.
    """

    __slots__ = ("_heap", "_counter", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._counter = itertools.count()
        self._cancelled = 0  # cancelled entries still sitting in the heap

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled

    def push(
        self,
        time: Time,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule *callback(*args)* at instant *time* and return its handle."""
        handle = EventHandle(time, priority, next(self._counter), callback, args)
        heapq.heappush(self._heap, (time, priority, handle.seq, handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel *handle*; a no-op if it already fired or was cancelled.

        A fired handle is recognised by its ``fired`` flag (set by
        :meth:`pop`) or its released callback (nulled by the engine's
        dispatch loops), so a late cancel never corrupts the active count.
        """
        if handle.cancelled or handle.fired or handle.callback is None:
            return
        handle.cancel()
        self._cancelled += 1

    def pop(self) -> EventHandle:
        """Remove and return the next active event.

        Fire-and-forget and CPU-task entries are materialised into a
        transient :class:`EventHandle` (see :func:`entry_callback`) for
        the caller's convenience — :meth:`pop` is the compatibility path;
        :meth:`Simulator.run` dispatches entries without it.

        Raises :class:`IndexError` when the queue holds no active event.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) != 4:
                handle = EventHandle(entry[0], entry[1], entry[2], *entry_callback(entry))
                handle.fired = True  # already out of the heap: cancel is a no-op
                return handle
            handle = entry[3]
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle.fired = True
            return handle
        raise IndexError("pop from an empty EventQueue")

    def peek_time(self) -> Optional[Time]:
        """Return the instant of the next active event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 4 and entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            if len(entry) == 4:
                entry[3].cancel()
        self._heap.clear()
        self._cancelled = 0
