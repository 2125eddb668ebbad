"""Heap entries and cancel handles of the discrete-event engine.

:class:`~repro.sim.engine.Simulator` keeps its pending events in one
binary heap whose entries are plain tuples, keyed by
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
  slotted :class:`EventHandle` the caller can pass to
  :meth:`Simulator.cancel <repro.sim.engine.Simulator.cancel>`;
* **fire-and-forget** — ``(time, priority, seq, callback, args)``, with
  no handle allocation at all.  Most events that are not CPU tasks
  (network deliveries, one-shot ticks) are never cancelled and take
  this shape;
* **CPU task** — ``(time, priority, seq, fn, args, node, epoch)``, pushed
  by :meth:`Machine.execute <repro.sim.process.Machine.execute>`: an
  incarnation-scoped entry that fires ``fn(*args)`` only while *node* is
  up and still in incarnation *epoch* — the guard of
  ``NodeBackend._run_task``, which :meth:`Simulator.run
  <repro.sim.engine.Simulator.run>` applies inline.  Kernel calls and
  responses land here, so this is the engine's hot path.

Because ``seq`` is unique, tuple comparison always terminates within the
first three elements and the three entry shapes mix freely in one heap.
Cancellation is *lazy*: cancelling marks the handle, and the run loop
drops a cancelled entry when it surfaces, which keeps both schedule and
cancel O(log n) amortised.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["EventHandle", "PRIORITY_CONTROL", "PRIORITY_NORMAL", "PRIORITY_LATE"]

#: Fires before ordinary events at the same instant (crashes, engine control).
PRIORITY_CONTROL = 0
#: Default priority for protocol and timer events.
PRIORITY_NORMAL = 10
#: Fires after ordinary events at the same instant (probes, sampling).
PRIORITY_LATE = 20


class EventHandle:
    """The cancel token of a scheduled event.

    ``callback`` is ``None`` once the event fired or was cancelled, so a
    late cancel is recognisably a no-op.
    """

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback: Optional[Callable[..., Any]], args: tuple = ()) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "fired" if self.callback is None else "active"
        return f"<EventHandle {state}>"
