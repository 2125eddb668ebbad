"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock and the event heap.  Everything
else in the library — network links, protocol modules, load generators,
probes — advances exclusively by scheduling callbacks on the simulator, so
a whole distributed execution is one deterministic, single-threaded event
loop.  This mirrors how the paper's testbed is *modelled* rather than
*timed*: instead of seven Pentium III machines we have seven
:class:`~repro.sim.process.Machine` objects whose CPU costs and network
delays are explicit, seeded random variables.

Design notes
------------
* Determinism: events at equal ``(time, priority)`` fire in scheduling
  order (see :mod:`repro.sim.events`), and all randomness flows through
  :class:`~repro.sim.random.RngRegistry`.  Two runs with the same seed are
  identical, which property-based tests exploit.
* Error transparency: exceptions raised inside callbacks abort the run and
  propagate to the caller; a simulation that swallows errors hides bugs.
* The engine knows nothing about networks or protocols — those live in
  higher layers and only use :meth:`Simulator.schedule_at` (with the
  inherited ``schedule`` / ``call_soon`` conveniences) and
  :meth:`Simulator.cancel`.  It knows one thing about machines: the
  incarnation-scoped CPU-task entry that
  :meth:`~repro.sim.process.Machine.execute` pushes (see
  :mod:`repro.sim.events`), whose guard — fire only while the node is up
  and in the entry's epoch, then count the task — is
  ``NodeBackend._run_task``'s, applied inline.
* One dispatch path: :meth:`run` is the only loop that fires events.  It
  dispatches heap entries inline — one heap pop per event, no per-event
  method calls or handle round-trips — because campaign throughput is
  bounded by this loop.
"""

from __future__ import annotations

import itertools
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

from ..errors import ScheduleInPastError, SimulationError
from ..runtime.api import Scheduler
from .clock import Time
from .events import PRIORITY_NORMAL, EventHandle
from .random import RngRegistry

__all__ = ["Simulator"]


class Simulator(Scheduler):
    """A deterministic discrete-event simulator.

    ``Simulator`` is the native implementation of the
    :class:`~repro.runtime.api.Scheduler` contract (the runtime seam:
    ``now``, ``schedule_at``, ``cancel``, ``events_processed``, ``rng``);
    :class:`~repro.runtime.realtime.RealtimeScheduler` is its
    wall-clock twin.  The base class holds no state (``__slots__ =
    ()``) and contributes only the ``schedule`` / ``call_soon``
    conveniences over :meth:`schedule_at`, so nothing changes on the
    dispatch hot path.

    Parameters
    ----------
    seed:
        Root seed for every random stream of the run.

    Examples
    --------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> sim.schedule(0.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (0.5, ['hello'])
    """

    __slots__ = ("_heap", "_seq", "_cancelled", "_now", "_running", "rng", "_events_processed")

    def __init__(self, seed: int = 0) -> None:
        # Machine.execute pushes onto _heap with keys drawn from _seq.
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        # Cancelled entries still sitting in the heap: the pending count
        # is derived from it, so pushes and pops keep no bookkeeping.
        self._cancelled = 0
        self._now: Time = 0.0
        self._running = False
        self.rng = RngRegistry(seed=seed)
        self._events_processed = 0

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> Time:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return len(self._heap) - self._cancelled

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule_at(
        self,
        time: Time,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        cancellable: bool = False,
    ) -> Optional[EventHandle]:
        """Schedule ``callback(*args)`` at absolute instant *time*.

        The ~90% of events that are never cancelled (network deliveries,
        CPU completions, one-shot ticks) push a bare heap entry and
        return ``None``; *cancellable* allocates an
        :class:`~repro.sim.events.EventHandle` for :meth:`cancel`.
        Ordering is identical either way.
        """
        if not time >= self._now:  # NaN fails too
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}; current time is {self._now!r}"
            )
        # NOTE: Machine.execute pushes its own 7-field CPU-task entry
        # straight onto this heap, with the same (time, priority, seq)
        # key drawn from the same counter — keep the two in sync if the
        # heap entry layout ever changes.
        if cancellable:
            handle = EventHandle(callback, args)
            _heappush(self._heap, (time, priority, next(self._seq), handle))
            return handle
        _heappush(self._heap, (time, priority, next(self._seq), callback, args))
        return None

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (no-op if it already fired or was cancelled)."""
        if not isinstance(handle, EventHandle):
            raise SimulationError(
                f"cancel() needs a handle from schedule_at(..., cancellable=True), "
                f"got {handle!r}"
            )
        if handle.callback is None:  # fired, or already cancelled
            return
        handle.cancelled = True
        handle.callback, handle.args = None, ()  # break reference cycles early
        self._cancelled += 1

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[Time] = None) -> None:
        """Run until the heap empties or *until* is reached.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire,
        and the clock is advanced to ``until`` even if the heap empties
        earlier (so probes see the full window).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        horizon = float("inf") if until is None else until
        heap = self._heap
        heappop = _heappop
        # The event counter is written through from a local (store-only,
        # no load), so callbacks and probes still read a live count
        # mid-run; the empty heap surfaces as IndexError rather than a
        # per-event truthiness check.
        fired = self._events_processed
        try:
            while True:
                try:
                    entry = heappop(heap)
                except IndexError:
                    break
                time = entry[0]
                if time > horizon:
                    # The heap minimum: pushing it back is cheap and exact.
                    _heappush(heap, entry)
                    break
                if len(entry) == 7:
                    # A CPU task: NodeBackend._run_task's incarnation
                    # guard, inlined (a dropped task still counts).
                    self._now = time
                    fired += 1
                    self._events_processed = fired
                    node = entry[5]
                    if node._crashed_at is None and entry[6] == node._epoch:
                        node._tasks_executed += 1
                        entry[3](*entry[4])
                    continue
                if len(entry) == 4:
                    handle = entry[3]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    callback, args = handle.callback, handle.args
                    # Released before the call, so a late cancel is a
                    # no-op and self-rescheduling callbacks do not chain
                    # dead references.
                    handle.callback, handle.args = None, ()
                else:
                    callback, args = entry[3], entry[4]
                self._now = time
                fired += 1
                self._events_processed = fired
                callback(*args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f} pending={self.pending_events} "
            f"fired={self._events_processed}>"
        )
