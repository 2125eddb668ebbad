"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock and the event queue.  Everything
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
  and in the entry's epoch, then count the task — :meth:`run` applies
  inline.  Every other path fires such an entry through
  ``NodeBackend._run_task``, which applies the same guard.
* Throughput: :meth:`run` dispatches heap entries inline — one heap
  inspection per event, no per-event method calls or handle round-trips —
  because campaign throughput is bounded by this loop.  The readable
  one-event-at-a-time path survives as :meth:`step`.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

from ..errors import ScheduleInPastError, SimulationError
from ..runtime.api import Scheduler
from .clock import Time
from .events import PRIORITY_NORMAL, EventHandle, EventQueue, entry_callback
from .random import RngRegistry

__all__ = ["Simulator"]


class Simulator(Scheduler):
    """A deterministic discrete-event simulator.

    ``Simulator`` is the native implementation of the
    :class:`~repro.runtime.api.Scheduler` contract (the runtime seam);
    :class:`~repro.runtime.realtime.RealtimeScheduler` is its
    wall-clock twin.  The base class holds no state (``__slots__ =
    ()``) and contributes only the ``schedule`` / ``call_soon``
    conveniences over :meth:`schedule_at`, so nothing changes on the
    dispatch hot path.

    Parameters
    ----------
    seed:
        Root seed for every random stream of the run.
    trace_hook:
        Optional callable invoked as ``trace_hook(time, handle)`` just
        before each event fires; used by debugging tools.  Fire-and-forget
        events surface as transient handles.

    Examples
    --------
    >>> sim = Simulator(seed=7)
    >>> fired = []
    >>> sim.schedule(0.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (0.5, ['hello'])
    """

    __slots__ = (
        "_queue",
        "_heap",
        "_seq",
        "_now",
        "_running",
        "_stopped",
        "rng",
        "trace_hook",
        "_events_processed",
        "at_end",
    )

    def __init__(
        self,
        seed: int = 0,
        trace_hook: Optional[Callable[[Time, EventHandle], None]] = None,
    ) -> None:
        self._queue = EventQueue()
        # Cached queue internals for the fire-and-forget push (the queue
        # never replaces its heap list or counter, so the aliases stay
        # valid for the simulator's lifetime).
        self._heap = self._queue._heap
        self._seq = self._queue._counter
        self._now: Time = 0.0
        self._running = False
        self._stopped = False
        self.rng = RngRegistry(seed=seed)
        self.trace_hook = trace_hook
        self._events_processed = 0
        #: Callbacks invoked (in registration order) when :meth:`run` returns.
        self.at_end: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> Time:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (for budget checks)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled."""
        return len(self._queue)

    def peek_time(self) -> Optional[Time]:
        """Instant of the earliest scheduled event, or ``None`` when empty.

        One heap-top read; cancelled-but-unpopped entries still count
        (callers use this as a conservative "is anything pending at the
        current instant" probe — e.g. the kernel's batched blocked-call
        drain, which falls back to one-task-per-call whenever an
        equal-time event exists).
        """
        heap = self._heap
        return heap[0][0] if heap else None

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
        if cancellable:
            return self._queue.push(time, callback, args, priority)
        # NOTE: Machine.execute pushes its own 7-field CPU-task entry
        # straight onto this heap, with the same (time, priority, seq)
        # key drawn from the same counter — keep the two in sync if the
        # heap entry layout ever changes.
        _heappush(self._heap, (time, priority, next(self._seq), callback, args))
        return None

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (no-op if it already fired)."""
        if not isinstance(handle, EventHandle):
            raise SimulationError(
                f"cancel() needs a handle from schedule_at(..., cancellable=True), "
                f"got {handle!r}"
            )
        self._queue.cancel(handle)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next event.  Returns ``False`` when the queue is empty."""
        if not self._queue:
            return False
        handle = self._queue.pop()
        if handle.time < self._now:  # pragma: no cover - defensive
            raise SimulationError(
                f"event queue returned past event: {handle.time} < {self._now}"
            )
        self._now = handle.time
        callback, args = handle.callback, handle.args
        # Release the handle's references before invoking, so callbacks that
        # reschedule themselves do not accumulate chains of dead handles.
        handle.callback, handle.args = None, ()
        self._events_processed += 1
        if self.trace_hook is not None:
            self.trace_hook(self._now, handle)
        assert callback is not None
        callback(*args)
        return True

    def run(
        self,
        until: Optional[Time] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue empties, *until* is reached, or *max_events* fire.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire,
        and the clock is advanced to ``until`` even if the queue empties
        earlier (so probes see the full window).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        horizon = float("inf") if until is None else until
        budget = -1 if max_events is None else max_events
        # The dispatch loop reaches into the queue's internals: one heap
        # inspection per event instead of peek_time() + pop(), no handle
        # allocation for fire-and-forget entries.  The queue and the
        # engine are one subsystem; everything outside sim/ uses the
        # public API.
        queue = self._queue
        heap = queue._heap
        heappop = _heappop
        trace = self.trace_hook  # a hook installed mid-run applies next run()
        try:
            if trace is None and budget < 0:
                # Common case (no tracing, no event budget): the tightest
                # loop — pop, classify, dispatch.  The event counter is
                # written through from a local (store-only, no load), so
                # callbacks and probes still read a live count mid-run;
                # the empty heap surfaces as IndexError rather than a
                # per-event truthiness check.
                fired = self._events_processed
                while not self._stopped:
                    try:
                        entry = heappop(heap)
                    except IndexError:
                        break
                    time = entry[0]
                    if time > horizon:
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
                            queue._cancelled -= 1
                            continue
                        callback, args = handle.callback, handle.args
                        handle.callback, handle.args = None, ()
                    else:
                        callback, args = entry[3], entry[4]
                    self._now = time
                    fired += 1
                    self._events_processed = fired
                    callback(*args)
            else:
                while heap and not self._stopped:
                    # Pop-first: one C heap operation per event.  On the
                    # rare horizon/budget overshoot the entry is pushed
                    # back (it is the heap minimum, so reinsertion is
                    # cheap and exact).
                    entry = heappop(heap)
                    if len(entry) == 4:
                        handle = entry[3]
                        if handle.cancelled:
                            queue._cancelled -= 1
                            continue
                        callback, args = handle.callback, handle.args
                    else:
                        handle = None
                        callback, args = entry_callback(entry)
                    time = entry[0]
                    if time > horizon:
                        _heappush(heap, entry)
                        break
                    if budget == 0:
                        _heappush(heap, entry)
                        raise SimulationError(
                            f"max_events={max_events} exhausted at t={self._now}"
                        )
                    budget -= 1
                    self._now = time
                    self._events_processed += 1
                    if handle is not None:
                        handle.callback, handle.args = None, ()
                        if trace is not None:
                            trace(time, handle)
                    elif trace is not None:
                        trace(time, EventHandle(time, entry[1], entry[2], callback, args))
                    callback(*args)
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        for hook in self.at_end:
            hook()

    def stop(self) -> None:
        """Request :meth:`run` to return after the current event."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f} pending={len(self._queue)} "
            f"fired={self._events_processed}>"
        )
