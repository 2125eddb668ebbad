"""Machines: the simulated hosts that run protocol stacks.

A :class:`Machine` models one node of the paper's cluster.  It has

* a **serial CPU**: work submitted via :meth:`execute` runs one item at a
  time, each item occupying the CPU for its declared cost.  Under load the
  completion times form an M/G/1-style queue, which is what produces the
  latency-versus-load curves of the paper's Figure 6 — protocol code never
  sleeps, it *costs*;
* **timers** (:meth:`set_timer`) that silently die when the machine
  crashes;
* **crash-stop failures** (:meth:`crash`): once crashed, no queued work,
  timer, or delivery on this machine ever fires again.  The paper's system
  model is crash-stop (no recovery), and so is the default here;
* **opt-in recovery** (:meth:`recover`) for the fault-injection scenario
  engine: a recovered machine starts a new *incarnation* — everything
  scheduled before the crash (CPU tasks, timers) is permanently dead, the
  CPU queue is empty, but module state survives (it is a simulation; the
  machine behaves like a node that paused and lost its in-flight work).
  The :attr:`on_recover` hooks are the **restart protocol's** entry
  point: the kernel registers one per stack and uses it to re-arm every
  module's timer wheel in the new incarnation epoch (see
  :meth:`repro.kernel.stack.Stack.restart`).  Property checkers treat an
  ever-crashed machine as crashed until it *re-joins* the group, at
  which point the scenario engine narrows the exemption back (see
  ``check_recovery_liveness``).

The machine deliberately knows nothing about protocol stacks; the kernel
layer attaches a stack to a machine, not the other way round.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from heapq import heappush as _heappush

from ..errors import SimulationError
from ..runtime.api import NodeBackend
from .clock import Duration, Time
from .engine import Simulator
from .events import PRIORITY_CONTROL, PRIORITY_NORMAL

__all__ = ["Machine"]


class Machine(NodeBackend):
    """One simulated host with a serial CPU and crash-stop semantics.

    ``Machine`` is the simulation's implementation of the
    :class:`~repro.runtime.api.NodeBackend` contract (the runtime seam):
    the crash/recover state machine and the epoch-guarded timers are the
    base class's, the serial CPU below (its drain instant
    ``_busy_until``) is what the simulation adds.
    :class:`~repro.runtime.realtime.RealtimeNode` is its wall-clock
    twin.

    Parameters
    ----------
    sim:
        The simulator this machine lives in.
    machine_id:
        Rank of the machine, ``0 .. n-1``; doubles as the network address.
    name:
        Human-readable name (defaults to ``"m<id>"``).
    """

    __slots__ = ("_busy_until", "_cpu_busy_total")

    sim: Simulator

    def __init__(self, sim: Simulator, machine_id: int, name: Optional[str] = None) -> None:
        super().__init__(sim, machine_id, name)
        self._busy_until: Time = 0.0
        self._cpu_busy_total: Duration = 0.0
        # First recovery hook, so the CPU is idle before the restart
        # hooks (registered later, by the kernel) submit work.
        self.on_recover.append(self._idle_cpu)

    def _idle_cpu(self, now: Time) -> None:
        """Recovery hook: the dead incarnation's CPU queue is gone."""
        self._busy_until = now

    def crash_at(self, time: Time) -> None:
        """Schedule a crash at absolute instant *time* (for fault injection)."""
        self.sim.schedule_at(time, self.crash, priority=PRIORITY_CONTROL)

    def recover_at(self, time: Time) -> None:
        """Schedule a recovery at absolute instant *time*."""
        self.sim.schedule_at(time, self.recover, priority=PRIORITY_CONTROL)

    # ------------------------------------------------------------------ #
    # CPU
    # ------------------------------------------------------------------ #
    @property
    def cpu_backlog(self) -> Duration:
        """Seconds of queued-but-unfinished CPU work (0 when idle)."""
        return max(0.0, self._busy_until - self.sim.now)

    @property
    def cpu_busy_total(self) -> Duration:
        """Total CPU seconds consumed since the start of the run."""
        return self._cpu_busy_total

    def execute(self, cost: Duration, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Run ``fn(*args)`` after the CPU has spent *cost* seconds on it.

        The task starts when the CPU becomes free, so its completion time
        is ``max(now, busy_until) + cost``.  When the machine is already
        crashed the work is silently dropped — a crashed machine does
        nothing.  Completions are CPU-task heap entries ``(completion,
        priority, seq, fn, args, self, epoch)`` pushed straight onto the
        simulator's heap (see :mod:`repro.sim.events`): a crash suppresses
        them through the incarnation-epoch guard, which the simulator's
        dispatch loop applies inline, not through cancellation.  The
        kernel's call/response dispatch lands here once per service call.
        """
        if not cost >= 0:  # NaN fails too
            raise SimulationError(f"negative CPU cost {cost!r}")
        if self._crashed_at is not None:
            return
        sim = self.sim
        start = sim._now
        busy = self._busy_until
        if busy > start:
            start = busy
        completion = start + cost
        self._busy_until = completion
        self._cpu_busy_total += cost
        _heappush(
            sim._heap,
            (completion, PRIORITY_NORMAL, next(sim._seq), fn, args, self, self._epoch),
        )
