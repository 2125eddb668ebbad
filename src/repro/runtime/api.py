"""The runtime seam: the surface modules may touch, as explicit ABCs.

Protocol modules historically reached time, timers and datagram I/O
*concretely* — through :class:`~repro.sim.engine.Simulator`,
:class:`~repro.sim.process.Machine` and
:class:`~repro.net.network.SimNetwork`.  That worked, but it welded the
whole stack to the discrete-event world: the paper's claim is about a
*running system*, and a runnable system needs the same modules on real
sockets and wall-clock timers.

This module names the seam, with one spelling per operation.  Three
narrow contracts cover everything a module (or the kernel on its
behalf) actually uses:

* :class:`Scheduler` — ``now``, one scheduling primitive
  (``schedule_at``) with the ``schedule`` / ``call_soon`` conveniences
  on top, ``cancel``, ``peek_time``, seeded rng streams.  Implemented
  by :class:`~repro.sim.engine.Simulator` and by
  :class:`~repro.runtime.realtime.RealtimeScheduler` (asyncio
  wall-clock timers).
* :class:`NodeBackend` — the per-node surface: epoch-guarded timers
  (``set_timer``), CPU execution (``execute``), crash/recover state and
  hooks.  The incarnation state machine is implemented here;
  :class:`~repro.sim.process.Machine` adds the serial CPU and
  :class:`~repro.runtime.realtime.RealtimeNode` a run queue per node.
* :class:`Transport` — datagram I/O between nodes: ``attach`` /
  ``detach`` delivery hooks (implemented on the base), ``send`` /
  ``send_local``, counters.  Implemented by
  :class:`~repro.net.network.SimNetwork` and
  :class:`~repro.runtime.realtime.RealtimeUdpTransport`, which consult
  one :class:`~repro.net.links.LinkPolicy` each for every fault decision.

:class:`Backend` bundles the three, one kernel stack per node, the
shared registry and trace into one bootable cluster runtime: the one
surface every harness reads a built run through.
:class:`~repro.runtime.sim_backend.SimBackend` and
:class:`~repro.runtime.realtime.RealtimeBackend` are the two
implementations (the deterministic twin and the deployable one).  Each
carries a :class:`Calibration` — the CPU costs, LAN bandwidth, failure
detector timing and load start the stack set is built with — so a
scenario spec says *what* runs and the backend says at what speed.

Design constraints
------------------
* Every ABC is slotted and import-cycle-free (nothing from ``sim``,
  ``net`` or ``kernel`` outside ``TYPE_CHECKING``), so the hot
  simulation classes inherit them without growing a ``__dict__`` or
  paying any per-call cost.
* The kernel's dispatch fast path reads two node internals directly
  (``_crashed_at`` and ``_busy_until``); they are part of this contract
  (see :class:`NodeBackend`), not private details of ``Machine``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from ..errors import NetworkError, ScheduleInPastError, UnknownDestinationError

if TYPE_CHECKING:
    from ..kernel.registry import ProtocolRegistry
    from ..kernel.stack import Stack
    from ..kernel.trace import TraceRecorder

__all__ = [
    "Scheduler", "NodeBackend", "Transport", "Backend",
    "Calibration", "SIM_CALIBRATION", "REALTIME_CALIBRATION",
]


@dataclass(frozen=True)
class Calibration:
    """How fast a backend runs the stack set: everything a build needs
    that a scenario spec does not say.  All durations in seconds.

    There are exactly two values, one per backend.
    :data:`SIM_CALIBRATION` is calibrated to the paper's era (766 MHz
    Pentium III running a Java protocol framework) on its 100 Mb/s
    switched LAN: one kernel dispatch ~30 µs, one datagram receive
    ~120 µs.  Those costs put the n=7 saturation knee in the
    few-hundred-msgs/s range, like the paper's Figure 6.  The paper's
    absolute numbers are not reproducible (different hardware); the
    *shapes* the figure benchmarks (``benchmarks/bench_figure5.py``,
    ``bench_figure6.py``) reproduce come from exactly these values.
    :data:`REALTIME_CALIBRATION` is the wall-clock variant.
    """

    call_cost: float        # CPU time of one kernel call dispatch
    response_cost: float    # ... and of one response dispatch
    udp_recv_cost: float    # CPU time of one datagram receive
    udp_send_cost: float    # ... and of one datagram send
    bandwidth_bps: float    # per-NIC transmit bandwidth of the simulated LAN
    fd_period: float        # failure-detector heartbeat period
    fd_timeout: float       # ... and suspicion timeout
    token_idle_hold: float  # how long an idle token-ABcast holder keeps the token
    load_start: float       # client load start; stack i starts i / rate later


# Spelled as ``sim.clock``'s ``us()`` / ``ms()`` compute them (this
# module imports nothing from ``sim``), so the floats are the same.
#: The simulated backend's calibration (see :class:`Calibration`).
SIM_CALIBRATION = Calibration(
    call_cost=30.0 * 1e-6,
    response_cost=30.0 * 1e-6,
    udp_recv_cost=120.0 * 1e-6,
    udp_send_cost=60.0 * 1e-6,
    bandwidth_bps=100e6,
    fd_period=50.0 * 1e-3,
    fd_timeout=200.0 * 1e-3,
    token_idle_hold=1.0 * 1e-3,
    load_start=0.0,
)

#: The realtime backend's calibration: the simulated one, except that
#: client load starts at 0.1 s, once every socket is bound and every
#: module started, and the failure detector is ~10x coarser, because
#: scheduling jitter on a loaded CI box would otherwise produce false
#: suspicions.  The CPU costs and bandwidth are ignored on real time.
REALTIME_CALIBRATION = replace(SIM_CALIBRATION, load_start=0.1, fd_period=0.25, fd_timeout=2.0)


class Scheduler(ABC):
    """Time and timers: the engine-level half of the runtime seam.

    One abstract scheduling primitive — :meth:`schedule_at` — plus two
    concrete conveniences built on it (:meth:`schedule`,
    :meth:`call_soon`).  Implementations must also expose ``rng``, a
    :class:`~repro.sim.random.RngRegistry`; modules draw named, seeded
    streams from it (``sim.rng.stream("workload.3")``).

    Equal-deadline ordering must be FIFO in scheduling order — the
    determinism contract protocol code relies on (both the simulator's
    sequence counter and asyncio's ``call_later`` guarantee it).
    """

    __slots__ = ()

    @property
    @abstractmethod
    def now(self) -> float:
        """Current runtime time in seconds (simulated or wall-clock)."""

    @property
    @abstractmethod
    def events_processed(self) -> int:
        """Total callbacks fired so far (soak and benchmark metrics)."""

    @abstractmethod
    def schedule_at(self, time: float, callback: Callable[..., Any], args: tuple = (),
                    priority: int = 0, cancellable: bool = False) -> Optional[Any]:
        """Fire ``callback(*args)`` at absolute instant *time*.

        *priority* breaks ties at one instant (lower fires first; wall-
        clock backends ignore it).  Returns ``None`` unless *cancellable*,
        in which case the result is a handle for :meth:`cancel` — most
        events are never cancelled, so only the caller that will cancel
        pays for a handle.
        """

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire ``callback(*args)`` after *delay* seconds."""
        if not delay >= 0:  # NaN fails too
            raise ScheduleInPastError(f"negative delay {delay!r}")
        self.schedule_at(self.now + delay, callback, args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        """Fire ``callback(*args)`` as soon as possible, after anything
        already queued for the current instant."""
        self.schedule_at(self.now, callback, args)

    @abstractmethod
    def cancel(self, handle: Any) -> None:
        """Cancel a handle from ``schedule_at(..., cancellable=True)``
        (no-op once it fired).  Anything that is not such a handle —
        ``None`` included — raises :class:`~repro.errors.SimulationError`."""

    @abstractmethod
    def peek_time(self) -> Optional[float]:
        """Deadline of the earliest pending event, or ``None`` when that
        is unknowable (real time) or nothing is pending.

        The kernel uses this as a conservative "is anything pending at
        the current instant" probe; returning ``None`` is always safe.
        """


class NodeBackend(ABC):
    """One node's runtime surface: timers, execution, crash state.

    The incarnation state machine — crash/recover, the epoch that guards
    timers and executed work across them, the hook lists — lives here,
    once; a backend adds only how work reaches its CPU (:meth:`execute`).

    Attributes
    ----------
    sim:
        The node's :class:`Scheduler`.
    machine_id / name:
        Rank (doubles as the transport address) and human-readable name
        (defaults to ``"m<id>"``).
    on_crash / on_recover:
        Hook lists invoked with the crash/recovery instant (the kernel's
        restart protocol hangs off ``on_recover``).
    _crashed_at / _busy_until:
        The two internals the kernel dispatch fast path (and, for the
        crash instant, both transports' per-datagram path) reads directly:
        crash instant (``None`` while up) and the CPU-drain instant (any
        value ``<= sim.now`` means idle; backends without a modelled CPU
        never move it past ``sim.now``).

    Timers and executed work are **epoch-guarded**: work scheduled
    before a crash never fires in a later incarnation.
    """

    __slots__ = (
        "sim",
        "machine_id",
        "name",
        "_crashed_at",
        "_busy_until",
        "_tasks_executed",
        "_epoch",
        "_crash_count",
        "_recovered_at",
        "on_crash",
        "on_recover",
    )

    def __init__(self, sim: Scheduler, machine_id: int, name: Optional[str] = None) -> None:
        self.sim = sim
        self.machine_id = int(machine_id)
        self.name = name if name is not None else f"m{machine_id}"
        self._crashed_at: Optional[float] = None
        self._busy_until: float = 0.0
        self._tasks_executed = 0
        self._epoch = 0
        self._crash_count = 0
        self._recovered_at: Optional[float] = None
        self.on_crash: List[Callable[[float], None]] = []
        self.on_recover: List[Callable[[float], None]] = []

    # ------------------------------------------------------------------ #
    # Failure model
    # ------------------------------------------------------------------ #
    @property
    def crashed(self) -> bool:
        """Whether the node is currently down."""
        return self._crashed_at is not None

    @property
    def crashed_at(self) -> Optional[float]:
        """The crash instant, or ``None`` while the node is up."""
        return self._crashed_at

    @property
    def crash_count(self) -> int:
        """How many times the node has crashed so far."""
        return self._crash_count

    @property
    def ever_crashed(self) -> bool:
        """Whether the node has crashed at least once (even if back up);
        the conservative notion the property checkers quantify over."""
        return self._crash_count > 0

    @property
    def epoch(self) -> int:
        """Current incarnation epoch (increments at every crash).

        Work scheduled under an older epoch never fires; protocol
        payloads that must outlive in-flight traffic from a dead
        incarnation (heartbeats, re-join handshakes) carry this value.
        """
        return self._epoch

    @property
    def last_recovered_at(self) -> Optional[float]:
        """Instant of the most recent recovery (``None`` if never)."""
        return self._recovered_at

    def crash(self) -> None:
        """Take the node down now (idempotent).

        Queued work, pending timers and in-flight deliveries targeting
        this node are suppressed: their wrappers check the crash state
        and the incarnation epoch when they fire.
        """
        if self._crashed_at is not None:
            return
        now = self.sim.now
        self._crashed_at = now
        self._crash_count += 1
        self._epoch += 1
        for hook in list(self.on_crash):
            hook(now)

    def recover(self) -> None:
        """Bring a crashed node back up as a new incarnation (no-op
        while up).

        The new incarnation starts with an idle CPU; every task and
        timer scheduled before the crash stays dead (previous epoch),
        but module state survives.  The ``on_recover`` hooks then run
        the restart protocol (the kernel re-arms each module's timers
        in the new epoch).
        """
        if self._crashed_at is None:
            return
        now = self.sim.now
        self._crashed_at = None
        self._busy_until = now
        self._recovered_at = now
        for hook in list(self.on_recover):
            hook(now)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @property
    def busy_until(self) -> float:
        """Instant at which the CPU drains everything currently queued
        (``sim.now`` when idle — always, without a modelled CPU)."""
        return max(self._busy_until, self.sim.now)

    @property
    def tasks_executed(self) -> int:
        """Number of executed work items completed so far."""
        return self._tasks_executed

    @abstractmethod
    def execute(self, cost: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Run ``fn(*args)`` after the node's CPU spent *cost* seconds
        on it, under the current epoch and the guard of :meth:`_run_task`.

        Backends without a modelled CPU may ignore *cost* but must still
        defer the invocation — callers rely on not being re-entered
        synchronously.  A negative or NaN *cost* raises
        :class:`~repro.errors.SimulationError`; on a crashed node the
        work is silently dropped.
        """

    def _run_task(self, epoch: int, fn: Callable[..., Any], args: tuple) -> None:
        """The incarnation guard of executed work: run ``fn(*args)``
        only while the node is up and still in *epoch*, counting it.

        The realtime run queue calls this per task.  The simulator's one
        dispatch loop, :meth:`~repro.sim.engine.Simulator.run`, applies
        the same guard inline to a :class:`~repro.sim.process.Machine`'s
        CPU-task heap entries.
        """
        if self._crashed_at is not None or epoch != self._epoch:
            return
        self._tasks_executed += 1
        fn(*args)

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    def set_timer(self, delay: float, fn: Callable[..., Any], args: tuple = (),
                  cancellable: bool = False) -> Optional[Any]:
        """Fire ``fn(*args)`` after *delay* seconds unless the node
        crashes first.

        A timer does not occupy the CPU — the callback itself should
        :meth:`execute` any non-trivial work.  Returns a handle for
        :meth:`cancel` only when *cancellable* (and the node is up);
        otherwise ``None``.
        """
        if self._crashed_at is not None:
            return None
        if not delay >= 0:  # NaN fails too
            raise ScheduleInPastError(f"negative delay {delay!r}")
        sim = self.sim
        return sim.schedule_at(sim.now + delay, self._run_timer,
                               (self._epoch, fn, args), cancellable=cancellable)

    def _run_timer(self, epoch: int, fn: Callable[..., Any], args: tuple) -> None:
        if self._crashed_at is not None or epoch != self._epoch:
            return
        fn(*args)

    def cancel(self, handle: Any) -> None:
        """Cancel a handle from ``set_timer(..., cancellable=True)``."""
        self.sim.cancel(handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"crashed@{self._crashed_at:.6f}" if self._crashed_at is not None else "up"
        return f"<{type(self).__name__} {self.name} id={self.machine_id} {state}>"


class Transport(ABC):
    """Datagram I/O between nodes: the network half of the seam.

    Hooks are called as ``hook(message, arrival_time)`` with a
    :class:`~repro.net.message.NetMessage`.  Crash semantics are part of
    the contract: datagrams from crashed senders are never sent, and
    datagrams to crashed receivers are dropped at delivery time (the
    receiver may crash while a datagram is in flight).

    :meth:`attach` / :meth:`detach` are implemented once, here, on two
    tables every implementation keeps: ``_nodes`` (rank → node) and
    ``_hooks`` (rank → delivery hook).  Both implementations also hold
    their fault surface as ``links`` (a :class:`~repro.net.links.
    LinkPolicy`).
    """

    __slots__ = ()

    _nodes: Dict[int, Any]
    _hooks: Dict[int, Callable[..., None]]

    def attach(self, machine_id: int, hook: Callable[..., None]) -> None:
        """Register the delivery hook for node *machine_id* (its doorway
        module, normally :class:`~repro.net.udp.UdpModule`): only for a
        node the transport connects, and only once per node."""
        if machine_id not in self._nodes:
            raise UnknownDestinationError(f"no machine with id {machine_id}")
        if machine_id in self._hooks:
            raise NetworkError(f"machine {machine_id} already attached")
        self._hooks[machine_id] = hook

    def detach(self, machine_id: int) -> None:
        """Remove the delivery hook of node *machine_id* (no-op if none)."""
        self._hooks.pop(machine_id, None)

    @abstractmethod
    def send(self, message: Any) -> None:
        """Send one datagram (unreliable, unordered: whatever the
        substrate does)."""

    @abstractmethod
    def send_local(self, message: Any) -> None:
        """Loopback delivery to the sender's own hook (no wire, no
        latency model, but still asynchronous)."""

    @abstractmethod
    def stats(self) -> Dict[str, int]:
        """Datagram counters (``sent``, ``bytes_sent``, drop reasons,
        ...) as a plain dict."""


class Backend(ABC):
    """One bootable cluster runtime: a scheduler, *n* nodes, a transport.

    The lifecycle is ``start()`` → populate the stacks (normally
    :func:`~repro.experiments.common.build_group_comm_system`) →
    ``run(until)`` (repeatable) → ``stop()``.  ``start()`` comes
    *first* because module ``on_start`` hooks arm timers and send
    datagrams immediately — the transport must already be bound.

    A backend is the one run surface every harness reads, the paper's
    "set of stacks" (Section 2).  Implementations set these as plain
    attributes in ``__init__``:

    * ``sim`` — the shared :class:`Scheduler`;
    * ``nodes`` — one :class:`NodeBackend` per rank (index = rank);
    * ``transport`` — the :class:`Transport` between them;
    * ``stacks`` — one kernel stack per node, empty until populated;
    * ``registry`` — the protocol registry the stacks share;
    * ``trace`` — the trace recorder the stacks share;
    * ``calibration`` — the :class:`Calibration` the stack set is built
      with.
    """

    __slots__ = ()

    sim: Scheduler
    nodes: Sequence[NodeBackend]
    transport: Transport
    stacks: List["Stack"]
    registry: "ProtocolRegistry"
    trace: "TraceRecorder"
    calibration: Calibration

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of nodes."""

    @abstractmethod
    def start(self) -> None:
        """Bind the transport and make the scheduler ready (idempotent)."""

    @abstractmethod
    def run(self, until: float) -> None:
        """Advance the runtime to absolute instant *until* of
        :attr:`Scheduler.now` (blocking); a past instant returns at once."""

    @abstractmethod
    def stop(self) -> None:
        """Tear the runtime down: close its sockets and loop, if any."""
