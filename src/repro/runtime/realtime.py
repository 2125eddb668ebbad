"""The realtime backend: asyncio UDP sockets and wall-clock timers.

The deployable half of the runtime twin.  Everything the modules see —
``now``, ``set_timer``, datagram delivery, crash/recover hooks — has the
same semantics as the simulation backend, except that time is the
event loop's monotonic clock and datagrams travel through real
``AF_INET`` UDP sockets on localhost:

* :class:`RealtimeScheduler` — the :class:`~repro.runtime.api.Scheduler`
  contract on ``loop.call_later``.  asyncio's timer
  wheel is FIFO for equal deadlines, preserving the determinism contract
  modules rely on (to the extent wall-clock equality ever happens).
* :class:`RealtimeNode` — the :class:`~repro.runtime.api.NodeBackend`
  contract without a modelled CPU: ``execute`` ignores the declared cost
  (real CPUs charge for themselves) but still defers the invocation,
  onto a run queue that one loop callback drains, so a chain of kernel
  dispatches costs one loop turn, not one per hop.
  Crash/recover are *software* crash-stop — a crashed node stops
  processing timers and datagrams (epoch-guarded, exactly like
  :class:`~repro.sim.process.Machine`) — which is what chaos-testing a
  single-process soak needs.
* :class:`RealtimeUdpTransport` — one non-blocking UDP socket per node,
  bound to an OS-assigned port on localhost and read until empty; the
  node-rank → address map is shared in-process.  The wire format is the
  safe, versioned codec of :mod:`repro.runtime.codec` (struct header +
  restricted-tag payload encoding).  **Trust boundary**: decoding never
  executes anything — unknown tags, unknown wire versions, truncated or
  corrupted datagrams, and datagrams whose header names another rank as
  ``dst`` are counted (``malformed`` in
  :meth:`~RealtimeUdpTransport.stats`) and dropped, never raised into
  the event loop.  Its fault
  surface is the same :class:`~repro.net.links.LinkPolicy` the
  simulated network consults, so one
  :class:`~repro.sim.faults.FaultInjector` degrades either.
* :class:`RealtimeBackend` — bundles the three behind the
  :class:`~repro.runtime.api.Backend` lifecycle, with one kernel stack
  per node and a structural trace, on the same run surface as the
  simulated twin (``sim`` / ``nodes`` / ``transport`` / ``stacks`` /
  ``registry`` / ``trace``) that :class:`~repro.dpu.manager.
  ReplacementManager` and the property checkers consume, so the
  *unmodified* dpu/gm/fd/abcast modules run on it and the scenario
  engine checks it.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import CodecError, ScheduleInPastError, SimulationError
from ..kernel.events import STRUCTURAL_TRACE_KINDS
from ..kernel.registry import ProtocolRegistry
from ..kernel.stack import Stack
from ..kernel.trace import TraceRecorder
from ..net.links import LinkPolicy
from ..net.message import NetMessage
from ..sim.random import RngRegistry
from .api import REALTIME_CALIBRATION, Backend, NodeBackend, Scheduler, Transport
from .codec import decode_datagram, encode_datagram

__all__ = [
    "RealtimeScheduler",
    "RealtimeNode",
    "RealtimeUdpTransport",
    "RealtimeBackend",
]

#: Most tasks one node's drain runs, and most datagrams one socket read
#: takes, in one event-loop turn; the rest waits for the next turn, so a
#: runaway chain or a flood cannot starve timers and other sockets.
TURN_BUDGET = 256


class RealtimeScheduler(Scheduler):
    """Wall-clock :class:`~repro.runtime.api.Scheduler` on an asyncio loop.

    Parameters
    ----------
    loop:
        The event loop to schedule on (owned by the backend).
    seed:
        Root seed for the rng streams (workload jitter etc. stays
        reproducible even when timing is not).
    """

    __slots__ = ("_loop", "_t0", "rng", "_events_processed")

    def __init__(self, loop: asyncio.AbstractEventLoop, seed: int = 0) -> None:
        self._loop = loop
        self._t0 = loop.time()
        self.rng = RngRegistry(seed=seed)
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Seconds of wall-clock time since the scheduler was created."""
        return self._loop.time() - self._t0

    @property
    def events_processed(self) -> int:
        """Total scheduled callbacks fired so far."""
        return self._events_processed

    def _fire(self, callback: Callable[..., Any], args: tuple) -> None:
        self._events_processed += 1
        callback(*args)

    def schedule_at(self, time: float, callback: Callable[..., Any], args: tuple = (),
                    priority: int = 0, cancellable: bool = False
                    ) -> Optional[asyncio.TimerHandle]:
        """Fire at absolute instant *time* (clock of :attr:`now`); an
        already-past instant fires as soon as possible — wall-clock
        backends cannot refuse the past, they can only be late.  A NaN
        instant is refused, as on the simulator."""
        if time != time:
            raise ScheduleInPastError(f"cannot schedule at {time!r}; current time is {self.now!r}")
        handle = self._loop.call_later(max(0.0, time - self.now), self._fire,
                                       callback, args)
        return handle if cancellable else None

    def cancel(self, handle: Any) -> None:
        """Cancel an asyncio handle (no-op once it fired)."""
        if not isinstance(handle, asyncio.Handle):
            raise SimulationError(
                f"cancel() needs a handle from schedule_at(..., cancellable=True), "
                f"got {handle!r}"
            )
        handle.cancel()


class RealtimeNode(NodeBackend):
    """A :class:`~repro.runtime.api.NodeBackend` on wall-clock time.

    The base class's incarnation state machine and epoch-guarded timers,
    without :class:`~repro.sim.process.Machine`'s serial-CPU queue:
    declared costs are ignored, work runs from the node's run queue
    (never inside ``execute``).  Crash/recover are *software* crash-stop.
    """

    __slots__ = ("_scheduler", "_queue", "_drain_armed")

    def __init__(self, sim: RealtimeScheduler, machine_id: int) -> None:
        super().__init__(sim, machine_id)
        self._scheduler = sim
        self._queue: Deque[Tuple[int, Callable[..., Any], tuple]] = deque()
        self._drain_armed = False

    def execute(self, cost: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Queue ``fn(*args)`` on the node's run queue (cost ignored: the
        real CPU charges for itself); dropped if the node is down."""
        if not cost >= 0:  # NaN fails too
            raise SimulationError(f"negative CPU cost {cost!r}")
        if self._crashed_at is not None:
            return
        self._queue.append((self._epoch, fn, args))
        if not self._drain_armed:
            self._drain_armed = True
            self._scheduler._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Run queued tasks in order — each one scheduler event — up to
        :data:`TURN_BUDGET`; a rest (also after a raise) re-arms."""
        queue = self._queue
        ran = 0
        try:
            while queue and ran < TURN_BUDGET:
                ran += 1
                self._run_task(*queue.popleft())
        finally:
            self._scheduler._events_processed += ran
            if queue:
                self._scheduler._loop.call_soon(self._drain)
            else:
                self._drain_armed = False


class RealtimeUdpTransport(Transport):
    """Datagram I/O over real UDP sockets, one per node, on localhost.

    Sockets bind to OS-assigned ports (``port 0``), and the rank →
    ``(host, port)`` map is shared in-process, so N stacks coexist in
    one process with zero port configuration.  A failed ``recv`` or
    ``sendto`` is counted (``socket_errors``), the datagram lost as UDP
    may lose it.  Wire format is the safe codec of
    :mod:`repro.runtime.codec` — header + restricted-tag
    payload; malformed datagrams, and datagrams addressed to another
    rank than the socket's, are counted and dropped at
    :meth:`_on_datagram`, never raised.

    Crash semantics match :class:`~repro.net.network.SimNetwork`:
    datagrams from crashed senders are never sent; datagrams to crashed
    receivers are dropped at delivery time.

    **Faults** are :attr:`links`' verdict, asked once per datagram at
    send time, exactly as the simulated network asks its own: a dropped
    datagram never reaches the socket, each copy the verdict lets
    through is ``sendto``-ed now or after its delay, and a corrupted
    frame goes out with its magic mangled, so the receiver's codec drops
    it as ``malformed`` — the codec is the checksum, always on.  The
    receive path re-checks partitions only: a peer beyond localhost
    cannot be stopped from transmitting, only ignored.  Loopback
    (:meth:`send_local`) bypasses the policy, like the simulated network.
    """

    def __init__(self, sim: RealtimeScheduler, nodes: List[RealtimeNode],
                 host: str = "127.0.0.1") -> None:
        self.sim = sim
        self.host = host
        self._nodes: Dict[int, RealtimeNode] = {n.machine_id: n for n in nodes}
        self._hooks: Dict[int, Callable[..., None]] = {}
        self._sockets: Dict[int, socket.socket] = {}
        #: Rank -> bound (host, port); filled by :meth:`open`.
        self.addresses: Dict[int, Any] = {}
        #: The fault surface, on its own stream: chaos draws never
        #: perturb workload randomness (same rule as the sim).  No
        #: checksum drop: the codec is the checksum (see ``send``).
        self.links = LinkPolicy(self._nodes, sim.rng.stream("net.realtime.impairments"))
        self.links.checksum = False
        self._c_sent = 0
        self._c_bytes_sent = 0
        self._c_received = 0
        self._c_dropped_crashed = 0
        self._c_dropped_unknown = 0
        self._c_malformed = 0
        self._c_delayed = 0
        self._c_socket_errors = 0

    def open(self) -> None:
        """Bind one non-blocking UDP socket per node and register its
        reader on the scheduler's loop (idempotent)."""
        loop = self.sim._loop
        for node_id in sorted(self._nodes):
            if node_id in self._sockets:
                continue
            # Owned from creation, so close() releases it if bind fails.
            sock = self._sockets[node_id] = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setblocking(False)
            sock.bind((self.host, 0))
            loop.add_reader(sock.fileno(), self._read, node_id, sock)
            self.addresses[node_id] = sock.getsockname()

    def close(self) -> None:
        """Unregister the readers and close every socket (idempotent)."""
        loop = self.sim._loop
        for sock in self._sockets.values():
            loop.remove_reader(sock.fileno())
            sock.close()
        self._sockets.clear()
        self.addresses.clear()

    # ------------------------------------------------------------------ #
    # Datagram path
    # ------------------------------------------------------------------ #
    def send(self, message: Any) -> None:
        """Send one datagram through the sender's real socket."""
        sender = self._nodes.get(message.src)
        if sender is None or sender._crashed_at is not None:
            self._c_dropped_crashed += 1
            return
        addr = self.addresses.get(message.dst)
        sock = self._sockets.get(message.src)
        if addr is None or sock is None:
            self._c_dropped_unknown += 1
            return
        verdict = self.links.verdict(message.src, message.dst)
        if verdict is None:
            return
        mangled, delay, duplicate_delay = verdict
        data = encode_datagram(message.src, message.dst, message.payload,
                               message.size_bytes)
        if mangled:
            # Mangled where the receiver's codec is guaranteed to notice.
            data = b"\x00" + data[1:]
        self._transmit(sock, data, addr, delay)
        if duplicate_delay is not None:
            self._transmit(sock, data, addr, duplicate_delay)

    def _transmit(self, sock: socket.socket, data: bytes, addr: Any,
                  delay: float) -> None:
        if delay > 0.0:
            self._c_delayed += 1
            self.sim.schedule(delay, self._transmit, sock, data, addr, 0.0)
            return
        try:
            sock.sendto(data, addr)
        except OSError:
            # Refused, a full buffer, or a delayed copy firing after close().
            self._c_socket_errors += 1
            return
        self._c_sent += 1
        self._c_bytes_sent += len(data)

    def send_local(self, message: Any) -> None:
        """Loopback: skip the socket — and the link policy, exactly like
        ``SimNetwork.send_local`` (no loss, no partition, no latency) —
        onto the node's run queue, after the work it already holds."""
        self._nodes[message.dst].execute(0.0, self._deliver, (
            message.dst, message.src, message.payload, message.size_bytes))

    def _read(self, node_id: int, sock: socket.socket) -> None:
        """Loop reader: take datagrams until the socket is empty, at most
        :data:`TURN_BUDGET` (the rest wait for the next turn)."""
        for _ in range(TURN_BUDGET):
            try:
                data = sock.recv(65535)  # the largest UDP payload
            except BlockingIOError:
                return
            except OSError:
                self._c_socket_errors += 1
                continue
            self._on_datagram(node_id, data)

    def _on_datagram(self, node_id: int, data: bytes) -> None:
        try:
            src, dst, payload, size_bytes = decode_datagram(data)
        except CodecError:
            self._c_malformed += 1
            return
        if dst != node_id:
            # Addressed to another rank: never deliver it as our own.
            self._c_malformed += 1
            return
        if self.links.is_partitioned(src, node_id):
            # Receive-side enforcement: the check that matters beyond
            # localhost, where a partitioned peer cannot be silenced.
            self.links.dropped_partition += 1
            return
        self._deliver(node_id, src, payload, size_bytes)

    def _deliver(self, dst: int, src: int, payload: Any, size_bytes: int) -> None:
        receiver = self._nodes.get(dst)
        if receiver is None or receiver._crashed_at is not None:
            self._c_dropped_crashed += 1
            return
        hook = self._hooks.get(dst)
        if hook is None:
            self._c_dropped_unknown += 1
            return
        self._c_received += 1
        hook(NetMessage(src, dst, payload, size_bytes), self.sim.now)

    def stats(self) -> Dict[str, int]:
        """Datagram counters, dict-shaped like ``SimNetwork.stats()``."""
        links = self.links
        out = {
            "sent": self._c_sent,
            "bytes_sent": self._c_bytes_sent,
            "received": self._c_received,
            "dropped_crashed": self._c_dropped_crashed,
            "dropped_unknown": self._c_dropped_unknown,
            "malformed": self._c_malformed,
            "dropped_partition": links.dropped_partition,
            "dropped_loss": links.dropped_loss,
            "duplicated": links.duplicated,
            "reordered": links.reordered,
            "delayed": self._c_delayed,
        }
        if self._c_socket_errors:
            out["socket_errors"] = self._c_socket_errors
        if links.corrupted:
            # Conditional, like SimNetwork (and socket_errors): clean runs
            # keep the historical stats shape.
            out["corrupted"] = links.corrupted
        return out


class RealtimeBackend(Backend):
    """A bootable wall-clock cluster: scheduler + *n* nodes + UDP sockets.

    Creates one kernel stack per node, a shared protocol registry and a
    trace recorder keeping :data:`~repro.kernel.events.
    STRUCTURAL_TRACE_KINDS` (everything the trace checkers read, none of
    the per-call rows), and sets the :class:`~repro.runtime.api.Backend`
    surface as :class:`~repro.runtime.sim_backend.SimBackend` does, so
    :func:`~repro.experiments.common.build_group_comm_system` populates
    either twin the same way.

    Error transparency, as in the simulator: the first exception a loop
    callback raises stops the loop and is raised by :meth:`run` /
    :meth:`run_coro`; the backend stays runnable and stoppable.

    The stack set is built with :data:`~repro.runtime.api.
    REALTIME_CALIBRATION` (:attr:`calibration`).

    Parameters
    ----------
    n:
        Number of nodes.
    seed:
        Root seed for the rng streams.
    host:
        Interface to bind the node sockets on (loopback by default).
    """

    def __init__(self, n: int, seed: int = 0, host: str = "127.0.0.1") -> None:
        if n < 1:
            raise SimulationError(f"a backend needs at least one node, got n={n}")
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(self._on_loop_error)
        self._error: Optional[Exception] = None
        self.calibration = REALTIME_CALIBRATION
        self.sim: RealtimeScheduler = RealtimeScheduler(self._loop, seed=seed)
        self.nodes: List[RealtimeNode] = [
            RealtimeNode(self.sim, i) for i in range(n)
        ]
        self.transport: RealtimeUdpTransport = RealtimeUdpTransport(
            self.sim, self.nodes, host=host
        )
        self.registry = ProtocolRegistry()
        self.trace = TraceRecorder(keep=STRUCTURAL_TRACE_KINDS)
        self.stacks: List[Stack] = [Stack(node, self.trace) for node in self.nodes]
        self._started = False
        self._stopped = False

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def start(self) -> None:
        """Bind every node's socket (idempotent).  Call *before* adding
        modules: their ``on_start`` hooks send datagrams immediately."""
        if self._started:
            return
        self.transport.open()
        self._started = True

    def run(self, until: float) -> None:
        """Run the event loop until instant *until* of :attr:`sim`'s clock
        (a past instant spins the loop once and returns)."""
        if not self._started:
            raise SimulationError("RealtimeBackend.run() before start()")
        self._run_until(asyncio.sleep(max(0.0, until - self.sim.now)))

    def run_coro(self, coro: Any) -> Any:
        """Run one coroutine to completion on the owned loop."""
        return self._run_until(coro)

    def _run_until(self, awaitable: Any) -> Any:
        try:
            result = self._loop.run_until_complete(awaitable)
        except RuntimeError:
            if self._error is None:  # else: stopped by _on_loop_error
                raise
            result = None
        error, self._error = self._error, None
        if error is not None:
            raise error  # a callback's exception ends the run
        return result

    def _on_loop_error(self, loop: asyncio.AbstractEventLoop,
                       context: Dict[str, Any]) -> None:
        error = context.get("exception")
        if isinstance(error, Exception):
            self._error = self._error or error  # the first one wins
            loop.stop()
        else:
            loop.default_exception_handler(context)

    def stop(self) -> None:
        """Close the sockets and the loop (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.transport.close()
        try:
            # One last spin so asyncio finishes closing stream transports.
            self._run_until(asyncio.sleep(0))
        finally:
            self._loop.close()
