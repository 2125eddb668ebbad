"""Backend conformance: the sim and realtime twins obey one contract.

Every test runs twice — once on :class:`SimBackend`, once on
:class:`RealtimeBackend` (real asyncio UDP sockets, wall-clock timers) —
asserting the behavioural clauses module code relies on: timer ordering,
cancellation, crash suppression with epoch guards across recovery,
deferred execution, and datagram delivery semantics around crashes.
Realtime delays are tens of milliseconds, so the whole file stays
CI-fast while leaving generous jitter margins.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.errors import (
    NetworkError,
    ScheduleInPastError,
    SimulationError,
    UnknownDestinationError,
)
from repro.experiments.common import (
    PROTOCOL_SEQ,
    GroupCommSystem,
    build_group_comm_system,
)
from repro.kernel.module import Module
from repro.kernel.trace import TraceRecorder
from repro.net.links import LinkPolicy
from repro.net.message import NetMessage
from repro.net.network import SimNetwork
from repro.runtime import (
    Backend,
    NodeBackend,
    RealtimeBackend,
    RealtimeNode,
    RealtimeScheduler,
    RealtimeUdpTransport,
    Scheduler,
    SimBackend,
    Transport,
)
from repro.runtime.api import Calibration
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.switchplan import SwitchAt, SwitchPlan
from repro.sim import Machine, Simulator
from repro.sim.faults import FaultInjector

# Base timer quantum: long enough that wall-clock jitter cannot reorder
# distinct multiples, short enough to keep the suite quick.
TICK = 0.02


@pytest.fixture(params=["sim", "realtime"])
def backend(request):
    """A started two-node backend of each flavour (stopped on teardown)."""
    if request.param == "sim":
        b = SimBackend(n=2, seed=7, trace_kinds=frozenset())
    else:
        b = RealtimeBackend(n=2, seed=7)
    b.start()
    yield b
    b.stop()


def run_ticks(backend, ticks: float) -> None:
    """Advance backend time far enough for *ticks* quanta to elapse."""
    backend.run(backend.sim.now + ticks * TICK + TICK)


def test_implements_the_api(backend):
    isinstance_checks = [
        isinstance(backend, Backend),
        isinstance(backend.sim, Scheduler),
        isinstance(backend.nodes[0], NodeBackend),
        isinstance(backend.transport, Transport),
    ]
    assert all(isinstance_checks)
    assert backend.n == 2
    assert backend.stacks[0].machine is backend.nodes[0]


# --------------------------------------------------------------------- #
# One run surface: the backend is how every harness reaches a built run
# --------------------------------------------------------------------- #
RUN_SURFACE = ("sim", "nodes", "transport", "stacks", "registry", "trace", "calibration")


def test_backend_declares_the_one_run_surface():
    assert tuple(Backend.__annotations__) == RUN_SURFACE
    assert Backend.__abstractmethods__ == {"n", "start", "run", "stop"}


def test_both_twins_expose_the_one_run_surface(backend):
    for name in RUN_SURFACE + ("n",):
        assert hasattr(backend, name), name
    for retired in ("system", "network", "machine", "cancel"):
        assert not hasattr(backend, retired), retired
    assert isinstance(backend.calibration, Calibration)
    assert len(backend.nodes) == len(backend.stacks) == backend.n
    for rank, stack in enumerate(backend.stacks):
        assert stack.machine is backend.nodes[rank]
        assert stack.trace is backend.trace


def test_a_built_run_holds_only_its_backend():
    names = {field.name for field in dataclasses.fields(GroupCommSystem)}
    assert "backend" in names
    assert not names & {"system", "network"}
    assert not hasattr(GroupCommSystem, "stacks")


# --------------------------------------------------------------------- #
# One spelling per seam operation: the collapsed surface stays collapsed
# --------------------------------------------------------------------- #
def test_abstract_surface_is_one_spelling_per_operation():
    assert Scheduler.__abstractmethods__ == {
        "now", "events_processed", "schedule_at", "cancel",
    }
    assert NodeBackend.__abstractmethods__ == {"execute"}
    assert "_busy_until" not in NodeBackend.__slots__  # a CPU model is the backend's own
    assert Transport.__abstractmethods__ == {"send", "send_local", "stats"}


@pytest.mark.parametrize(
    "cls",
    [Simulator, RealtimeScheduler, Machine, RealtimeNode, SimNetwork,
     RealtimeUdpTransport, Module, TraceRecorder],
    ids=lambda cls: cls.__name__,
)
def test_no_public_twin_suffixes(cls):
    twins = [
        name for name in dir(cls)
        if not name.startswith("_")
        and name.endswith(("_fast", "_packed", "_burst", "_many"))
    ]
    assert twins == []


FAULT_SURFACE = (
    "partition", "partition_oneway", "heal", "is_partitioned",
    "impair_link", "clear_link", "clear_links", "link_impairment",
)


@pytest.mark.parametrize("cls", [SimNetwork, RealtimeUdpTransport], ids=lambda c: c.__name__)
def test_fault_surface_lives_on_the_link_policy_only(cls):
    assert [name for name in FAULT_SURFACE if hasattr(cls, name)] == []
    assert all(callable(getattr(LinkPolicy, name)) for name in FAULT_SURFACE)
    assert "attach" not in vars(cls) and "detach" not in vars(cls)


def test_incarnation_state_machine_lives_on_the_base_only():
    for name in ("crash", "recover", "set_timer", "cancel", "_run_task", "_run_timer",
                 "crashed", "crashed_at", "crash_count", "ever_crashed", "epoch",
                 "last_recovered_at", "tasks_executed"):
        assert name in vars(NodeBackend), name
        assert name not in vars(Machine) and name not in vars(RealtimeNode), name


def test_timer_ordering(backend):
    fired = []
    node = backend.nodes[0]
    node.set_timer(3 * TICK, fired.append, ("c",))
    node.set_timer(1 * TICK, fired.append, ("a",))
    node.set_timer(2 * TICK, fired.append, ("b",))
    run_ticks(backend, 4)
    assert fired == ["a", "b", "c"]


def test_equal_delay_timers_fire_in_arming_order(backend):
    fired = []
    node = backend.nodes[0]
    for tag in ("first", "second", "third"):
        node.set_timer(TICK, fired.append, (tag,))
    run_ticks(backend, 2)
    assert fired == ["first", "second", "third"]


def test_cancel_prevents_fire_and_is_idempotent_after_fire(backend):
    fired = []
    node = backend.nodes[0]
    assert node.set_timer(TICK, fired.append, ("plain",)) is None
    cancelled = node.set_timer(TICK, fired.append, ("cancelled",), cancellable=True)
    kept = node.set_timer(TICK, fired.append, ("kept",), cancellable=True)
    node.cancel(cancelled)
    run_ticks(backend, 2)
    assert fired == ["plain", "kept"]
    # Cancelling a handle whose timer already fired must be a no-op.
    node.cancel(kept)
    node.cancel(cancelled)
    run_ticks(backend, 1)
    assert fired == ["plain", "kept"]


def test_cancelling_a_non_handle_raises(backend):
    node = backend.nodes[0]
    # A handle-free timer returns None; cancelling that, or anything else
    # that is not a handle, is a call-site bug and must be loud.
    for not_a_handle in (node.set_timer(TICK, lambda: None), "timer", 7):
        with pytest.raises(SimulationError, match="cancellable=True"):
            node.cancel(not_a_handle)
        with pytest.raises(SimulationError, match="cancellable=True"):
            backend.sim.cancel(not_a_handle)


def test_crash_suppresses_timers_across_recovery(backend):
    fired = []
    node = backend.nodes[0]
    node.set_timer(4 * TICK, fired.append, ("old-epoch",))
    run_ticks(backend, 1)  # advances ~2 ticks: still before the deadline
    node.crash()
    assert node.crashed and node.ever_crashed and node.crash_count == 1
    # While down: arming is refused (None handle, nothing scheduled).
    assert node.set_timer(TICK, fired.append, ("while-down",)) is None
    node.recover()
    assert not node.crashed
    # The pre-crash timer belongs to the dead epoch: it must never fire,
    # even though the node is back up when its deadline passes.
    run_ticks(backend, 3)
    assert fired == []
    # The new incarnation's timers work.
    node.set_timer(TICK, fired.append, ("new-epoch",))
    run_ticks(backend, 2)
    assert fired == ["new-epoch"]


def test_crash_and_recover_hooks_fire(backend):
    events = []
    node = backend.nodes[1]
    node.on_crash.append(lambda t: events.append(("crash", t >= 0)))
    node.on_recover.append(lambda t: events.append(("recover", t >= 0)))
    node.crash()
    node.crash()  # idempotent: second call must not re-fire hooks
    node.recover()
    assert events == [("crash", True), ("recover", True)]
    assert node.epoch == 1


def test_execute_defers(backend):
    ran = []
    node = backend.nodes[0]
    node.execute(0.0, ran.append, ("deferred",))
    assert ran == []  # must not run synchronously inside execute()
    run_ticks(backend, 1)
    assert ran == ["deferred"]


def test_execute_dropped_on_crashed_node(backend):
    ran = []
    node = backend.nodes[0]
    node.crash()
    node.execute(0.0, ran.append, ("never",))
    run_ticks(backend, 1)
    assert ran == []


NAN = float("nan")


def test_execute_rejects_a_nan_cost(backend):
    with pytest.raises(SimulationError, match="negative CPU cost"):
        backend.nodes[0].execute(NAN, lambda: None)
    assert backend.nodes[0].tasks_executed == 0


def test_set_timer_rejects_a_nan_delay(backend):
    with pytest.raises(SimulationError, match="negative delay"):
        backend.nodes[0].set_timer(NAN, lambda: None)


def test_schedule_rejects_a_nan_delay(backend):
    with pytest.raises(SimulationError, match="negative delay"):
        backend.sim.schedule(NAN, lambda: None)


def test_schedule_at_rejects_a_nan_instant(backend):
    fired = []
    with pytest.raises(ScheduleInPastError, match="cannot schedule at nan"):
        backend.sim.schedule_at(NAN, fired.append, ("nan",))
    run_ticks(backend, 1)
    assert fired == []


def test_one_nodes_work_runs_in_execute_order_loopback_included(backend):
    order = []
    node = backend.nodes[0]
    backend.transport.attach(0, lambda message, at: order.append(message.payload))

    def first():
        order.append("a")
        node.execute(0.0, order.append, ("queued-by-a",))

    node.execute(0.0, first)
    backend.transport.send_local(NetMessage(src=0, dst=0, payload="loopback", size_bytes=16))
    node.execute(0.0, order.append, ("b",))
    run_ticks(backend, 1)
    assert order == ["a", "loopback", "b", "queued-by-a"]


def test_crash_mid_drain_drops_the_old_incarnation_and_recovered_work_runs(backend):
    ran = []
    node = backend.nodes[0]

    def crash_and_recover():
        ran.append("crash")
        node.crash()
        node.recover()
        node.execute(0.0, ran.append, ("new-epoch",))

    node.execute(0.0, crash_and_recover)
    node.execute(0.0, ran.append, ("old-epoch",))  # queued behind the crash
    run_ticks(backend, 1)
    assert ran == ["crash", "new-epoch"]


def test_events_processed_rises_by_one_per_task(backend):
    before = backend.sim.events_processed
    for _ in range(5):
        backend.nodes[0].execute(0.0, lambda: None)
    backend.nodes[1].execute(0.0, lambda: None)
    run_ticks(backend, 1)
    assert backend.sim.events_processed - before == 6


class Boom(Exception):
    """A module handler's bug."""


def test_a_raising_task_aborts_run_and_the_backend_carries_on(backend):
    # Error transparency: a handler's exception ends run() with that
    # exception on both twins, instead of being logged and swallowed.
    ran = []
    node = backend.nodes[0]

    def boom():
        raise Boom("handler failed")

    node.execute(0.0, boom)
    node.execute(0.0, ran.append, ("queued-after",))
    node.set_timer(3 * TICK, ran.append, ("timer",))
    with pytest.raises(Boom, match="handler failed"):
        run_ticks(backend, 5)
    assert ran == []  # the run stopped at the exception
    run_ticks(backend, 5)  # still runnable: nothing queued was lost
    assert ran == ["queued-after", "timer"]


def test_realtime_run_coro_raises_a_timers_exception():
    backend = RealtimeBackend(n=1)
    backend.start()
    try:
        backend.nodes[0].set_timer(TICK, _raise, (Boom("from a timer"),))
        with pytest.raises(Boom, match="from a timer"):
            backend.run_coro(asyncio.sleep(10 * TICK))
        assert backend.run_coro(asyncio.sleep(0, "next")) == "next"
    finally:
        backend.stop()


def _raise(error):
    raise error


def _attach_sink(backend, machine_id):
    got = []
    backend.transport.attach(
        machine_id, lambda message, at: got.append(message.payload)
    )
    return got


def test_datagram_delivery(backend):
    got = _attach_sink(backend, 1)
    backend.transport.send(NetMessage(src=0, dst=1, payload=("hello", 42), size_bytes=64))
    run_ticks(backend, 2)
    assert got == [("hello", 42)]


def test_datagram_dropped_when_sender_crashed(backend):
    got = _attach_sink(backend, 1)
    backend.nodes[0].crash()
    backend.transport.send(NetMessage(src=0, dst=1, payload="x", size_bytes=64))
    run_ticks(backend, 2)
    assert got == []


def test_datagram_dropped_when_receiver_crashed(backend):
    got = _attach_sink(backend, 1)
    backend.nodes[1].crash()
    backend.transport.send(NetMessage(src=0, dst=1, payload="x", size_bytes=64))
    run_ticks(backend, 2)
    assert got == []
    # After recovery, fresh datagrams flow again (crash-stop, not drop-forever).
    backend.nodes[1].recover()
    backend.transport.send(NetMessage(src=0, dst=1, payload="y", size_bytes=64))
    run_ticks(backend, 2)
    assert got == ["y"]


def test_attach_rejects_unknown_node_and_second_hook(backend):
    network = backend.transport
    with pytest.raises(UnknownDestinationError):
        network.attach(99, lambda message, at: None)
    network.attach(0, lambda message, at: None)
    with pytest.raises(NetworkError):
        network.attach(0, lambda message, at: None)
    network.detach(0)
    network.attach(0, lambda message, at: None)  # a detached node may re-attach


def test_send_local_loopback(backend):
    got = _attach_sink(backend, 0)
    backend.transport.send_local(NetMessage(src=0, dst=0, payload="self", size_bytes=16))
    run_ticks(backend, 1)
    assert got == ["self"]


def test_run_until_lands_the_sim_clock_exactly_on_the_instant():
    backend = SimBackend(n=2, seed=7, trace_kinds=frozenset())
    backend.start()
    until = 0.1 + 0.2  # not a "round" float: the clock must land on it as is
    backend.nodes[0].set_timer(0.05, lambda: None)
    backend.run(until)
    assert backend.sim.now == until
    backend.run(until + 3 * TICK)  # repeatable, still absolute
    assert backend.sim.now == until + 3 * TICK


def test_run_to_a_past_instant_returns_at_once(backend):
    fired = []
    run_ticks(backend, 1)
    backend.nodes[0].set_timer(5 * TICK, fired.append, ("later",))
    t0 = backend.sim.now
    backend.run(t0 - 1.0)
    assert backend.sim.now - t0 < TICK
    assert fired == []


def test_scheduler_clock_and_counters(backend):
    sim = backend.sim
    t0 = sim.now
    e0 = sim.events_processed
    sim.schedule(TICK, lambda: None)
    run_ticks(backend, 1)
    assert sim.now >= t0 + TICK
    assert sim.events_processed > e0


# --------------------------------------------------------------------- #
# Fault-surface contract: one FaultInjector behaviour on both twins
# --------------------------------------------------------------------- #
def make_injector(backend):
    """The one injector, on either twin: it mutates ``network.links``."""
    return FaultInjector(backend.sim, backend.nodes, network=backend.transport)


def test_injector_crash_suppresses_timers_and_recover_rearms(backend):
    injector = make_injector(backend)
    fired = []
    node = backend.nodes[0]
    node.set_timer(3 * TICK, fired.append, ("old-epoch",))
    injector.crash(0)
    run_ticks(backend, 4)
    assert fired == []  # pre-crash timer died with its epoch
    injector.recover(0)
    node.set_timer(TICK, fired.append, ("new-epoch",))
    run_ticks(backend, 2)
    assert fired == ["new-epoch"]  # the recovered incarnation re-arms
    assert [record.kind for record in injector.records] == ["crash", "recover"]


def test_injector_partition_blocks_both_directions(backend):
    injector = make_injector(backend)
    got0, got1 = _attach_sink(backend, 0), _attach_sink(backend, 1)
    injector.partition([0], [1])
    backend.transport.send(NetMessage(src=0, dst=1, payload="a", size_bytes=32))
    backend.transport.send(NetMessage(src=1, dst=0, payload="b", size_bytes=32))
    run_ticks(backend, 3)
    assert got0 == [] and got1 == []
    injector.heal()
    backend.transport.send(NetMessage(src=0, dst=1, payload="healed", size_bytes=32))
    run_ticks(backend, 3)
    assert got1 == ["healed"]  # heal restores delivery


def test_injector_oneway_partition_blocks_exactly_one_direction(backend):
    injector = make_injector(backend)
    got0, got1 = _attach_sink(backend, 0), _attach_sink(backend, 1)
    injector.partition_oneway([0], [1])
    backend.transport.send(NetMessage(src=0, dst=1, payload="blocked", size_bytes=32))
    backend.transport.send(NetMessage(src=1, dst=0, payload="flows", size_bytes=32))
    run_ticks(backend, 3)
    assert got1 == [] and got0 == ["flows"]
    assert backend.transport.links.is_partitioned(0, 1)
    assert not backend.transport.links.is_partitioned(1, 0)
    injector.heal()


def test_injector_full_loss_link_drops_until_cleared(backend):
    injector = make_injector(backend)
    got1 = _attach_sink(backend, 1)
    injector.impair_link(0, 1, loss_rate=1.0)
    backend.transport.send(NetMessage(src=0, dst=1, payload="lost", size_bytes=32))
    run_ticks(backend, 3)
    assert got1 == []
    assert backend.transport.stats()["dropped_loss"] == 1
    injector.clear_links()
    backend.transport.send(NetMessage(src=0, dst=1, payload="kept", size_bytes=32))
    run_ticks(backend, 3)
    assert got1 == ["kept"]


def test_injector_corrupt_link_drops_the_frame_on_both_twins(backend):
    injector = make_injector(backend)
    got1 = _attach_sink(backend, 1)
    injector.impair_link(0, 1, corrupt_rate=1.0)
    backend.transport.send(NetMessage(src=0, dst=1, payload="garbled", size_bytes=32))
    run_ticks(backend, 3)
    assert got1 == []
    stats = backend.transport.stats()
    assert stats["corrupted"] == 1
    if isinstance(backend, RealtimeBackend):
        # Sent with a mangled magic; the receiver's codec drops it.
        assert stats["malformed"] == 1
    else:
        # The receiver NIC's checksum drops it (the sim default).
        assert stats["corrupted_dropped"] == 1
    injector.clear_links()
    backend.transport.send(NetMessage(src=0, dst=1, payload="clean", size_bytes=32))
    run_ticks(backend, 3)
    assert got1 == ["clean"]


# --------------------------------------------------------------------- #
# The harness on both twins: the Figure-4 stack set driven through the
# system-level run/drain and a switch plan
# --------------------------------------------------------------------- #
def build_group(backend):
    """A small Figure-4 stack set on *backend*, on its calibration."""
    spec = ScenarioSpec(
        name="backend-group", n=backend.n, load_msgs_per_sec=40.0, payload_bytes=64, duration=0.3
    )
    return build_group_comm_system(spec, 7, backend)


def test_group_run_and_drain_go_through_the_backend(backend):
    gcs = build_group(backend)
    gcs.run(until=0.3)
    assert backend.sim.now >= 0.3
    pending = gcs.run_to_quiescence(extra=5.0, step=0.05)
    assert pending == {}
    assert gcs.log.sends
    for s in range(backend.n):
        assert set(gcs.log.sends) <= gcs.log.delivered_set(s)


def test_switch_plan_falls_back_to_a_live_requester(backend):
    gcs = build_group(backend)
    backend.nodes[0].crash()
    plan = SwitchPlan([SwitchAt(PROTOCOL_SEQ, at=backend.sim.now + TICK, from_stack=0)])
    plan.arm(gcs, make_injector(backend))
    run_ticks(backend, 3)
    assert [fired["from_stack"] for fired in plan.fired] == [1]
