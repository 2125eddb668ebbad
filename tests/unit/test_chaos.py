"""Realtime chaos units: the one fault injector on a live cluster.

Covers :class:`~repro.sim.faults.FaultInjector` on a live (loopback)
:class:`RealtimeBackend` — crash/recover with records, partitions both
symmetric and one-way, link impairments, latency spikes, scenario
fault-plan scheduling — plus the transport-level trust boundary: garbage
bytes arriving on a *real* bound UDP socket are counted and dropped,
never raised into the event loop.

Wall-clock delays are tens of milliseconds with generous margins, so the
file stays CI-fast.
"""

from __future__ import annotations

import socket
import struct
from collections import Counter

import pytest

from repro.net.message import NetMessage
from repro.runtime import RealtimeBackend, realtime
from repro.runtime.codec import HEADER, MAGIC, WIRE_VERSION, encode_datagram, encode_value
from repro.scenarios.spec import Crash, Heal, ImpairLink, LatencySpike, Partition, Recover
from repro.sim.faults import FaultInjector

TICK = 0.02


@pytest.fixture
def backend():
    b = RealtimeBackend(n=3, seed=11)
    b.start()
    yield b
    b.stop()


def _sink(backend, machine_id):
    got = []
    backend.network.attach(machine_id, lambda m, at: got.append(m.payload))
    return got


def _injector(backend):
    return FaultInjector(backend.sim, backend.nodes, network=backend.network, name="chaos")


def _kinds(injector):
    return Counter(record.kind for record in injector.records)


def _run(backend, seconds):
    backend.run(backend.sim.now + seconds)


def _send(backend, src, dst, payload):
    backend.network.send(
        NetMessage(src=src, dst=dst, payload=payload, size_bytes=32)
    )


# --------------------------------------------------------------------- #
# Satellite pin: garbage bytes on a live socket
# --------------------------------------------------------------------- #
def test_garbage_datagram_on_live_socket_is_counted_not_raised(backend):
    got = _sink(backend, 0)
    address = backend.network.addresses[0]
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.sendto(b"", address)                      # empty
        probe.sendto(b"\x80\x04garbage", address)       # pickle-ish junk
        probe.sendto(b"RW" + b"\xff" * 20, address)     # right magic, junk rest
    finally:
        probe.close()
    _run(backend, 5 * TICK)
    stats = backend.network.stats()
    assert stats["malformed"] == 3
    assert got == []
    # The loop survived: a well-formed datagram still delivers.
    _send(backend, 1, 0, "still-alive")
    _run(backend, 5 * TICK)
    assert got == ["still-alive"]
    assert backend.network.stats()["malformed"] == 3


def test_valid_codec_datagram_from_foreign_socket_delivers(backend):
    # The wire format is the codec, not the socket: any peer that speaks
    # it is accepted (there is no authentication, only safe decoding).
    got = _sink(backend, 2)
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.sendto(
            encode_datagram(0, 2, ("external", 1), 16),
            backend.network.addresses[2],
        )
    finally:
        probe.close()
    _run(backend, 5 * TICK)
    assert got == [("external", 1)]


def _send_raw(address, *frames):
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for frame in frames:
            probe.sendto(frame, address)
    finally:
        probe.close()


def test_misaddressed_datagram_from_foreign_socket_is_dropped(backend):
    # Addressed to rank 1 in the header, landed on rank 2's socket: it
    # is neither rank 2's to deliver nor rerouted to rank 1.
    got = {rank: _sink(backend, rank) for rank in (1, 2)}
    _send_raw(backend.network.addresses[2],
              encode_datagram(0, 1, ("misaddressed", 1), 16))
    _run(backend, 5 * TICK)
    assert got == {1: [], 2: []}
    assert backend.network.stats()["malformed"] == 1


def test_unhashable_set_member_on_live_socket_is_counted_not_raised(backend):
    got = _sink(backend, 0)
    crafted = (HEADER.pack(MAGIC, WIRE_VERSION, 0, 1, 0, 16)
               + b"e" + struct.pack("!I", 1) + encode_value([1]))
    _send_raw(backend.network.addresses[0], crafted)
    _run(backend, 5 * TICK)
    assert backend.network.stats()["malformed"] == 1
    assert got == []
    _send(backend, 1, 0, "still-alive")
    _run(backend, 5 * TICK)
    assert got == ["still-alive"]


# --------------------------------------------------------------------- #
# One loop turn per burst: the run queue and the socket reader
# --------------------------------------------------------------------- #
def _count_turns(backend):
    """A callback that re-arms itself every loop turn; its count names
    the current turn, so deliveries can be grouped by the turn they ran in."""
    turns = [0]
    loop = backend.sim._loop

    def tick():
        turns[0] += 1
        loop.call_soon(tick)

    loop.call_soon(tick)
    return turns


def _sink_by_turn(backend, machine_id, turns):
    got = []
    backend.network.attach(machine_id, lambda m, at: got.append((turns[0], m.payload)))
    return got


def test_frames_queued_before_the_loop_spins_are_read_in_one_turn(backend):
    turns = _count_turns(backend)
    got = _sink_by_turn(backend, 1, turns)
    frames = [encode_datagram(0, 1, ("burst", i), 16) for i in range(20)]
    _send_raw(backend.network.addresses[1], *frames)
    _run(backend, 2 * TICK)
    assert [payload for _, payload in got] == [("burst", i) for i in range(20)]
    assert len({turn for turn, _ in got}) == 1


def test_a_flood_is_read_at_most_one_budget_per_turn(backend, monkeypatch):
    monkeypatch.setattr(realtime, "TURN_BUDGET", 4)
    turns = _count_turns(backend)
    got = _sink_by_turn(backend, 1, turns)
    _send_raw(backend.network.addresses[1],
              *[encode_datagram(0, 1, i, 16) for i in range(10)])
    _run(backend, 2 * TICK)
    assert [payload for _, payload in got] == list(range(10))  # all, in order
    assert sorted(Counter(turn for turn, _ in got).values()) == [2, 4, 4]


def test_a_task_that_re_executes_itself_does_not_starve_a_timer(backend):
    node = backend.nodes[0]
    spins = [0]
    fired_at = []

    def again():
        spins[0] += 1
        if not fired_at and spins[0] < 1_000_000:
            node.execute(0.0, again)

    node.set_timer(0.01, lambda: fired_at.append(spins[0]))
    node.execute(0.0, again)
    _run(backend, 5 * TICK)
    # The timer fired while the chain was still spinning, and ended it.
    assert fired_at and fired_at[0] == spins[0] - 1
    assert spins[0] < 1_000_000


# --------------------------------------------------------------------- #
# Socket errors are counted, never raised or lost
# --------------------------------------------------------------------- #
class _RefusingSocket:
    """Stands in for a node socket whose peer's port is closed: the
    kernel reports the refusal on the next ``recv`` or ``sendto``."""

    def __init__(self, frames=()):
        self._recv = [ConnectionRefusedError(111, "refused"), *frames]

    def recv(self, size):
        if not self._recv:
            raise BlockingIOError
        item = self._recv.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def sendto(self, data, addr):
        raise ConnectionRefusedError(111, "refused")


def test_refused_recv_is_counted_and_reading_continues(backend):
    got = _sink(backend, 0)
    assert "socket_errors" not in backend.network.stats()  # clean shape
    refusing = _RefusingSocket([encode_datagram(1, 0, "after-refusal", 16)])
    backend.network._read(0, refusing)
    assert backend.network.stats()["socket_errors"] == 1
    assert got == ["after-refusal"]


def test_refused_sendto_is_counted_not_sent(backend, monkeypatch):
    monkeypatch.setitem(backend.network._sockets, 0, _RefusingSocket())
    _send(backend, 0, 1, "refused")
    stats = backend.network.stats()
    assert stats["socket_errors"] == 1 and stats["sent"] == 0


def test_close_unregisters_readers_and_a_later_delayed_copy_is_counted(backend):
    got = _sink(backend, 1)
    _injector(backend).latency_spike(2 * TICK, duration=10 * TICK)
    _send(backend, 0, 1, "late")
    fds = [sock.fileno() for sock in backend.network._sockets.values()]
    backend.network.close()  # the copy is still waiting for its delay
    assert not any(backend.sim._loop.remove_reader(fd) for fd in fds)
    _run(backend, 5 * TICK)
    stats = backend.network.stats()
    assert stats["delayed"] == 1 and stats["sent"] == 0
    assert stats["socket_errors"] == 1
    assert got == []


# --------------------------------------------------------------------- #
# Injector surface
# --------------------------------------------------------------------- #
def test_injector_crash_recover_records_and_node_state(backend):
    injector = _injector(backend)
    injector.crash(1)
    assert backend.nodes[1].crashed
    injector.crash(1)  # idempotent: no duplicate record
    injector.recover(1)
    assert not backend.nodes[1].crashed and backend.nodes[1].epoch == 1
    assert [r.kind for r in injector.records] == ["crash", "recover"]
    assert _kinds(injector) == {"crash": 1, "recover": 1}
    assert injector.crashed_ever() == {1: injector.records[0].time}


def test_injector_partition_blocks_and_heal_restores(backend):
    injector = _injector(backend)
    got0, got1 = _sink(backend, 0), _sink(backend, 1)
    injector.partition([0], [1, 2])
    _send(backend, 0, 1, "a-to-b")
    _send(backend, 1, 0, "b-to-a")
    _run(backend, 5 * TICK)
    assert got0 == [] and got1 == []
    injector.heal()
    _send(backend, 0, 1, "healed")
    _run(backend, 5 * TICK)
    assert got1 == ["healed"]
    assert backend.network.stats()["dropped_partition"] == 2


def test_injector_oneway_partition_blocks_one_direction(backend):
    injector = _injector(backend)
    got0, got1 = _sink(backend, 0), _sink(backend, 1)
    injector.partition_oneway([0], [1])
    _send(backend, 0, 1, "silenced")
    _send(backend, 1, 0, "heard")
    _run(backend, 5 * TICK)
    assert got1 == [] and got0 == ["heard"]
    injector.heal()


def test_injector_impair_link_full_loss_and_clear(backend):
    injector = _injector(backend)
    got1 = _sink(backend, 1)
    injector.impair_link(0, 1, loss_rate=1.0)
    _send(backend, 0, 1, "lost")
    _run(backend, 5 * TICK)
    assert got1 == []
    assert backend.network.stats()["dropped_loss"] == 1
    injector.clear_links()
    _send(backend, 0, 1, "through")
    _run(backend, 5 * TICK)
    assert got1 == ["through"]
    kinds = [r.kind for r in injector.records]
    assert kinds == ["impair-link", "clear-links"]


def test_injector_latency_spike_delays_then_reverts(backend):
    injector = _injector(backend)
    got1 = _sink(backend, 1)
    injector.latency_spike(10 * TICK, duration=20 * TICK)
    assert backend.network.links.extra_latency == pytest.approx(10 * TICK)
    _send(backend, 0, 1, "delayed")
    _run(backend, 3 * TICK)
    assert got1 == []  # still in the delay window
    _run(backend, 30 * TICK)
    assert got1 == ["delayed"]
    assert backend.network.links.extra_latency == 0.0  # spike reverted itself
    assert backend.network.stats()["delayed"] == 1


def test_scenario_fault_plan_schedules_against_realtime(backend):
    injector = _injector(backend)
    for action in (
        Crash(at=2 * TICK, machine=2),
        Recover(at=6 * TICK, machine=2),
        Partition(at=8 * TICK, groups=((0, 1), (2,))),
        ImpairLink(at=8 * TICK, src=0, dst=1, loss_rate=0.5, until=10 * TICK),
        Heal(at=10 * TICK),
        LatencySpike(at=10 * TICK, extra=TICK, duration=2 * TICK),
    ):
        action.schedule(injector)
    _run(backend, 16 * TICK)
    counters = _kinds(injector)
    assert counters["crash"] == 1 and counters["recover"] == 1
    assert counters["partition"] == 1 and counters["heal"] == 1
    assert counters["impair-link"] == 1 and counters["clear-link"] == 1
    assert counters["latency-spike"] == 2  # begin + auto-revert
    assert not backend.nodes[2].crashed
    assert backend.network.links.extra_latency == 0.0
    # The record log is JSON-able for the health endpoint.
    dicts = [record.to_dict() for record in injector.records]
    assert all(set(d) == {"time", "kind", "detail"} for d in dicts)
