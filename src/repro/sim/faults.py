"""Deterministic fault injection.

:class:`FaultInjector` is the one place an experiment schedules
adversity: process crashes and recoveries on :class:`Machine`\\ s,
network partitions and heals, per-link loss/duplication/reorder bursts
and latency spikes (delegated to the attached network object), and
randomised schedules (cascades, churn) drawn from the injector's **own
named RNG stream** — so adding or re-ordering fault draws never perturbs
the workload's or the network's randomness, and a run stays reproducible
from its root seed.

Every fault that actually fires is appended to :attr:`records` (at its
simulated firing instant) and announced to the :attr:`on_fault` hooks,
which is what lets a switch plan trigger "replace the protocol when the
first fault is detected" deterministically.

Network faults mutate the network's :class:`~repro.net.links.LinkPolicy`
(``network.links``) — the one fault surface both transports consult —
and the injector needs nothing else of a runtime than the seam: a
:class:`~repro.runtime.api.Scheduler` and its nodes.  So the same
injector degrades a simulated LAN or a live cluster on
:class:`~repro.runtime.realtime.RealtimeBackend` (there, faults fire at
wall-clock instants), and a scenario's fault plan schedules unchanged
on either (``action.schedule(injector)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..runtime.api import NodeBackend, Scheduler
from .clock import Duration, Time
from .events import PRIORITY_CONTROL
from .random import BufferedDraws

if TYPE_CHECKING:
    from ..net.links import LinkPolicy

__all__ = ["FaultRecord", "FaultInjector"]


@dataclass(frozen=True)
class FaultRecord:
    """One fault that fired: its instant, kind, and JSON-able detail."""

    time: Time
    kind: str
    detail: Tuple[Any, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """A deterministic plain-dict rendering for campaign reports."""
        return {"time": self.time, "kind": self.kind, "detail": list(self.detail)}


class FaultInjector:
    """Schedules and records faults against machines and a network.

    Parameters
    ----------
    sim:
        The scheduler faults are scheduled on.
    machines:
        The nodes that may crash/recover (usually ``system.machines``).
    network:
        Optional transport for partition/link/latency faults: its
        ``links`` policy is what they change (``SimNetwork`` or
        ``RealtimeUdpTransport``).
    name:
        Names the injector's RNG stream (``faults.<name>``), so two
        injectors in one run draw independently.
    """

    def __init__(
        self,
        sim: Scheduler,
        machines: Sequence[NodeBackend],
        network: Any = None,
        name: str = "default",
    ) -> None:
        self.sim = sim
        self._machines: Dict[int, NodeBackend] = {m.machine_id: m for m in machines}
        self.network = network
        self.rng = sim.rng.stream(f"faults.{name}")
        #: Block-buffered uniform draws on the injector's stream (used for
        #: randomised schedules; ``self.rng`` stays available — via
        #: ``self.draws.raw`` — for shapes the buffer does not cover).
        self.draws = BufferedDraws(self.rng)
        #: Faults that fired, in firing order.
        self.records: List[FaultRecord] = []
        #: Hooks invoked as ``hook(index, record)`` when a fault fires.
        self.on_fault: List[Callable[[int, FaultRecord], None]] = []
        #: Latency spikes currently active (spikes compose additively and
        #: each revert removes exactly its own delta; when the count hits
        #: zero the total snaps to 0.0 so float residue cannot linger).
        self._active_spikes = 0
        #: Bumped by :meth:`clear_latency_spikes`; a scheduled revert
        #: whose spike began under an older generation is a no-op (its
        #: delta was already reverted wholesale by the clear).
        self._spike_generation = 0

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def _record(self, kind: str, *detail: Any) -> None:
        record = FaultRecord(time=self.sim.now, kind=kind, detail=tuple(detail))
        index = len(self.records)
        self.records.append(record)
        for hook in list(self.on_fault):
            hook(index, record)

    def _machine(self, machine_id: int) -> NodeBackend:
        try:
            return self._machines[machine_id]
        except KeyError:
            raise SimulationError(f"fault injector knows no machine {machine_id}")

    def _links(self) -> LinkPolicy:
        if self.network is None:
            raise SimulationError("this fault requires a network to be attached")
        return self.network.links

    def crashed_ever(self) -> Dict[int, Time]:
        """``machine -> first crash instant`` over the recorded faults."""
        out: Dict[int, Time] = {}
        for record in self.records:
            if record.kind == "crash":
                out.setdefault(int(record.detail[0]), record.time)
        return out

    # ------------------------------------------------------------------ #
    # Immediate faults (also the targets of the *_at schedulers)
    # ------------------------------------------------------------------ #
    def crash(self, machine_id: int) -> None:
        """Crash *machine_id* now (no-op if already down)."""
        machine = self._machine(machine_id)
        if machine.crashed:
            return
        machine.crash()
        self._record("crash", machine_id)

    def recover(self, machine_id: int) -> None:
        """Recover *machine_id* now (no-op if up)."""
        machine = self._machine(machine_id)
        if not machine.crashed:
            return
        machine.recover()
        self._record("recover", machine_id)

    def partition(self, *groups: Sequence[int]) -> None:
        """Split the network into *groups*: cross-group traffic drops."""
        links = self._links()
        sets = [set(g) for g in groups if g]
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                links.partition(a, b)
        self._record("partition", *[tuple(sorted(g)) for g in sets])

    def partition_oneway(
        self, src_side: Sequence[int], dst_side: Sequence[int]
    ) -> None:
        """Asymmetric split: drop *src_side* → *dst_side* traffic only.

        The reverse direction keeps flowing (a unidirectional-link /
        half-broken-port failure): *src_side* still hears everything but
        its own frames toward *dst_side* vanish until :meth:`heal`.
        """
        self._links().partition_oneway(set(src_side), set(dst_side))
        self._record(
            "partition-oneway", tuple(sorted(src_side)), tuple(sorted(dst_side))
        )

    def heal(self) -> None:
        """Remove every partition (symmetric and one-way)."""
        self._links().heal()
        self._record("heal")

    def impair_link(self, src: int, dst: int, symmetric: bool = True, **rates: float) -> None:
        """Degrade the *src→dst* link (both directions when *symmetric*);
        *rates* are :class:`~repro.net.links.LinkImpairment`'s fields."""
        link = self._links().impair_link(src, dst, symmetric, **rates)
        detail = [
            src, dst, link.loss_rate, link.duplicate_rate, link.reorder_rate,
            link.reorder_delay, link.extra_latency,
        ]
        if link.corrupt_rate:
            # Appended conditionally so corruption-free fault records (and
            # the campaign goldens that pin them) keep their shape.
            detail.append(link.corrupt_rate)
        self._record("impair-link", *detail)

    def clear_link(self, src: int, dst: int, symmetric: bool = True) -> None:
        """Remove the impairment on *src↔dst*."""
        self._links().clear_link(src, dst, symmetric=symmetric)
        self._record("clear-link", src, dst)

    def clear_links(self) -> None:
        """Remove every per-link impairment."""
        self._links().clear_links()
        self._record("clear-links")

    def latency_spike(self, extra: Duration, duration: Optional[Duration] = None) -> None:
        """Add *extra* seconds of network-wide delivery delay now.

        Immediate and scheduled (:meth:`latency_spike_at`) spikes share
        one additive semantics: overlapping spikes compose, and each one
        reverts exactly its own contribution — either after *duration*
        or via :meth:`clear_latency_spikes`.  Records carry
        ``(delta, total_after)`` so a report shows both the spike's own
        size and the composed network state.
        """
        self._spike_begin(extra, duration)

    def clear_latency_spikes(self) -> None:
        """Revert every active latency spike at once."""
        links = self._links()
        self._spike_generation += 1
        if self._active_spikes == 0 and links.extra_latency == 0.0:
            return
        self._active_spikes = 0
        links.extra_latency = 0.0
        self._record("latency-clear", 0.0, 0.0)

    def _spike_begin(self, extra: Duration, duration: Optional[Duration] = None) -> None:
        links = self._links()
        self._active_spikes += 1
        links.extra_latency += extra
        self._record("latency-spike", extra, links.extra_latency)
        if duration is not None:
            # The revert is armed at begin time, carrying the current
            # generation: a wholesale clear in between invalidates it.
            self._at(self.sim.now + duration, self._spike_end, extra, self._spike_generation)

    def _spike_end(self, extra: Duration, generation: int) -> None:
        links = self._links()
        if generation != self._spike_generation:
            return  # this spike was already reverted by clear_latency_spikes
        self._active_spikes -= 1
        total = links.extra_latency - extra
        if self._active_spikes == 0:
            # Snap instead of trusting float subtraction to cancel: any
            # residue here would be an accounting bug, not physics.
            total = 0.0
        links.extra_latency = total
        self._record("latency-spike", -extra, total)

    # ------------------------------------------------------------------ #
    # Scheduled faults
    # ------------------------------------------------------------------ #
    def _at(self, time: Time, fn: Callable[..., None], *args: Any) -> None:
        self.sim.schedule_at(time, fn, args, priority=PRIORITY_CONTROL)

    def crash_at(self, time: Time, machine_id: int) -> None:
        """Schedule a crash of *machine_id* at absolute instant *time*."""
        self._at(time, self.crash, machine_id)

    def recover_at(self, time: Time, machine_id: int) -> None:
        """Schedule a recovery of *machine_id* at *time*."""
        self._at(time, self.recover, machine_id)

    def partition_at(self, time: Time, *groups: Sequence[int]) -> None:
        """Schedule a partition into *groups* at *time*."""
        self._at(time, self.partition, *[tuple(g) for g in groups])

    def partition_oneway_at(
        self, time: Time, src_side: Sequence[int], dst_side: Sequence[int]
    ) -> None:
        """Schedule a one-way partition (*src_side* → *dst_side*) at *time*."""
        self._at(time, self.partition_oneway, tuple(src_side), tuple(dst_side))

    def heal_at(self, time: Time) -> None:
        """Schedule a full heal at *time*."""
        self._at(time, self.heal)

    def impair_link_at(self, time: Time, src: int, dst: int, **impairment: Any) -> None:
        """Schedule a link impairment at *time* (kwargs of :meth:`impair_link`)."""
        self._at(time, lambda: self.impair_link(src, dst, **impairment))

    def clear_link_at(self, time: Time, src: int, dst: int) -> None:
        """Schedule removal of the *src↔dst* impairment at *time*."""
        self._at(time, self.clear_link, src, dst)

    def latency_spike_at(
        self, time: Time, extra: Duration, duration: Optional[Duration] = None
    ) -> None:
        """Schedule a latency spike at *time*; auto-reverts after *duration*.

        Same additive semantics as the immediate :meth:`latency_spike`:
        overlapping spikes compose and each one reverts only its own
        contribution when it ends.
        """
        self._at(time, self._spike_begin, extra, duration)

    # ------------------------------------------------------------------ #
    # Randomised schedules (drawn from the injector's own stream)
    # ------------------------------------------------------------------ #
    def random_crashes(
        self,
        count: int,
        start: Time,
        window: Duration,
        candidates: Optional[Sequence[int]] = None,
        recover_after: Optional[Duration] = None,
    ) -> List[Tuple[Time, int]]:
        """Crash *count* distinct machines at uniform instants in
        ``[start, start+window)``; optionally recover each after
        *recover_after*.  Returns the (time, machine) schedule drawn."""
        pool = sorted(self._machines) if candidates is None else sorted(candidates)
        if count > len(pool):
            raise SimulationError(
                f"cannot crash {count} machines out of {len(pool)} candidates"
            )
        picks = self.draws.raw.choice(len(pool), size=count, replace=False)
        times = sorted(
            float(start + t * window) for t in self.draws.random_block(count)
        )
        schedule = [(t, pool[int(i)]) for t, i in zip(times, picks)]
        for t, machine_id in schedule:
            self.crash_at(t, machine_id)
            if recover_after is not None:
                self.recover_at(t + recover_after, machine_id)
        return schedule

    def churn(
        self,
        machine_ids: Sequence[int],
        start: Time,
        period: Duration,
        downtime: Duration,
        cycles: int = 1,
    ) -> None:
        """Cycle each listed machine through crash→recover *cycles* times.

        Machine *k* of the list starts its first outage at
        ``start + k * period / len(machine_ids)`` (staggered), stays down
        *downtime*, and repeats every *period*.
        """
        if downtime >= period:
            raise SimulationError("churn downtime must be shorter than the period")
        ids = list(machine_ids)
        for k, machine_id in enumerate(ids):
            first = start + k * period / max(1, len(ids))
            for cycle in range(cycles):
                down = first + cycle * period
                self.crash_at(down, machine_id)
                self.recover_at(down + downtime, machine_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector faults={len(self.records)} machines={len(self._machines)}>"
