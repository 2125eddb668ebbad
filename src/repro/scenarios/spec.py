"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one adversarial execution: the protocol
stack to build (group size, initial protocol, GM on/off), the workload
shape (rate, payload, jitter, bursts), a **fault schedule** (a tuple of
the fault actions below), and a **switch plan** (see
:mod:`repro.scenarios.switchplan`).  Specs are frozen dataclasses so a
scenario is a value: hashable, comparable, and trivially reproducible —
``run_scenario(spec, seed)`` is a pure function of its arguments.

Fault actions are tiny declarative records; each knows how to schedule
itself on a :class:`~repro.sim.faults.FaultInjector` and which machines
it makes *faulty* (used by the engine to exempt those machines from the
liveness-flavoured property checks, which quantify over correct
processes only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

from ..errors import ScenarioError
from ..experiments.common import PROTOCOL_CT
from ..sim.clock import Duration, Time
from ..sim.faults import FaultInjector
from .switchplan import SwitchStep

__all__ = [
    "Crash",
    "Recover",
    "Partition",
    "PartitionOneWay",
    "Heal",
    "ImpairLink",
    "LatencySpike",
    "Churn",
    "RandomCrashes",
    "FaultAction",
    "ScenarioSpec",
    "PAPER_SPEC",
]


# --------------------------------------------------------------------------- #
# Fault actions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Crash:
    """Crash *machine* at instant *at*."""

    at: Time
    machine: int

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.crash_at(self.at, self.machine)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down."""
        return (self.machine,)


@dataclass(frozen=True)
class Recover:
    """Recover *machine* at instant *at* (a new incarnation)."""

    at: Time
    machine: int

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.recover_at(self.at, self.machine)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down."""
        return (self.machine,)


@dataclass(frozen=True)
class Partition:
    """Split the network into *groups* at *at* (cross-group traffic drops)."""

    at: Time
    groups: Tuple[Tuple[int, ...], ...]

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.partition_at(self.at, *self.groups)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down (none)."""
        return ()


@dataclass(frozen=True)
class PartitionOneWay:
    """Drop *src* → *dst* traffic only from *at* (asymmetric partition).

    The reverse direction keeps flowing — the unidirectional-link
    failure mode: the *src* side still hears the group while its own
    frames vanish.  Healed by :class:`Heal` like symmetric splits.
    """

    at: Time
    src: Tuple[int, ...]
    dst: Tuple[int, ...]

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.partition_oneway_at(self.at, self.src, self.dst)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down (none)."""
        return ()


@dataclass(frozen=True)
class Heal:
    """Remove every partition at *at*."""

    at: Time

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.heal_at(self.at)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down (none)."""
        return ()


@dataclass(frozen=True)
class ImpairLink:
    """Degrade the *src↔dst* link from *at* (until *until*, if given)."""

    at: Time
    src: int
    dst: int
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay: Duration = 0.0
    extra_latency: Duration = 0.0
    corrupt_rate: float = 0.0
    until: Optional[Time] = None

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.impair_link_at(
            self.at,
            self.src,
            self.dst,
            loss_rate=self.loss_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            reorder_delay=self.reorder_delay,
            extra_latency=self.extra_latency,
            corrupt_rate=self.corrupt_rate,
        )
        if self.until is not None:
            injector.clear_link_at(self.until, self.src, self.dst)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down (none)."""
        return ()


@dataclass(frozen=True)
class LatencySpike:
    """Add *extra* seconds of one-way delay from *at* for *duration*."""

    at: Time
    extra: Duration
    duration: Optional[Duration] = None

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.latency_spike_at(self.at, self.extra, duration=self.duration)

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down (none)."""
        return ()


@dataclass(frozen=True)
class Churn:
    """Cycle *machines* through crash→recover outages (membership churn)."""

    start: Time
    machines: Tuple[int, ...]
    period: Duration
    downtime: Duration
    cycles: int = 1

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.churn(
            self.machines, self.start, self.period, self.downtime, cycles=self.cycles
        )

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down."""
        return tuple(self.machines)


@dataclass(frozen=True)
class RandomCrashes:
    """Crash *count* machines at seeded-random instants in a window."""

    start: Time
    window: Duration
    count: int
    candidates: Optional[Tuple[int, ...]] = None
    recover_after: Optional[Duration] = None

    def schedule(self, injector: FaultInjector) -> None:
        """Arm this action on *injector*."""
        injector.random_crashes(
            self.count,
            self.start,
            self.window,
            candidates=self.candidates,
            recover_after=self.recover_after,
        )

    def faulty_machines(self) -> Tuple[int, ...]:
        """The machines this action may take down (all candidates)."""
        # The concrete victims are drawn at schedule time; every candidate
        # is potentially faulty (the engine refines this with the
        # injector's actual records after the run).
        return tuple(self.candidates) if self.candidates is not None else ()


FaultAction = Union[
    Crash,
    Recover,
    Partition,
    PartitionOneWay,
    Heal,
    ImpairLink,
    LatencySpike,
    Churn,
    RandomCrashes,
]


# --------------------------------------------------------------------------- #
# Scenario specification
# --------------------------------------------------------------------------- #
#: The numeric fields a run cannot take every float for: ``(field, rule,
#: test)``.  A zero rate has no send period (the builder staggers stacks
#: by 1/rate); a non-positive step never advances the drain's clock; a
#: negative or NaN drain budget skips the drain without a word; a
#: creation cost is a delay; a corruption rate of 1 or more garbles
#: every datagram, a negative one none.
_FIELD_RULES: Tuple[Tuple[str, str, Callable[[float], bool]], ...] = (
    ("duration", "> 0", lambda v: v > 0),
    ("load_msgs_per_sec", "> 0", lambda v: v > 0),
    ("quiescence_step", "> 0", lambda v: v > 0),
    ("quiescence_extra", "finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
    ("creation_cost", "finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
    ("corrupt_rate", "in [0, 1)", lambda v: 0 <= v < 1),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named adversarial execution, fully declaratively.

    Attributes
    ----------
    name / description:
        Identity and one-line intent (shown by ``--list`` and in reports).
    n:
        Group size.
    duration:
        Instant the workload stops; the engine then drains to quiescence.
    load_msgs_per_sec / payload_bytes / load_jitter / load_burst:
        Workload shape (aggregate rate over all stacks).
    initial_protocol:
        The ABcast protocol bound at t=0 (under the replacement layer).
    with_gm:
        Attach the group-membership module (churn scenarios want it).
    loss_rate / duplicate_rate:
        LAN-wide impairment floors (per-link bursts come via faults).
    corrupt_rate / checksum:
        The Byzantine axis: a network-wide per-datagram corruption floor
        (per-link bursts via :class:`ImpairLink`) and whether receiver
        NICs verify a frame checksum.  Checksum on = corruption is
        *tolerated* (detected + dropped, retransmission recovers);
        off = mangled frames are delivered and the corruption
        containment checker flags the run.
    guard_change_sn / reissue_policy:
        The replacement layer's stale-change handling (the deviations
        in :mod:`repro.dpu.repl`'s module docstring).
        ``guard_change_sn=False`` runs the **paper-literal** variant whose
        uniform-agreement anomaly the pipelined regression tests pin.
    creation_cost:
        Simulated module-creation time per switch (the unbind→bind gap).
    kernel_rejoin_marker:
        Treat the kernel-level "restart complete" marker (every module
        re-armed in the new incarnation) as the re-join instant for
        recovered stacks that have no GM handshake.  Gives bare (no-GM)
        recovery scenarios the narrowed recovery-liveness obligations;
        GM handshakes, when present, still take precedence.
    faults:
        The fault schedule, as a tuple of fault actions.
    switches:
        The switch plan, as a tuple of switch steps.
    expected_faulty:
        Machines exempted from liveness checks even if they never crash
        (e.g. a minority side of a partition that is never healed).
    quiescence_extra / quiescence_step:
        Drain budget after *duration* (seconds past the last progress).
    """

    name: str
    description: str = ""
    n: int = 5
    duration: float = 6.0
    load_msgs_per_sec: float = 100.0
    payload_bytes: int = 512
    load_jitter: float = 0.0
    load_burst: int = 1
    initial_protocol: str = PROTOCOL_CT
    with_gm: bool = False
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    checksum: bool = True
    guard_change_sn: bool = True
    reissue_policy: str = "drop"
    creation_cost: float = 0.005
    kernel_rejoin_marker: bool = False
    faults: Tuple[FaultAction, ...] = ()
    switches: Tuple[SwitchStep, ...] = field(default_factory=tuple)
    expected_faulty: Tuple[int, ...] = ()
    quiescence_extra: float = 10.0
    quiescence_step: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ScenarioError(f"scenario {self.name!r}: n must be >= 1")
        for key, rule, holds in _FIELD_RULES:
            value = getattr(self, key)
            if not holds(value):  # NaN fails every rule
                raise ScenarioError(f"scenario {self.name!r}: {key} must be {rule}, got {value!r}")
        for machine in self.expected_faulty:
            if not 0 <= machine < self.n:
                raise ScenarioError(
                    f"scenario {self.name!r}: expected_faulty machine {machine} "
                    f"out of range for n={self.n}"
                )

    def uses_corruption(self) -> bool:
        """Whether any corruption knob is armed (spec floor or per-link).

        The engine adds the ``corruption containment`` violations key only
        for such scenarios, so corruption-free campaign reports (and their
        pinned goldens) keep their historical shape.
        """
        if self.corrupt_rate > 0.0:
            return True
        return any(
            isinstance(action, ImpairLink) and action.corrupt_rate > 0.0
            for action in self.faults
        )

    def declared_faulty(self) -> Tuple[int, ...]:
        """Machines the schedule may take down, plus *expected_faulty*."""
        out = set(self.expected_faulty)
        for action in self.faults:
            out.update(action.faulty_machines())
        return tuple(sorted(out))


#: The paper's evaluation setting (Section 6): seven stacks, 1 KiB
#: messages, 100 msg/s in aggregate, a 5 s drain budget.  The figure,
#: comparison and ablation harnesses vary it point by point.
PAPER_SPEC = ScenarioSpec(name="paper", n=7, payload_bytes=1024, quiescence_extra=5.0)
