"""Experiment scaffolding: building and running the Figure 4 stack.

:func:`build_group_comm_system` is the code rendering of the paper's
Figure 4 ("Architecture of the group communication stack"): on every
machine — UDP, RP2P, FD, CT (consensus), ABcast, Repl, GM — plus the
substrate pieces the figure leaves implicit (reliable broadcast inside
CT) and the measurement layer (load generator, delivery probe).

Every experiment, most integration tests and the realtime soak go
through this builder, so its :class:`GroupCommConfig` is the single
place where the simulation is calibrated.  It assembles the stack set on
any :class:`~repro.runtime.api.Backend` — the simulated twin by default,
the real-socket one for the soak.  Every experiment point is a checked
scenario run on that system (:func:`experiment_run`, :func:`run_checked`).

:func:`collect_rejoined` and :func:`pending_deliveries` are the one
re-join rule and the one quiescence rule, and
:meth:`GroupCommSystem.run_to_quiescence` is the one drain, on either
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Sequence,
)

from ..abcast import CtAbcastModule, SequencerAbcastModule, TokenAbcastModule
from ..baselines import (
    BarrierModule,
    GracefulAdaptorModule,
    MaestroSwitchModule,
)
from ..consensus import CtConsensusModule
from ..dpu import (
    AbcastProbeModule,
    DeliveryLog,
    ReplAbcastModule,
    ReplacementManager,
)
from ..dpu.abcast_checker import is_post_rejoin_send
from ..dpu.probes import is_workload_key
from ..errors import PropertyViolation
from ..fd import HeartbeatFd
from ..gm import GroupMembershipModule
from ..kernel import STRUCTURAL_TRACE_KINDS, System, WellKnown
from ..net import Rp2pModule, SwitchedLan, UdpModule
from ..rbcast import RBCAST_SERVICE, RbcastModule
from ..runtime.api import Backend, Transport
from ..runtime.sim_backend import SimBackend
from ..sim.clock import Duration, ms, us
from ..sim.latency import lan_latency
from ..workload import FixedPayload, LoadGeneratorModule

if TYPE_CHECKING:
    from ..scenarios.engine import ScenarioRun
    from ..scenarios.switchplan import SwitchStep

__all__ = [
    "GroupCommConfig",
    "GroupCommSystem",
    "build_group_comm_system",
    "collect_rejoined",
    "experiment_run",
    "run_checked",
    "pending_deliveries",
    "register_standard_protocols",
    "PROTOCOL_CT",
    "PROTOCOL_SEQ",
    "PROTOCOL_TOKEN",
    "PROTOCOL_CONSENSUS_CT",
    "TRACE_MODES",
]

PROTOCOL_CT = "abcast-ct"
PROTOCOL_SEQ = "abcast-seq"
PROTOCOL_TOKEN = "abcast-token"
PROTOCOL_CONSENSUS_CT = "consensus-ct"

#: The kernel trace depths a build accepts (see ``GroupCommConfig.trace``);
#: the scenario engine and CLI validate against this same tuple.
TRACE_MODES = ("full", "structural", "off")


@dataclass(frozen=True)
class GroupCommConfig:
    """Everything needed to build and load one group-communication system.

    Defaults are the calibration used throughout DESIGN.md §6: a 100 Mb/s
    switched LAN, ~10 µs kernel dispatches, 1 KiB payloads.  The paper's
    absolute numbers are not reproducible (different hardware); the
    *shapes* in EXPERIMENTS.md are produced with exactly these values.
    """

    n: int = 7
    seed: int = 0
    # Workload -----------------------------------------------------------
    load_msgs_per_sec: float = 100.0   # aggregate over all stacks
    payload_bytes: int = 1024
    load_start: float = 0.0
    load_stop: Optional[float] = None
    load_jitter: float = 0.0
    load_burst: int = 1
    # Replacement layer ---------------------------------------------------
    with_repl_layer: bool = True
    initial_protocol: str = PROTOCOL_CT
    creation_cost: Duration = ms(5.0)
    guard_change_sn: bool = True
    reissue_policy: str = "drop"
    # Baseline layers (mutually exclusive with with_repl_layer) -----------
    baseline: Optional[str] = None      # None | "maestro" | "graceful"
    # Stack pieces ---------------------------------------------------------
    with_gm: bool = False
    # Substrate calibration -------------------------------------------------
    # CPU costs are calibrated to the paper's era (766 MHz Pentium III
    # running a Java protocol framework): one kernel dispatch ~30 µs, one
    # datagram receive ~120 µs.  These put the n=7 saturation knee in the
    # few-hundred-msgs/s range, like the paper's Figure 6.
    call_cost: Duration = us(30.0)
    response_cost: Duration = us(30.0)
    udp_recv_cost: Duration = us(120.0)
    udp_send_cost: Duration = us(60.0)
    bandwidth_bps: float = 100e6
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: Network-wide per-datagram corruption floor (the Byzantine axis).
    #: With ``checksum`` on (default) corrupted frames are detected and
    #: dropped at the receiver NIC; off = delivered mangled and flagged
    #: by the corruption containment checker.
    corrupt_rate: float = 0.0
    checksum: bool = True
    fd_period: Duration = ms(50.0)
    fd_timeout: Duration = ms(200.0)
    token_idle_hold: Duration = ms(1.0)
    #: Trace depth: ``"full"`` records every kernel event (tests,
    #: debugging), ``"structural"`` drops the per-call/per-response
    #: firehose but keeps everything the property checkers consume
    #: (campaign default — reports are byte-identical to full), ``"off"``
    #: records nothing.
    trace: str = "full"

    def per_stack_rate(self) -> float:
        """The paper's constant load split evenly across machines."""
        return self.load_msgs_per_sec / self.n


@dataclass
class GroupCommSystem:
    """A built system plus its measurement handles."""

    config: GroupCommConfig
    #: The runtime the stacks run on.
    backend: Backend
    #: The system surface the stacks, manager and checkers share: the
    #: simulated :class:`~repro.kernel.system.System` on ``SimBackend``;
    #: the realtime backend is its own (duck-typed) system.
    system: Any
    network: Transport
    log: DeliveryLog
    generators: List[LoadGeneratorModule]
    manager: Optional[ReplacementManager] = None
    #: The service the workload/GM/probes consume (r-abcast or abcast).
    app_service: str = WellKnown.R_ABCAST

    def run(self, until: float) -> None:
        """Run the backend up to instant *until*."""
        self.backend.run(until)

    def run_to_quiescence(
        self,
        extra: float = 5.0,
        step: float = 0.5,
        exempt: Sequence[int] = (),
        rejoined: Optional[Callable[[], Mapping[int, float]]] = None,
    ) -> Dict[int, int]:
        """Run until nothing is pending (:func:`pending_deliveries`) or
        the budget of *extra* more seconds of backend time is exhausted;
        return the last pending dict (empty = quiescent).

        *exempt* stacks (known-faulty: crashed, churned, or isolated) are
        held to no obligation.  *rejoined*, when given, is polled each
        step for the stacks whose crash-recovery re-join handshake has
        completed (``stack -> re-join instant``), which narrows their
        exemption back.
        """
        exempt_set = set(exempt)

        def owed() -> Dict[int, int]:
            rejoin_times = dict(rejoined()) if rejoined is not None else {}
            return pending_deliveries(self, exempt_set, rejoin_times)

        sim = self.backend.sim
        deadline = sim.now + extra
        while sim.now < deadline:
            self.backend.run(min(deadline, sim.now + step))
            pending = owed()
            if not pending:
                return pending
        return owed()

    def stacks(self) -> List:
        return self.system.stacks


def collect_rejoined(gcs: GroupCommSystem, kernel_marker: bool = False) -> Dict[int, float]:
    """Stacks whose re-join completed for the incarnation that is still
    up: ``stack -> re-join completion instant``.

    The GM re-join handshake is the primary signal; stale handshakes are
    discarded (a stack that crashed again after re-joining only counts
    once its *current* incarnation completed the handshake).  With
    *kernel_marker*, stacks lacking a GM handshake fall back to the
    kernel's "restart complete" marker — the instant every module
    re-armed in the new incarnation — so bare (no-GM) scenarios get the
    narrowed recovery-liveness obligations too.  Without either signal a
    recovered stack keeps the wide ever-crashed exemption.
    """
    out: Dict[int, float] = {}
    for stack in gcs.system.stacks:
        machine = stack.machine
        if machine.crashed or not machine.ever_crashed:
            continue
        gm = stack.bound_module(WellKnown.GM)
        if (
            gm is not None
            and getattr(gm, "rejoined_at", None) is not None
            and gm.rejoined_epoch == machine.epoch
        ):
            out[stack.stack_id] = gm.rejoined_at
        elif kernel_marker and stack.restart_completed_epoch == machine.epoch:
            out[stack.stack_id] = stack.restart_completed_at
    return out


def pending_deliveries(
    gcs: GroupCommSystem, exempt: AbstractSet[int], rejoined: Mapping[int, float]
) -> Dict[int, int]:
    """Per-stack count of deliveries still owed; empty means quiescent.

    A send is an obligation unless its sender is *exempt* (known-faulty)
    — a *rejoined* sender's sends after its re-join instant are
    obligations again.  Every correct stack (neither exempt nor ever
    crashed) owes every obligation plus everything any correct stack
    already delivered (uniform agreement); a rejoined stack owes every
    obligation sent after its own re-join instant.
    """
    log = gcs.log

    def obliged(sender: int, t_send: float) -> bool:
        return sender not in exempt or is_post_rejoin_send(sender, t_send, rejoined)

    delivered = {
        s: log.delivered_set(s)
        for s in range(gcs.config.n)
        if s not in exempt and not gcs.system.machine(s).ever_crashed
    }
    targets = {key for key, (sender, t) in log.sends.items() if obliged(sender, t)}
    for keys in delivered.values():
        targets |= keys
    pending: Dict[int, int] = {}
    for s, keys in delivered.items():
        missing = len(targets - keys)
        if missing:
            pending[s] = missing
    for r, t_rejoin in rejoined.items():
        have = log.delivered_set(r)
        missing = sum(
            1
            for key, (sender, t) in log.sends.items()
            if t > t_rejoin and key not in have and obliged(sender, t)
        )
        if missing:
            pending[r] = missing
    return pending


def register_standard_protocols(gcs_system: System, group: Sequence[int],
                                config: GroupCommConfig) -> None:
    """Register the three ABcast protocols + CT consensus in the registry.

    The registry is what Algorithm 1's ``create_module`` recursion draws
    from; ``default_for`` entries make the recursion deterministic.
    """
    registry = gcs_system.registry
    group = list(group)
    registry.register(
        PROTOCOL_CT,
        lambda st, **kw: CtAbcastModule(st, group, **kw),
        provides=(WellKnown.ABCAST,),
        requires=(RBCAST_SERVICE, WellKnown.CONSENSUS),
        default_for=(WellKnown.ABCAST,),
    )
    registry.register(
        PROTOCOL_SEQ,
        lambda st, **kw: SequencerAbcastModule(st, group, **kw),
        provides=(WellKnown.ABCAST,),
        requires=(WellKnown.RP2P, RBCAST_SERVICE),
    )
    registry.register(
        PROTOCOL_TOKEN,
        lambda st, **kw: TokenAbcastModule(
            st, group, idle_hold=config.token_idle_hold, **kw
        ),
        provides=(WellKnown.ABCAST,),
        requires=(WellKnown.RP2P, RBCAST_SERVICE),
    )
    registry.register(
        PROTOCOL_CONSENSUS_CT,
        lambda st, **kw: CtConsensusModule(st, group, **kw),
        provides=(WellKnown.CONSENSUS,),
        requires=(WellKnown.RP2P, WellKnown.FD, RBCAST_SERVICE),
        default_for=(WellKnown.CONSENSUS,),
    )


def build_group_comm_system(
    config: GroupCommConfig, backend: Optional[Backend] = None
) -> GroupCommSystem:
    """Build the paper's Figure 4 stack on every node of *backend*.

    With no *backend*, a fresh :class:`~repro.runtime.sim_backend.SimBackend`
    is built from *config* — its LAN, corruption, trace depth and CPU
    costs.  A given backend (started, with one empty stack per node)
    brings its own clock, transport and link policy; *config* then sets
    the stack set and the workload only.
    """
    if config.baseline is not None and config.baseline not in ("maestro", "graceful"):
        raise ValueError(f"unknown baseline {config.baseline!r}")
    if config.baseline is not None and not config.with_repl_layer:
        raise ValueError("a baseline run implies an indirection layer")

    if config.trace not in TRACE_MODES:
        raise ValueError(
            f"unknown trace mode {config.trace!r}; expected one of {TRACE_MODES}"
        )
    if backend is None:
        backend = SimBackend(
            n=config.n,
            seed=config.seed,
            lan=SwitchedLan(
                bandwidth_bps=config.bandwidth_bps,
                latency=lan_latency(),
                loss_rate=config.loss_rate,
                duplicate_rate=config.duplicate_rate,
            ),
            trace_enabled=config.trace != "off",
            trace_kinds=(
                STRUCTURAL_TRACE_KINDS if config.trace == "structural" else None
            ),
            call_cost=config.call_cost,
            response_cost=config.response_cost,
        )
        backend.transport.links.corrupt_rate = config.corrupt_rate
        backend.transport.links.checksum = config.checksum
    if backend.n != config.n:
        raise ValueError(f"config.n={config.n} but the backend has {backend.n} nodes")
    system = getattr(backend, "system", backend)
    network = backend.transport
    group = list(range(config.n))
    register_standard_protocols(system, group, config)

    log = DeliveryLog()
    generators: List[LoadGeneratorModule] = []
    app_service = WellKnown.R_ABCAST if config.with_repl_layer else WellKnown.ABCAST

    needs_consensus = config.initial_protocol == PROTOCOL_CT

    for stack in system.stacks:
        stack.add_module(
            UdpModule(
                stack,
                network,
                recv_cost=config.udp_recv_cost,
                send_cost=config.udp_send_cost,
            )
        )
        stack.add_module(Rp2pModule(stack))
        stack.add_module(
            HeartbeatFd(
                stack, group, period=config.fd_period, timeout=config.fd_timeout
            )
        )
        stack.add_module(RbcastModule(stack, group))
        if needs_consensus:
            stack.add_module(CtConsensusModule(stack, group))
        # The initial ABcast protocol, incarnation v0.
        info = system.registry.info(config.initial_protocol)
        stack.add_module(info.factory(stack))

        if config.baseline == "maestro":
            stack.add_module(
                MaestroSwitchModule(
                    stack,
                    system.registry,
                    group,
                    config.initial_protocol,
                    creation_cost=config.creation_cost,
                )
            )
        elif config.baseline == "graceful":
            stack.add_module(BarrierModule(stack, group))
            stack.add_module(
                GracefulAdaptorModule(
                    stack,
                    system.registry,
                    group,
                    config.initial_protocol,
                    allowed_services=info.requires,
                    creation_cost=config.creation_cost,
                )
            )
        elif config.with_repl_layer:
            stack.add_module(
                ReplAbcastModule(
                    stack,
                    system.registry,
                    initial_protocol=config.initial_protocol,
                    guard_change_sn=config.guard_change_sn,
                    reissue_policy=config.reissue_policy,
                    creation_cost=config.creation_cost,
                )
            )

        if config.with_gm:
            stack.add_module(
                GroupMembershipModule(stack, group, abcast_service=app_service)
            )
        stack.add_module(
            AbcastProbeModule(
                stack,
                log,
                service=app_service,
                key_filter=is_workload_key,
            )
        )
        generator = LoadGeneratorModule(
            stack,
            log,
            rate_per_sec=config.per_stack_rate(),
            start_at=config.load_start + stack.stack_id * (1.0 / config.load_msgs_per_sec),
            stop_at=config.load_stop,
            service=app_service,
            payload=FixedPayload(config.payload_bytes),
            jitter=config.load_jitter,
            burst=config.load_burst,
        )
        stack.add_module(generator)
        generators.append(generator)

    manager: Optional[ReplacementManager] = None
    if config.with_repl_layer and config.baseline is None:
        manager = ReplacementManager(system)

    return GroupCommSystem(
        config=config,
        backend=backend,
        system=system,
        network=network,
        log=log,
        generators=generators,
        manager=manager,
        app_service=app_service,
    )


def experiment_run(
    name: str, config: GroupCommConfig, duration: float, switches: Sequence["SwitchStep"] = ()
) -> "ScenarioRun":
    """One experiment point as an armed scenario run on a fresh system.

    The spec takes *config*'s workload, stopped at *duration* and then
    drained for up to 5 s, and the *switches*; the system is *config* at
    ``trace="structural"``, so what a spec cannot express
    (``with_repl_layer``, ``baseline``, the calibration) is kept.
    """
    # Deferred: the scenario engine imports this module.
    from ..scenarios import engine
    from ..scenarios.spec import CONFIG_FIELDS, ScenarioSpec

    shared = {key: getattr(config, key) for key in CONFIG_FIELDS}
    spec = ScenarioSpec(
        name=name, duration=duration, switches=tuple(switches), quiescence_extra=5.0, **shared
    )
    gcs = build_group_comm_system(replace(config, load_stop=duration, trace="structural"))
    return engine.ScenarioRun(spec, gcs)


def run_checked(run: "ScenarioRun") -> GroupCommSystem:
    """Drive *run* and return its system; raise
    :class:`~repro.errors.PropertyViolation` unless every checker passed."""
    run.drive()
    violations = run.check().violations
    lines = [f"{prop}: {line}" for prop, found in sorted(violations.items()) for line in found]
    if lines:
        raise PropertyViolation(run.spec.name, "\n".join(lines))
    return run.gcs
