"""Experiment scaffolding: building and running the Figure 4 stack.

:func:`build_group_comm_system` is the code rendering of the paper's
Figure 4 ("Architecture of the group communication stack"): on every
machine — UDP, RP2P, FD, CT (consensus), ABcast, Repl, GM — plus the
substrate pieces the figure leaves implicit (reliable broadcast inside
CT) and the measurement layer (load generator, delivery probe).

Every experiment, most integration tests and the realtime soak go
through this builder: a :class:`~repro.scenarios.spec.ScenarioSpec` says
what runs, and the :class:`~repro.runtime.api.Backend` (the simulated
twin by default, the real-socket one for the soak) brings its
:class:`~repro.runtime.api.Calibration`.  Every experiment point is a
checked scenario run (:func:`experiment_run`, :func:`run_checked`) of a
spec varied from :data:`~repro.scenarios.spec.PAPER_SPEC`.

:func:`collect_rejoined` and :func:`pending_deliveries` are the one
re-join rule and the one quiescence rule, and
:meth:`GroupCommSystem.run_to_quiescence` is the one drain, on either
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, AbstractSet, Callable, Dict, FrozenSet, List, Mapping, Optional,
    Sequence,
)

from ..abcast import CtAbcastModule, SequencerAbcastModule, TokenAbcastModule
from ..baselines import BarrierModule, GracefulAdaptorModule, MaestroSwitchModule
from ..consensus import CtConsensusModule
from ..dpu import AbcastProbeModule, DeliveryLog, ReplAbcastModule, ReplacementManager
from ..dpu.abcast_checker import is_post_rejoin_send
from ..dpu.probes import is_workload_key
from ..errors import PropertyViolation, ScenarioError
from ..fd import HeartbeatFd
from ..gm import GroupMembershipModule
from ..kernel import STRUCTURAL_TRACE_KINDS, ProtocolRegistry, TraceKind, WellKnown
from ..net import Rp2pModule, UdpModule
from ..rbcast import RBCAST_SERVICE, RbcastModule
from ..runtime.api import Backend
from ..runtime.sim_backend import SimBackend
from ..workload import FixedPayload, LoadGeneratorModule

if TYPE_CHECKING:
    from ..scenarios.engine import ScenarioRun
    from ..scenarios.spec import ScenarioSpec

__all__ = [
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

#: The kernel trace depths a build accepts (``build_group_comm_system``'s
#: *trace*), each mapped to the ``keep`` set of the run's recorder:
#: ``"full"`` records every kernel event (tests, debugging),
#: ``"structural"`` drops the per-call/per-response firehose but keeps
#: everything the property checkers consume (the default everywhere;
#: reports are byte-identical to full), ``"off"`` records nothing.  The
#: scenario and fuzz CLIs offer exactly these keys.
TRACE_MODES: Mapping[str, Optional[FrozenSet[TraceKind]]] = {
    "full": None,
    "structural": STRUCTURAL_TRACE_KINDS,
    "off": frozenset(),
}


@dataclass
class GroupCommSystem:
    """A built system plus its measurement handles."""

    #: What was built: the stack shape, workload and network floors.
    spec: "ScenarioSpec"
    seed: int
    #: The runtime the stacks run on, and the one surface to reach them,
    #: their nodes, transport and trace.
    backend: Backend
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
        exemption back.  *step* must be positive: the backend clock
        advances by it per poll.
        """
        if not step > 0:  # NaN fails too
            raise ValueError(f"run_to_quiescence step must be > 0, got {step!r}")
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
    for stack in gcs.backend.stacks:
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

    nodes = gcs.backend.nodes
    delivered = {
        s: log.delivered_set(s)
        for s in range(gcs.spec.n)
        if s not in exempt and not nodes[s].ever_crashed
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


def register_standard_protocols(registry: ProtocolRegistry, group: Sequence[int],
                                token_idle_hold: float) -> None:
    """Register the three ABcast protocols + CT consensus in *registry*.

    The registry is what Algorithm 1's ``create_module`` recursion draws
    from; ``default_for`` entries make the recursion deterministic.
    *token_idle_hold* is the token protocol's idle hold (a
    :class:`~repro.runtime.api.Calibration` field).
    """
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
            st, group, idle_hold=token_idle_hold, **kw
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
    spec: "ScenarioSpec",
    seed: int = 0,
    backend: Optional[Backend] = None,
    *,
    trace: str = "structural",
    with_repl_layer: bool = True,
    baseline: Optional[str] = None,
) -> GroupCommSystem:
    """Build the paper's Figure 4 stack set of *spec* on every node of
    *backend*, with the backend's :class:`~repro.runtime.api.Calibration`.

    With no *backend*, a fresh :class:`~repro.runtime.sim_backend.SimBackend`
    is built at *seed* and *trace* depth (a :data:`TRACE_MODES` key; an
    unknown one raises :class:`~repro.errors.ScenarioError`) with the
    spec's network floors.
    A given backend (started, with one empty stack per node) brings its
    own clock, transport and link policy.  The client load runs until
    ``spec.duration``.  *with_repl_layer* puts the replacement layer
    between the workload and ABcast; *baseline* (``"maestro"`` or
    ``"graceful"``) runs a blocking DPU solution in it instead of
    Algorithm 1.
    """
    if baseline is not None and baseline not in ("maestro", "graceful"):
        raise ValueError(f"unknown baseline {baseline!r}")
    if baseline is not None and not with_repl_layer:
        raise ValueError("a baseline run implies an indirection layer")

    if trace not in TRACE_MODES:
        raise ScenarioError(
            f"unknown trace mode {trace!r}; expected one of {tuple(TRACE_MODES)}"
        )
    if backend is None:
        backend = SimBackend(
            n=spec.n,
            seed=seed,
            loss_rate=spec.loss_rate,
            duplicate_rate=spec.duplicate_rate,
            trace_kinds=TRACE_MODES[trace],
        )
        backend.transport.links.corrupt_rate = spec.corrupt_rate
        backend.transport.links.checksum = spec.checksum
    if backend.n != spec.n:
        raise ValueError(f"spec.n={spec.n} but the backend has {backend.n} nodes")
    cal = backend.calibration
    registry, network = backend.registry, backend.transport
    group = list(range(spec.n))
    register_standard_protocols(registry, group, cal.token_idle_hold)

    log = DeliveryLog()
    generators: List[LoadGeneratorModule] = []
    app_service = WellKnown.R_ABCAST if with_repl_layer else WellKnown.ABCAST
    protocol, cost = spec.initial_protocol, spec.creation_cost

    for stack in backend.stacks:
        stack.add_module(UdpModule(stack, network, cal.udp_recv_cost, cal.udp_send_cost))
        stack.add_module(Rp2pModule(stack))
        stack.add_module(HeartbeatFd(stack, group, period=cal.fd_period, timeout=cal.fd_timeout))
        stack.add_module(RbcastModule(stack, group))
        if protocol == PROTOCOL_CT:
            stack.add_module(CtConsensusModule(stack, group))
        # The initial ABcast protocol, incarnation v0.
        info = registry.info(protocol)
        stack.add_module(info.factory(stack))

        if baseline == "maestro":
            stack.add_module(MaestroSwitchModule(stack, registry, group, protocol, cost))
        elif baseline == "graceful":
            stack.add_module(BarrierModule(stack, group))
            stack.add_module(GracefulAdaptorModule(
                stack, registry, group, protocol, allowed_services=info.requires, creation_cost=cost
            ))
        elif with_repl_layer:
            stack.add_module(ReplAbcastModule(
                stack, registry, initial_protocol=protocol,
                guard_change_sn=spec.guard_change_sn, reissue_policy=spec.reissue_policy,
                creation_cost=cost,
            ))

        if spec.with_gm:
            stack.add_module(GroupMembershipModule(stack, group, abcast_service=app_service))
        stack.add_module(
            AbcastProbeModule(stack, log, service=app_service, key_filter=is_workload_key)
        )
        generator = LoadGeneratorModule(
            stack,
            log,
            # The paper's constant load, split evenly across machines.
            rate_per_sec=spec.load_msgs_per_sec / spec.n,
            start_at=cal.load_start + stack.stack_id * (1.0 / spec.load_msgs_per_sec),
            stop_at=spec.duration,
            service=app_service,
            payload=FixedPayload(spec.payload_bytes),
            jitter=spec.load_jitter,
            burst=spec.load_burst,
        )
        stack.add_module(generator)
        generators.append(generator)

    manager: Optional[ReplacementManager] = None
    if with_repl_layer and baseline is None:
        manager = ReplacementManager(backend)

    return GroupCommSystem(
        spec=spec,
        seed=seed,
        backend=backend,
        log=log,
        generators=generators,
        manager=manager,
        app_service=app_service,
    )


def experiment_run(
    spec: "ScenarioSpec",
    seed: int = 0,
    *,
    with_repl_layer: bool = True,
    baseline: Optional[str] = None,
) -> "ScenarioRun":
    """One experiment point as an armed scenario run of *spec* at
    *seed*, on a fresh simulated system at the default structural trace."""
    # Deferred: the scenario engine imports this module.
    from ..scenarios import engine

    return engine.ScenarioRun(
        build_group_comm_system(
            spec, seed, with_repl_layer=with_repl_layer, baseline=baseline
        )
    )


def run_checked(run: "ScenarioRun") -> GroupCommSystem:
    """Drive *run* and return its system; raise
    :class:`~repro.errors.PropertyViolation` unless every checker passed."""
    run.drive()
    violations = run.check().violations
    lines = [f"{prop}: {line}" for prop, found in sorted(violations.items()) for line in found]
    if lines:
        raise PropertyViolation(run.spec.name, "\n".join(lines))
    return run.gcs
