"""Soak harness: the Figure 4 stack on real sockets, switching live.

``python -m repro.runtime.soak`` boots *n* complete group-communication
stacks — UDP, RP2P, heartbeat FD, reliable broadcast, consensus, ABcast,
and the replacement layer, all the *same unmodified module classes* the
simulator runs — on a :class:`~repro.runtime.realtime.RealtimeBackend`:
real asyncio UDP sockets on localhost, wall-clock timers.  It then
drives constant client traffic through a mid-run protocol-switch chain
(the paper's experiment, but live), drains to quiescence, checks the
four ABcast properties on the delivery log, and exits non-zero on any
violation or incomplete switch.

While running it serves a JSON health/metrics endpoint
(``--health-port``; port 0 picks a free one) reporting uptime, event
and datagram counters, per-node delivery counts, wall-clock
delivery-latency percentiles, and switch progress — the kind of surface
a long soak is watched through.

``--chaos`` arms the realtime chaos layer
(:class:`~repro.runtime.chaos.RealtimeFaultInjector`): a scheduled
crash → recover → partition → heal plan, with a lossy/duplicating link
and a latency spike riding along, runs *through* the protocol-switch
chain while the group-membership module expels and re-admits the
victim.  Degradation must stay graceful: the ABcast properties hold on
the survivor log (crash exemptions narrowed by the GM re-join, exactly
like the scenario engine), every stack traverses an agreeing protocol
chain, and the run still drains to quiescence after the heal.  A forged
*stale* change frame is injected mid-chain as a teeth check: the
guarded algorithm discards it (counted), while ``--unguarded`` runs the
paper-literal algorithm and is expected to FAIL the chain-agreement
check — proving the chaos gate can actually reject a bad run.

The builder is written against the :class:`~repro.runtime.api.Backend`
surface, so the conformance tests boot the identical stack set on
:class:`~repro.runtime.sim_backend.SimBackend` with the same code path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..dpu import AbcastProbeModule, DeliveryLog, ReplacementManager, ReplAbcastModule
from ..dpu.abcast_checker import (
    chain_agreement_violations,
    check_all_abcast_properties,
    check_recovery_liveness,
    is_post_rejoin_send,
)
from ..dpu.probes import is_workload_key
from ..dpu.repl import NEW_ABCAST
from ..experiments.common import (
    GroupCommConfig,
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    register_standard_protocols,
)
from ..fd import HeartbeatFd
from ..gm import GroupMembershipModule
from ..kernel import WellKnown
from ..kernel.registry import ProtocolRegistry
from ..kernel.stack import Stack
from ..kernel.trace import TraceRecorder
from ..net import Rp2pModule, UdpModule
from ..rbcast import RbcastModule
from ..scenarios.spec import Crash, Heal, ImpairLink, LatencySpike, Partition, Recover
from ..sim.clock import ms
from ..workload import FixedPayload, LoadGeneratorModule
from .api import Backend
from .chaos import RealtimeFaultInjector
from .realtime import RealtimeBackend

__all__ = [
    "SoakConfig",
    "SoakSystem",
    "build_soak_system",
    "default_chaos_faults",
    "run_soak",
    "main",
]

#: Default mid-run switch chain: one hop to each other protocol family.
DEFAULT_PLAN: Tuple[Tuple[float, str], ...] = (
    (0.25, PROTOCOL_SEQ),
    (0.5, PROTOCOL_TOKEN),
    (0.75, PROTOCOL_CT),
)

#: Chaos switch chain: two hops, timed so the first completes while the
#: victim is down (it must catch the chain up through re-join) and the
#: second lands after the partition heals.
CHAOS_PLAN: Tuple[Tuple[float, str], ...] = (
    (0.25, PROTOCOL_SEQ),
    (0.6, PROTOCOL_TOKEN),
)

#: Default chaos load window (seconds): long enough for a crash outage
#: to exceed the failure-detector timeout (expel + re-join exercised)
#: with a partition window shorter than it (no false suspicion).
CHAOS_DURATION: float = 10.0


def default_chaos_faults(config: "SoakConfig") -> Tuple[Any, ...]:
    """The default chaos fault plan, scaled to ``config.duration``.

    Calibrated against the soak's failure-detector settings
    (``fd_period=0.25``, ``fd_timeout=2.0``) at the default 10 s window:

    * crash the last node at ``0.18·D`` and recover it at ``0.45·D`` —
      a 2.7 s outage **exceeds** ``fd_timeout``, so the survivors
      suspect and (with GM) expel the victim, and its recovery must go
      through the full re-join state transfer;
    * a symmetric partition isolates the re-joined victim from
      ``0.58·D`` to ``0.75·D`` — 1.7 s, **under** ``fd_timeout``, so
      delivery stalls and recovers with no membership change;
    * a lossy + duplicating link between nodes 0 and 1 across the first
      switch window, and a network-wide latency spike near the end,
      stress retransmission and reordering on the way out.
    """
    d = config.duration
    victim = config.nodes - 1
    survivors = tuple(range(config.nodes - 1))
    return (
        Crash(at=0.18 * d, machine=victim),
        ImpairLink(
            at=0.30 * d, src=0, dst=1,
            loss_rate=0.05, duplicate_rate=0.05, until=0.50 * d,
        ),
        Recover(at=0.45 * d, machine=victim),
        Partition(at=0.58 * d, groups=(survivors, (victim,))),
        Heal(at=0.75 * d),
        LatencySpike(at=0.85 * d, extra=0.02, duration=0.05 * d),
    )


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run.

    Timer-ish durations are in seconds of backend time (wall-clock on
    the realtime backend).  The failure-detector calibration is much
    coarser than the simulated default because wall-clock scheduling
    jitter on a loaded CI box would otherwise produce false suspicions.
    """

    nodes: int = 3
    duration: float = 20.0
    seed: int = 0
    #: Aggregate client rate over all nodes (messages per second).
    rate_per_sec: float = 60.0
    payload_bytes: int = 256
    initial_protocol: str = PROTOCOL_CT
    #: Switch chain as ``(fraction_of_duration, protocol)`` pairs.
    plan: Tuple[Tuple[float, str], ...] = DEFAULT_PLAN
    host: str = "127.0.0.1"
    #: Health endpoint port (``0`` = OS-assigned, ``None`` = no server).
    health_port: Optional[int] = 0
    fd_period: float = 0.25
    fd_timeout: float = 2.0
    creation_cost: float = 5e-3
    #: Post-load budget to drain in-flight messages to quiescence.
    drain_extra: float = 5.0
    drain_step: float = 0.25
    #: Arm the realtime chaos layer (fault plan + degradation checks).
    chaos: bool = False
    #: Add the group-membership module (expel/re-join); implied by chaos.
    with_gm: bool = False
    #: Algorithm 1's stale-change guard; ``False`` runs the
    #: paper-literal variant the chaos teeth check expects to fail.
    guard_change_sn: bool = True
    #: Chaos fault plan (scenario ``FaultAction``s with absolute times);
    #: ``None`` selects :func:`default_chaos_faults`.
    fault_plan: Optional[Tuple[Any, ...]] = None


@dataclass
class SoakSystem:
    """A built soak: the backend plus its measurement handles."""

    config: SoakConfig
    backend: Backend
    log: DeliveryLog
    manager: ReplacementManager
    generators: List[LoadGeneratorModule]
    #: ``(absolute_instant, protocol)`` switch plan (resolved from fractions).
    switch_times: List[Tuple[float, str]] = field(default_factory=list)
    health_address: Optional[Tuple[str, int]] = None
    _health_server: Any = None
    #: The chaos injector, when ``config.chaos`` armed one.
    injector: Optional[RealtimeFaultInjector] = None

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-able health/metrics snapshot of the running soak."""
        backend = self.backend
        versions = {
            v: self.manager.replacement_complete(v)
            for v in sorted(self.manager.windows)
        }
        out: Dict[str, Any] = {
            "now": backend.sim.now,
            "nodes": backend.n,
            "events_processed": backend.sim.events_processed,
            "sends": len(self.log.sends),
            "deliveries": {
                s: len(self.log.delivered_set(s)) for s in range(backend.n)
            },
            "protocols": self.manager.current_protocols(),
            "switches_complete": versions,
            "latency": _latency_percentiles(self.log),
            "stale": self.manager.stale_classification(),
            "transport": backend.network.stats(),
        }
        if self.injector is not None:
            out["chaos"] = {
                "counters": self.injector.counters(),
                "records": self.injector.records_as_dicts(),
                "crashed_ever": {
                    str(k): v for k, v in sorted(self.injector.crashed_ever().items())
                },
                "rejoined": {
                    str(k): v for k, v in sorted(_collect_rejoined(self).items())
                },
                "stale_changes_discarded": sum(
                    self.manager.module(s).counters.get("stale_changes_discarded")
                    for s in range(backend.n)
                ),
            }
        return out


def build_soak_system(config: SoakConfig, backend: Backend) -> SoakSystem:
    """Assemble the Figure 4 stack set on an already-started *backend*.

    Mirrors :func:`repro.experiments.common.build_group_comm_system`
    module for module, but reaches the runtime only through the
    :class:`~repro.runtime.api.Backend` surface — the same builder boots
    the simulated and the real-socket twin.
    """
    group = list(range(backend.n))
    if getattr(backend, "registry", None) is None:
        backend.registry = ProtocolRegistry()
    if not getattr(backend, "stacks", None):
        trace = TraceRecorder(enabled=False)
        backend.stacks = [Stack(node, trace) for node in backend.nodes]

    gc_config = GroupCommConfig(
        n=backend.n, seed=config.seed, token_idle_hold=ms(1.0)
    )
    register_standard_protocols(backend, group, gc_config)

    log = DeliveryLog()
    generators: List[LoadGeneratorModule] = []
    needs_consensus = config.initial_protocol == PROTOCOL_CT

    for stack in backend.stacks:
        stack.add_module(UdpModule(stack, backend.network))
        stack.add_module(Rp2pModule(stack))
        stack.add_module(
            HeartbeatFd(
                stack, group, period=config.fd_period, timeout=config.fd_timeout
            )
        )
        stack.add_module(RbcastModule(stack, group))
        if needs_consensus:
            from ..consensus import CtConsensusModule

            stack.add_module(CtConsensusModule(stack, group))
        info = backend.registry.info(config.initial_protocol)
        stack.add_module(info.factory(stack))
        stack.add_module(
            ReplAbcastModule(
                stack,
                backend.registry,
                initial_protocol=config.initial_protocol,
                guard_change_sn=config.guard_change_sn,
                creation_cost=config.creation_cost,
            )
        )
        if config.with_gm or config.chaos:
            stack.add_module(
                GroupMembershipModule(
                    stack, group, abcast_service=WellKnown.R_ABCAST
                )
            )
        stack.add_module(
            AbcastProbeModule(
                stack, log, service=WellKnown.R_ABCAST, key_filter=is_workload_key
            )
        )
        generator = LoadGeneratorModule(
            stack,
            log,
            rate_per_sec=config.rate_per_sec / backend.n,
            start_at=0.1 + stack.stack_id * (1.0 / config.rate_per_sec),
            stop_at=config.duration,
            service=WellKnown.R_ABCAST,
            payload=FixedPayload(config.payload_bytes),
        )
        stack.add_module(generator)
        generators.append(generator)

    manager = ReplacementManager(backend)
    switch_times = [
        (fraction * config.duration, protocol) for fraction, protocol in config.plan
    ]
    return SoakSystem(
        config=config,
        backend=backend,
        log=log,
        manager=manager,
        generators=generators,
        switch_times=switch_times,
    )


# --------------------------------------------------------------------- #
# Health endpoint
# --------------------------------------------------------------------- #
def _start_health_server(soak: SoakSystem, backend: RealtimeBackend) -> None:
    """Serve ``soak.snapshot()`` as JSON over HTTP on the backend's loop."""

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            await reader.readline()  # request line; any path serves metrics
            body = json.dumps(soak.snapshot(), sort_keys=True).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        finally:
            writer.close()

    async def open_server() -> None:
        server = await asyncio.start_server(
            handle, soak.config.host, soak.config.health_port
        )
        soak._health_server = server
        soak.health_address = server.sockets[0].getsockname()[:2]

    backend.run_coro(open_server())


def _probe_health(soak: SoakSystem, backend: RealtimeBackend) -> bool:
    """GET the health endpoint through a real TCP connection; parse it."""
    if soak.health_address is None:
        return False
    host, port = soak.health_address

    async def fetch() -> bool:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        return head.startswith(b"HTTP/1.1 200") and "sends" in json.loads(body)

    try:
        return bool(backend.run_coro(fetch()))
    except Exception:
        return False


# --------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------- #
def _latency_percentiles(log: DeliveryLog) -> Dict[str, Any]:
    """Wall-clock send→deliver latency percentiles over every delivery.

    Each ``(key, t_deliver)`` pairs with its send instant; on the
    realtime backend both stamps come from the loop's monotonic clock,
    so these are honest end-to-end ABcast latencies through the real
    UDP sockets.
    """
    samples: List[float] = []
    for seq in log.deliveries.values():
        for key, t_deliver in seq:
            send = log.sends.get(key)
            if send is not None:
                samples.append(t_deliver - send[1])
    if not samples:
        return {"count": 0}
    samples.sort()
    last = len(samples) - 1

    def pct(p: float) -> float:
        return samples[min(last, int(p / 100.0 * len(samples)))]

    return {
        "count": len(samples),
        "p50": pct(50.0),
        "p95": pct(95.0),
        "p99": pct(99.0),
        "max": samples[-1],
    }


def _collect_rejoined(soak: SoakSystem) -> Dict[int, float]:
    """Stacks whose re-join completed for the incarnation still up
    (``stack -> completion instant``) — the scenario engine's rule.

    The GM handshake for the *current* epoch is the primary signal;
    stacks without a GM module fall back to the kernel's
    restart-complete marker.
    """
    out: Dict[int, float] = {}
    for stack in soak.backend.stacks:
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
        elif gm is None and stack.restart_completed_epoch == machine.epoch:
            out[stack.stack_id] = stack.restart_completed_at
    return out


# --------------------------------------------------------------------- #
# Driving
# --------------------------------------------------------------------- #
def _drain_pending(soak: SoakSystem) -> Dict[str, int]:
    """Per-stack count of obligations not yet delivered (empty = done).

    Obligations follow the scenario engine's quiescence rule: a
    never-crashed stack owes every send by a correct-or-rejoined sender
    (a crashed sender's pre-re-join sends are exempt in-flight losses)
    plus everything any correct stack already delivered (uniform
    agreement); a currently-crashed stack owes nothing; a rejoined
    stack owes the post-re-join sends.
    """
    log, backend = soak.log, soak.backend
    crashed_now = {
        s for s in range(backend.n) if backend.machine(s).crashed
    }
    rejoined = _collect_rejoined(soak)

    def obliged(sender: int, t_send: float) -> bool:
        if not backend.machine(sender).ever_crashed:
            return True
        return is_post_rejoin_send(sender, t_send, rejoined)

    targets = {
        key for key, (sender, t) in log.sends.items() if obliged(sender, t)
    }
    correct = [
        s
        for s in range(backend.n)
        if s not in crashed_now and not backend.machine(s).ever_crashed
    ]
    for s in correct:
        targets |= log.delivered_set(s)

    pending: Dict[str, int] = {}
    for s in correct:
        missing = len(targets - log.delivered_set(s))
        if missing:
            pending[str(s)] = missing
    for r, t_rejoin in rejoined.items():
        post_rejoin = {
            key
            for key, (sender, t) in log.sends.items()
            if t > t_rejoin and obliged(sender, t)
        }
        missing = len(post_rejoin - log.delivered_set(r))
        if missing:
            pending[str(r)] = pending.get(str(r), 0) + missing
    return pending


def _drain(soak: SoakSystem) -> Tuple[bool, Dict[str, int]]:
    """Run past the load window until every obligation is delivered.

    Returns ``(drained, pending)`` where *pending* names the stacks that
    failed to quiesce and how many deliveries each still owes — so a
    chaos-soak failure is diagnosable straight from the CI artifact.
    """
    backend = soak.backend
    deadline = backend.sim.now + soak.config.drain_extra
    pending = _drain_pending(soak)
    while backend.sim.now < deadline:
        backend.run(soak.config.drain_step)
        pending = _drain_pending(soak)
        if not pending:
            return True, {}
    return False, pending


def _arm_stale_probe(soak: SoakSystem) -> None:
    """Arm the chaos teeth check: one forged stale change frame.

    The moment version 1 closes cluster-wide, a fabricated
    ``(NEW_ABCAST, sn=0, ...)`` frame — a change message whose sequence
    number is one version stale, the paper's Section 5 anomaly — is fed
    to one stack's Adeliver interceptor.  Algorithm 1 with the
    sequence-number guard discards it (``stale_changes_discarded`` in
    the health snapshot); the paper-literal ``--unguarded`` variant
    accepts it, that stack's protocol chain diverges, and the
    chain-agreement check fails the run — proving the chaos gate
    rejects a genuinely inconsistent update.
    """
    backend = soak.backend
    target = 1 if backend.n > 1 else 0
    forged = (NEW_ABCAST, 0, (999, 0), soak.config.initial_protocol)

    def inject(version: int, protocol: str, when: float) -> None:
        if version != 1:
            return
        module = soak.manager.module(target)
        backend.machine(target).execute(
            0.0, module._on_adeliver, (target, forged, 64)
        )

    soak.manager.on_version_closed.append(inject)


def run_soak(config: SoakConfig) -> Dict[str, Any]:
    """Run one full soak on a fresh realtime backend; return the report."""
    backend = RealtimeBackend(config.nodes, seed=config.seed, host=config.host)
    backend.start()
    soak = build_soak_system(config, backend)
    if config.chaos:
        soak.injector = RealtimeFaultInjector(backend)
        faults = (
            config.fault_plan
            if config.fault_plan is not None
            else default_chaos_faults(config)
        )
        soak.injector.schedule_plan(faults)
        _arm_stale_probe(soak)
    if config.health_port is not None:
        _start_health_server(soak, backend)
    for at, protocol in soak.switch_times:
        soak.manager.request_change(protocol, from_stack=0, at=at)

    wall_start = time.monotonic()
    backend.run(config.duration)
    drained, drain_pending = _drain(soak)
    wall_elapsed = time.monotonic() - wall_start

    health_ok = (
        _probe_health(soak, backend) if config.health_port is not None else None
    )
    snapshot = soak.snapshot()

    stacks = list(range(backend.n))
    crashed: Dict[int, float] = (
        dict(soak.injector.crashed_ever()) if soak.injector is not None else {}
    )
    rejoined = _collect_rejoined(soak)
    in_flight = {
        key
        for key, (sender, t_send) in soak.log.sends.items()
        if sender in crashed and not is_post_rejoin_send(sender, t_send, rejoined)
    }
    violations = check_all_abcast_properties(
        soak.log, crashed=crashed, stacks=stacks, in_flight_ok=in_flight or None
    )
    violations["recovery liveness"] = check_recovery_liveness(
        soak.log, rejoined, crashed
    )
    chains = {
        sid: [protocol for _version, protocol in trajectory]
        for sid, trajectory in soak.manager.protocol_trajectories().items()
    }
    violations["chain agreement"] = chain_agreement_violations(
        chains, crashed=crashed
    )
    # Every stack that crashed and is back up must have completed its
    # re-join handshake, or the recovery path silently degraded.
    rejoin_ok = all(
        s in rejoined for s in crashed if not backend.machine(s).crashed
    )
    switches_ok = all(snapshot["switches_complete"].values()) and len(
        snapshot["switches_complete"]
    ) == len(soak.switch_times)

    if soak._health_server is not None:
        soak._health_server.close()
    backend.stop()

    ok = (
        drained
        and switches_ok
        and rejoin_ok
        and not any(violations.values())
        and health_ok is not False
    )
    return {
        "ok": ok,
        "backend": "realtime",
        "chaos_mode": config.chaos,
        "wall_elapsed": wall_elapsed,
        "drained": drained,
        "drain_pending": drain_pending,
        "switches_ok": switches_ok,
        "rejoin_ok": rejoin_ok,
        "health_ok": health_ok,
        "violations": {k: v for k, v in violations.items() if v},
        **snapshot,
    }


def _parse_plan(text: str, default: Tuple[Tuple[float, str], ...]
                ) -> Tuple[Tuple[float, str], ...]:
    """Parse ``"0.25:abcast-seq,0.5:abcast-token"`` into a switch plan."""
    if not text:
        return default
    plan: List[Tuple[float, str]] = []
    for part in text.split(","):
        fraction, _, protocol = part.partition(":")
        plan.append((float(fraction), protocol.strip()))
    return tuple(plan)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run a soak, print the JSON report, exit 0/1."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.soak", description=__doc__
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--duration", type=float, default=None,
                        help="load window in wall-clock seconds"
                        f" (default 20, or {CHAOS_DURATION:g} with --chaos)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=60.0,
                        help="aggregate client messages per second")
    parser.add_argument("--payload-bytes", type=int, default=256)
    parser.add_argument("--plan", type=str, default="",
                        help="switch chain, e.g. '0.25:abcast-seq,0.5:abcast-ct'"
                        " (fractions of --duration)")
    parser.add_argument("--chaos", action="store_true",
                        help="arm the fault plan (crash/recover/partition/"
                        "heal through the switch chain) and the graceful-"
                        "degradation checks")
    parser.add_argument("--unguarded", action="store_true",
                        help="run the paper-literal algorithm without the "
                        "stale-change guard; with --chaos this run is "
                        "EXPECTED to fail the chain-agreement check")
    parser.add_argument("--health-port", type=int, default=0,
                        help="health endpoint port (0 = auto, -1 = off)")
    parser.add_argument("--out", type=str, default="",
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)

    duration = args.duration
    if duration is None:
        duration = CHAOS_DURATION if args.chaos else 20.0
    config = SoakConfig(
        nodes=args.nodes,
        duration=duration,
        seed=args.seed,
        rate_per_sec=args.rate,
        payload_bytes=args.payload_bytes,
        plan=_parse_plan(args.plan, CHAOS_PLAN if args.chaos else DEFAULT_PLAN),
        health_port=None if args.health_port < 0 else args.health_port,
        chaos=args.chaos,
        guard_change_sn=not args.unguarded,
        drain_extra=8.0 if args.chaos else 5.0,
    )
    report = run_soak(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
