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

``--chaos`` arms a :class:`~repro.sim.faults.FaultInjector` on the live
cluster — the one injector, mutating the transport's link policy and
firing at wall-clock instants: a scheduled
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

The stack set is :func:`~repro.experiments.common.build_group_comm_system`
on the soak's calibration (:func:`build_soak_system`), and the drain
uses that module's re-join and quiescence rules — the simulator's
builder and rules, on real sockets.  ``tests/integration/
test_cross_backend.py`` builds the stack set on both twins and compares
the outcomes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..dpu import DeliveryLog, ReplacementManager
from ..dpu.abcast_checker import (
    chain_agreement_violations,
    check_all_abcast_properties,
    check_recovery_liveness,
    is_post_rejoin_send,
)
from ..dpu.repl import NEW_ABCAST
from ..experiments.common import (
    GroupCommConfig,
    GroupCommSystem,
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    build_group_comm_system,
    collect_rejoined,
    pending_deliveries,
)
from ..scenarios.spec import Crash, Heal, ImpairLink, LatencySpike, Partition, Recover
from ..sim.faults import FaultInjector
from .api import Backend
from .realtime import RealtimeBackend

__all__ = [
    "SoakConfig",
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


def build_soak_system(config: SoakConfig, backend: Backend) -> GroupCommSystem:
    """Assemble the Figure 4 stack set on an already-started *backend*:
    :func:`~repro.experiments.common.build_group_comm_system` on the
    soak's calibration (load from 0.1 s, no kernel trace, GM with chaos)."""
    return build_group_comm_system(
        GroupCommConfig(
            n=config.nodes,
            seed=config.seed,
            load_msgs_per_sec=config.rate_per_sec,
            payload_bytes=config.payload_bytes,
            load_start=0.1,
            load_stop=config.duration,
            initial_protocol=config.initial_protocol,
            creation_cost=config.creation_cost,
            guard_change_sn=config.guard_change_sn,
            with_gm=config.with_gm or config.chaos,
            fd_period=config.fd_period,
            fd_timeout=config.fd_timeout,
            trace="off",
        ),
        backend,
    )


def _snapshot(gcs: GroupCommSystem, manager: ReplacementManager,
              injector: Optional[FaultInjector]) -> Dict[str, Any]:
    """One JSON-able health/metrics snapshot of the running soak."""
    system, log, n = gcs.system, gcs.log, gcs.config.n
    out: Dict[str, Any] = {
        "now": system.sim.now,
        "nodes": n,
        "events_processed": system.sim.events_processed,
        "sends": len(log.sends),
        "deliveries": {s: len(log.delivered_set(s)) for s in range(n)},
        "protocols": manager.current_protocols(),
        "switches_complete": {
            v: manager.replacement_complete(v) for v in sorted(manager.windows)
        },
        "latency": _latency_percentiles(log),
        "stale": manager.stale_classification(),
        "transport": gcs.network.stats(),
    }
    if injector is not None:
        kinds = Counter(record.kind for record in injector.records)
        out["chaos"] = {
            "counters": dict(sorted(kinds.items())),
            "records": [record.to_dict() for record in injector.records],
            "crashed_ever": {
                str(k): v for k, v in sorted(injector.crashed_ever().items())
            },
            "rejoined": {
                str(k): v for k, v in sorted(collect_rejoined(gcs).items())
            },
            "stale_changes_discarded": sum(
                manager.module(s).counters.get("stale_changes_discarded")
                for s in range(n)
            ),
        }
    return out


# --------------------------------------------------------------------- #
# Health endpoint
# --------------------------------------------------------------------- #
def _start_health_server(snapshot: Callable[[], Dict[str, Any]],
                         config: SoakConfig, backend: RealtimeBackend) -> Any:
    """Serve ``snapshot()`` as JSON over HTTP on the backend's loop;
    returns the listening server."""

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            await reader.readline()  # request line; any path serves metrics
            body = json.dumps(snapshot(), sort_keys=True).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        finally:
            writer.close()

    return backend.run_coro(asyncio.start_server(handle, config.host, config.health_port))


def _probe_health(server: Any, backend: RealtimeBackend) -> bool:
    """GET the health endpoint through a real TCP connection; parse it."""
    host, port = server.sockets[0].getsockname()[:2]

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


# --------------------------------------------------------------------- #
# Driving
# --------------------------------------------------------------------- #
def _pending(gcs: GroupCommSystem, backend: RealtimeBackend) -> Dict[str, int]:
    """The quiescence rule of :func:`~repro.experiments.common.
    pending_deliveries`, every ever-crashed stack exempt (re-joined ones
    narrowed back), keyed by stack id as a string for the report."""
    exempt = {s for s in range(backend.n) if backend.machine(s).ever_crashed}
    pending = pending_deliveries(gcs, exempt, collect_rejoined(gcs))
    return {str(s): count for s, count in pending.items()}


def _drain(gcs: GroupCommSystem, backend: RealtimeBackend,
           config: SoakConfig) -> Tuple[bool, Dict[str, int]]:
    """Run past the load window until every obligation is delivered.

    Returns ``(drained, pending)`` where *pending* names the stacks that
    failed to quiesce and how many deliveries each still owes — so a
    chaos-soak failure is diagnosable straight from the CI artifact.
    """
    deadline = backend.sim.now + config.drain_extra
    pending = _pending(gcs, backend)
    while backend.sim.now < deadline:
        backend.run(config.drain_step)
        pending = _pending(gcs, backend)
        if not pending:
            return True, {}
    return False, pending


def _arm_stale_probe(gcs: GroupCommSystem, manager: ReplacementManager,
                     backend: RealtimeBackend) -> None:
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
    target = 1 if backend.n > 1 else 0
    forged = (NEW_ABCAST, 0, (999, 0), gcs.config.initial_protocol)

    def inject(version: int, protocol: str, when: float) -> None:
        if version != 1:
            return
        module = manager.module(target)
        backend.machine(target).execute(
            0.0, module._on_adeliver, (target, forged, 64)
        )

    manager.on_version_closed.append(inject)


def run_soak(config: SoakConfig) -> Dict[str, Any]:
    """Run one full soak on a fresh realtime backend; return the report."""
    backend = RealtimeBackend(config.nodes, seed=config.seed, host=config.host)
    backend.start()
    gcs = build_soak_system(config, backend)
    manager = gcs.manager
    assert manager is not None  # the soak's stack set has the replacement layer
    log = gcs.log
    injector: Optional[FaultInjector] = None
    if config.chaos:
        injector = FaultInjector(
            backend.sim, backend.nodes, network=backend.network, name="chaos"
        )
        faults = (
            config.fault_plan
            if config.fault_plan is not None
            else default_chaos_faults(config)
        )
        for action in faults:
            action.schedule(injector)
        _arm_stale_probe(gcs, manager, backend)
    server = None
    if config.health_port is not None:
        server = _start_health_server(
            lambda: _snapshot(gcs, manager, injector), config, backend
        )
    for fraction, protocol in config.plan:
        manager.request_change(protocol, from_stack=0, at=fraction * config.duration)

    wall_start = time.monotonic()
    backend.run(config.duration)
    drained, drain_pending = _drain(gcs, backend, config)
    wall_elapsed = time.monotonic() - wall_start

    health_ok = _probe_health(server, backend) if server is not None else None
    snapshot = _snapshot(gcs, manager, injector)

    stacks = list(range(backend.n))
    crashed: Dict[int, float] = (
        dict(injector.crashed_ever()) if injector is not None else {}
    )
    rejoined = collect_rejoined(gcs)
    in_flight = {
        key
        for key, (sender, t_send) in log.sends.items()
        if sender in crashed and not is_post_rejoin_send(sender, t_send, rejoined)
    }
    violations = check_all_abcast_properties(
        log, crashed=crashed, stacks=stacks, in_flight_ok=in_flight or None
    )
    violations["recovery liveness"] = check_recovery_liveness(log, rejoined, crashed)
    chains = {
        sid: [protocol for _version, protocol in trajectory]
        for sid, trajectory in manager.protocol_trajectories().items()
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
    ) == len(config.plan)

    if server is not None:
        server.close()
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
