"""Soak harness: the Figure 4 stack on real sockets, switching live.

``python -m repro.runtime.soak`` is the scenario engine on a
:class:`~repro.runtime.realtime.RealtimeBackend` — the *same unmodified
module classes* the simulator runs, over real asyncio UDP sockets on
localhost and wall-clock timers.  A :class:`SoakConfig` becomes a
:class:`~repro.scenarios.spec.ScenarioSpec` (:func:`soak_spec`: the
switch plan as ``SwitchAt`` steps, the chaos fault plan, the drain
budget), :func:`build_soak_system` builds it on the backend's
calibration (:data:`~repro.runtime.api.REALTIME_CALIBRATION` on real
sockets), and the engine's
:class:`~repro.scenarios.engine.ScenarioRun` arms, drives, drains and
checks it: the four ABcast properties, recovery liveness, and the trace
checkers (well-formedness, chain agreement, operationability) on the
backend's structural trace.  The run exits non-zero on any violation,
incomplete switch, missed re-join or failed drain.

What is the soak's own: a JSON health/metrics endpoint
(``--health-port``; port 0 picks a free one) with event and datagram
counters, per-node delivery counts, wall-clock latency percentiles and
switch progress; and, under ``--chaos`` (crash → recover → partition →
heal, a lossy link and a latency spike through the switch chain, GM
expelling and re-admitting the victim), a forged *stale* change frame
injected mid-chain as a teeth check: the guarded algorithm discards it,
while ``--unguarded`` runs the paper-literal algorithm and is expected
to FAIL chain agreement.  ``tests/integration/test_cross_backend.py``
runs the same configs on both twins and compares the outcomes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..dpu import DeliveryLog
from ..dpu.repl import NEW_ABCAST
from ..experiments.common import (
    GroupCommSystem,
    PROTOCOL_CT,
    PROTOCOL_SEQ,
    PROTOCOL_TOKEN,
    build_group_comm_system,
)
from ..scenarios.engine import ScenarioRun
from ..scenarios.spec import (
    Crash,
    Heal,
    ImpairLink,
    LatencySpike,
    Partition,
    Recover,
    ScenarioSpec,
)
from ..scenarios.switchplan import SwitchAt
from .api import Backend
from .realtime import RealtimeBackend

__all__ = [
    "SoakConfig",
    "arm_soak",
    "build_soak_system",
    "default_chaos_faults",
    "run_soak",
    "soak_spec",
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

    Calibrated against the realtime failure detector
    (:data:`~repro.runtime.api.REALTIME_CALIBRATION`: 0.25 s period,
    2 s timeout) at the default 10 s window:

    * crash the last node at ``0.18·D`` and recover it at ``0.45·D`` —
      a 2.7 s outage **exceeds** the FD timeout, so the survivors
      suspect and (with GM) expel the victim, and its recovery must go
      through the full re-join state transfer;
    * a symmetric partition isolates the re-joined victim from
      ``0.58·D`` to ``0.75·D`` — 1.7 s, **under** the FD timeout, so
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

    Durations are in seconds of backend time (wall-clock on the realtime
    backend); the protocol starts on ``abcast-ct``.
    """

    nodes: int = 3
    duration: float = 20.0
    seed: int = 0
    #: Aggregate client rate over all nodes (messages per second).
    rate_per_sec: float = 60.0
    payload_bytes: int = 256
    #: Switch chain as ``(fraction_of_duration, protocol)`` pairs.
    plan: Tuple[Tuple[float, str], ...] = DEFAULT_PLAN
    host: str = "127.0.0.1"
    #: Health endpoint port (``0`` = OS-assigned, ``None`` = no server).
    health_port: Optional[int] = 0
    #: Post-load budget to drain in-flight messages to quiescence.
    drain_extra: float = 5.0
    drain_step: float = 0.25
    #: Arm :func:`default_chaos_faults` and the stale probe.
    chaos: bool = False
    #: Add the group-membership module (expel/re-join); implied by chaos.
    with_gm: bool = False
    #: Algorithm 1's stale-change guard; ``False`` runs the
    #: paper-literal variant the chaos teeth check expects to fail.
    guard_change_sn: bool = True


def soak_spec(config: SoakConfig) -> ScenarioSpec:
    """The soak as a scenario: the plan as :class:`SwitchAt` steps from
    stack 0, the chaos fault plan when armed, the drain budget as the
    quiescence budget."""
    return ScenarioSpec(
        name="chaos",
        n=config.nodes,
        duration=config.duration,
        load_msgs_per_sec=config.rate_per_sec,
        payload_bytes=config.payload_bytes,
        with_gm=config.with_gm or config.chaos,
        guard_change_sn=config.guard_change_sn,
        faults=default_chaos_faults(config) if config.chaos else (),
        switches=tuple(
            SwitchAt(protocol, at=fraction * config.duration)
            for fraction, protocol in config.plan
        ),
        quiescence_extra=config.drain_extra,
        quiescence_step=config.drain_step,
    )


def build_soak_system(spec: ScenarioSpec, seed: int, backend: Backend) -> GroupCommSystem:
    """Assemble *spec*'s Figure 4 stack set on an already-started
    *backend*, on that backend's calibration.  The one builder under a
    name of its own: bench-e2e's tracer wraps it as the soak's build
    step (``benchmarks/e2e/tracing.py``)."""
    return build_group_comm_system(spec, seed, backend)


def _arm_stale_probe(gcs: GroupCommSystem) -> None:
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
    manager, backend = gcs.manager, gcs.backend
    assert manager is not None
    target = 1 if backend.n > 1 else 0
    forged = (NEW_ABCAST, 0, (999, 0), gcs.spec.initial_protocol)

    def inject(version: int, protocol: str, when: float) -> None:
        if version != 1:
            return
        module = manager.module(target)
        backend.nodes[target].execute(0.0, module._on_adeliver, (target, forged, 64))

    manager.on_version_closed.append(inject)


def arm_soak(config: SoakConfig, backend: Backend) -> ScenarioRun:
    """Build the soak on a started *backend* and arm it: the spec's
    faults and switches, plus the stale probe under chaos."""
    run = ScenarioRun(build_soak_system(soak_spec(config), config.seed, backend))
    if config.chaos:
        _arm_stale_probe(run.gcs)
    return run


def _latency_percentiles(log: DeliveryLog) -> Dict[str, Any]:
    """Wall-clock send→deliver latency percentiles over every delivery.

    Each ``(key, t_deliver)`` pairs with its send instant; on the
    realtime backend both stamps come from the loop's monotonic clock,
    so these are honest end-to-end ABcast latencies through the real
    UDP sockets.
    """
    samples = sorted(
        t_deliver - log.sends[key][1]
        for seq in log.deliveries.values()
        for key, t_deliver in seq
        if key in log.sends
    )
    if not samples:
        return {"count": 0}

    def pct(p: float) -> float:
        return samples[min(len(samples) - 1, int(p / 100.0 * len(samples)))]

    return {
        "count": len(samples),
        "p50": pct(50.0),
        "p95": pct(95.0),
        "p99": pct(99.0),
        "max": samples[-1],
    }


def _snapshot(run: ScenarioRun, chaos: bool) -> Dict[str, Any]:
    """One JSON-able health/metrics snapshot of the running soak."""
    gcs, injector = run.gcs, run.injector
    manager, log, n = gcs.manager, gcs.log, gcs.spec.n
    assert manager is not None  # the soak's stack set has the replacement layer
    sim = gcs.backend.sim
    out: Dict[str, Any] = {
        "now": sim.now,
        "nodes": n,
        "events_processed": sim.events_processed,
        "sends": len(log.sends),
        "deliveries": {s: len(log.delivered_set(s)) for s in range(n)},
        "protocols": manager.current_protocols(),
        "switches_complete": {
            v: manager.replacement_complete(v) for v in sorted(manager.windows)
        },
        "latency": _latency_percentiles(log),
        "stale": manager.stale_classification(),
        "transport": gcs.backend.transport.stats(),
    }
    if chaos:
        kinds = Counter(record.kind for record in injector.records)
        out["chaos"] = {
            "counters": dict(sorted(kinds.items())),
            "records": [record.to_dict() for record in injector.records],
            "crashed_ever": {
                str(k): v for k, v in sorted(injector.crashed_ever().items())
            },
            "rejoined": {str(k): v for k, v in sorted(run.rejoined().items())},
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
# Driving
# --------------------------------------------------------------------- #
def run_soak(config: SoakConfig) -> Dict[str, Any]:
    """Run one full soak on a fresh realtime backend; return the report."""
    backend = RealtimeBackend(config.nodes, seed=config.seed, host=config.host)
    backend.start()
    run = arm_soak(config, backend)
    server = None
    if config.health_port is not None:
        server = _start_health_server(lambda: _snapshot(run, config.chaos), config, backend)

    wall_start = time.monotonic()
    pending = run.drive()
    wall_elapsed = time.monotonic() - wall_start

    health_ok = _probe_health(server, backend) if server is not None else None
    snapshot = _snapshot(run, config.chaos)
    result = run.check()
    if server is not None:
        server.close()
    backend.stop()

    # Every stack that crashed and is back up must have completed its
    # re-join handshake, or the recovery path silently degraded.
    rejoin_ok = all(
        s in result.rejoined for s in result.crashed if not backend.nodes[s].crashed
    )
    switches = snapshot["switches_complete"]
    switches_ok = all(switches.values()) and len(switches) == len(config.plan)
    ok = not pending and switches_ok and rejoin_ok and result.ok and health_ok is not False
    return {
        "ok": ok,
        "backend": "realtime",
        "chaos_mode": config.chaos,
        "wall_elapsed": wall_elapsed,
        "drained": not pending,
        "drain_pending": {str(s): count for s, count in pending.items()},
        "switches_ok": switches_ok,
        "rejoin_ok": rejoin_ok,
        "health_ok": health_ok,
        "violations": {k: v for k, v in result.violations.items() if v},
        **snapshot,
    }


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
        plan=CHAOS_PLAN if args.chaos else DEFAULT_PLAN,
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
