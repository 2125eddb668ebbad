"""Write the frozen inputs: ``specs/*.json`` and ``manifest.json``.

Run once, by hand, when the workloads are defined (or deliberately
changed, together with a ``manifest_version`` bump):

    python3 benchmarks/e2e/freeze.py

It writes the spec files, runs every sim spec over the whole sim seed
space to record how many messages its schedule sends and on which seeds
the *system* fails the cell (those are excluded from the panels, see
README.md), and pins everything by sha256.  Takes a few minutes.
``run.py`` never calls this; it only verifies what the manifest records
and refuses to run on a mismatch.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.scenarios import (  # noqa: E402
    Crash,
    ImpairLink,
    Recover,
    ScenarioSpec,
    SwitchAfterSwitch,
    SwitchAt,
    run_scenario,
    spec_to_json,
)

import workloads  # noqa: E402

MANIFEST_VERSION = 1

#: Sim seeds the panels of the sim-* workloads are drawn from.
SIM_SEED_SPACE = 256

SIM_SPECS = (
    ScenarioSpec(
        name="sim-steady",
        description="n=7 abcast-ct, 300 msg/s x 0.5 s, 1 KiB, no faults, no switch",
        n=7,
        duration=0.5,
        load_msgs_per_sec=300.0,
        payload_bytes=1024,
        initial_protocol="abcast-ct",
    ),
    ScenarioSpec(
        name="sim-faulted-chain",
        description=(
            "n=5 + GM, token->seq->ct->token pipelined chain under LAN loss/dup, "
            "an impaired link and a crash-recover-rejoin"
        ),
        n=5,
        duration=2.0,
        load_msgs_per_sec=80.0,
        initial_protocol="abcast-token",
        with_gm=True,
        loss_rate=0.02,
        duplicate_rate=0.01,
        faults=(
            ImpairLink(
                at=0.3, src=0, dst=1, loss_rate=0.10,
                reorder_rate=0.10, reorder_delay=0.002, until=1.5,
            ),
            Crash(at=0.72, machine=3),
            Recover(at=1.2, machine=3),
        ),
        switches=(
            SwitchAt("abcast-seq", at=0.7),
            SwitchAfterSwitch("abcast-ct", version=1, phase="started"),
            SwitchAfterSwitch("abcast-token", version=2, phase="completed"),
        ),
    ),
    ScenarioSpec(
        name="sim-fulltrace-log",
        description="n=3 abcast-seq -> abcast-token at 0.5 s, 400 msg/s x 1 s, 128 B, full trace",
        n=3,
        duration=1.0,
        load_msgs_per_sec=400.0,
        payload_bytes=128,
        initial_protocol="abcast-seq",
        switches=(SwitchAt("abcast-token", at=0.5),),
    ),
)

#: The four unequal small cells of ``campaign-pool``.
POOL_SPECS = (
    ScenarioSpec(
        name="pool-steady",
        description="steady load, no switch",
        n=3, duration=0.4, load_msgs_per_sec=40.0, initial_protocol="abcast-ct",
    ),
    ScenarioSpec(
        name="pool-one-switch",
        description="one replacement mid-run",
        n=3, duration=0.4, load_msgs_per_sec=40.0, initial_protocol="abcast-ct",
        switches=(SwitchAt("abcast-seq", at=0.2),),
    ),
    ScenarioSpec(
        name="pool-pipelined-loss",
        description="pipelined two-hop chain under LAN loss",
        n=3, duration=0.4, load_msgs_per_sec=40.0, initial_protocol="abcast-seq",
        loss_rate=0.02,
        switches=(
            SwitchAt("abcast-token", at=0.15),
            SwitchAfterSwitch("abcast-ct", version=1, phase="completed"),
        ),
    ),
    ScenarioSpec(
        name="pool-crash-rejoin",
        description="crash, recover and GM rejoin",
        n=3, duration=0.4, load_msgs_per_sec=40.0, initial_protocol="abcast-ct",
        with_gm=True,
        faults=(Crash(at=0.1, machine=2), Recover(at=0.2, machine=2)),
    ),
)

#: ``SoakConfig`` fields of ``rt-steady`` (``seed`` comes from ``--seed``).
RT_STEADY = {
    "nodes": 3,
    "duration": 0.6,
    "rate_per_sec": 200.0,
    "payload_bytes": 256,
    "plan": [[0.25, "abcast-seq"]],
    "health_port": None,
    "drain_extra": 10.0,
    "drain_step": 0.05,
}


def frozen_files() -> list:
    """Every file the manifest pins, relative to this directory."""
    specs = sorted(p.relative_to(HERE).as_posix() for p in (HERE / "specs").glob("*.json"))
    return specs + ["refkernel.py"]


def rt_nominal_sent() -> int:
    """Messages the rt-steady generators send when none of them runs late.

    Node *i* ticks every ``nodes / rate`` seconds from ``0.1 + i / rate``
    (``build_soak_system``) until the load window closes.
    """
    nodes, rate = RT_STEADY["nodes"], RT_STEADY["rate_per_sec"]
    sent = 0
    for node in range(nodes):
        tick = 0
        while 0.1 + node / rate + tick * nodes / rate < RT_STEADY["duration"] - 1e-9:
            tick += 1
        sent += tick
    return sent


def vet(spec: ScenarioSpec, trace: str, seeds: range) -> tuple:
    """``(messages the schedule sends, seeds on which the cell fails)``."""
    expected = run_scenario(spec, seeds[0], trace).sent_total
    excluded = []
    for seed in seeds:
        run = json.loads(json.dumps(run_scenario(spec, seed, trace).to_dict()))
        problems = workloads.cell_errors(run, spec, expected)
        if problems:
            print(f"  excluding {spec.name} seed {seed}: {problems[0][:120]}")
            excluded.append(seed)
    return expected, excluded


def main() -> None:
    """Write the spec files, vet the seed space, then pin everything."""
    specs_dir = HERE / "specs"
    specs_dir.mkdir(exist_ok=True)
    for spec in SIM_SPECS + POOL_SPECS:
        (specs_dir / f"{spec.name}.json").write_text(spec_to_json(spec) + "\n")
    (specs_dir / "rt-steady.json").write_text(
        json.dumps(RT_STEADY, indent=2, sort_keys=True) + "\n"
    )
    # A spec whose bytes the existing manifest already pins keeps its
    # vetting results: only new or changed specs are run again.
    manifest_path = HERE / "manifest.json"
    old = json.loads(manifest_path.read_text()) if manifest_path.is_file() else {}

    def unchanged(spec: ScenarioSpec) -> bool:
        name = f"specs/{spec.name}.json"
        return (
            old.get("sim_seed_space") == SIM_SEED_SPACE
            and old.get("sha256", {}).get(name) == workloads.sha256_of(HERE / name)
        )

    expected_sent = {"rt-steady": rt_nominal_sent()}
    excluded_sim_seeds = {}
    for spec in SIM_SPECS + POOL_SPECS:
        if unchanged(spec):
            expected_sent[spec.name] = old["expected_sent"][spec.name]
            excluded = old["excluded_sim_seeds"].get(spec.name, [])
        elif spec in SIM_SPECS:
            trace = workloads.SIM_WORKLOADS[spec.name]
            expected_sent[spec.name], excluded = vet(spec, trace, range(SIM_SEED_SPACE))
        else:
            expected_sent[spec.name], excluded = vet(spec, "structural", range(64))
            if excluded:
                raise SystemExit(f"{spec.name} fails on seeds {excluded}: choose another cell")
        if excluded:
            excluded_sim_seeds[spec.name] = excluded
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "run_seconds": benchmark["run_seconds"],
        "bounds": {m["name"]: m["bound"] for m in benchmark["end_to_end"]},
        "sim_seed_space": SIM_SEED_SPACE,
        "excluded_sim_seeds": excluded_sim_seeds,
        "expected_sent": expected_sent,
        "sha256": {name: workloads.sha256_of(HERE / name) for name in frozen_files()},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"froze {len(manifest['sha256'])} files into manifest.json")


if __name__ == "__main__":
    main()
