"""R1 seam-purity: protocol packages reach the runtime only through the seam.

Protocol packages (``abcast``, ``consensus``, ``dpu``, ``fd``, ``gm``,
``net``, ``rbcast``, ``workload``, ``baselines``) implement distributed
algorithms that must run unchanged on the simulator *and* on the
realtime backend (PR 6's ``repro/runtime`` seam).  They therefore may
not:

* import the runtime-environment stdlib modules ``time``, ``random``,
  ``asyncio``, ``socket``, ``threading`` — time, randomness, scheduling
  and IO come from the ``Module`` API (``set_timer``, ``now``, seeded
  RNG streams) or ``stack.backend``;
* import ``repro.sim`` **engine internals** (``engine``, ``process``,
  ``events``, ``faults``) at runtime.  The sim's *value* modules —
  ``clock`` (time units), ``monitors`` (counters), ``random``
  (seeded streams), ``latency`` (distribution models) — are shared
  vocabulary and stay importable; typing-only imports under
  ``if TYPE_CHECKING:`` are always fine.
"""

from __future__ import annotations

import ast
from typing import List

from ..findings import Finding
from ..project import Project
from ..source import SourceFile
from .base import RuleInfo, iter_imports, make_finding

__all__ = ["RULE", "run"]

RULE = RuleInfo(
    code="R1",
    name="seam-purity",
    scope="protocol packages (abcast, consensus, dpu, fd, gm, net, rbcast, workload, baselines)",
    summary=(
        "No direct time/random/asyncio/socket/threading imports and no "
        "repro.sim engine internals; reach the runtime only through the "
        "Module / stack.backend seam"
    ),
)

#: Packages under the root that hold seam-pure protocol code.
PROTOCOL_PACKAGES = frozenset(
    (
        "abcast",
        "consensus",
        "dpu",
        "fd",
        "gm",
        "net",
        "rbcast",
        "workload",
        "baselines",
    )
)

#: Stdlib modules that bypass the runtime seam.
FORBIDDEN_STDLIB = frozenset(("time", "random", "asyncio", "socket", "threading"))

#: ``repro.sim`` submodules that are engine internals (seam-opaque).
ENGINE_SUBMODULES = frozenset(("engine", "process", "events", "faults"))

#: Sim-root re-exports that belong to the engine internals.
ENGINE_NAMES = frozenset(
    ("Simulator", "Machine", "FaultInjector", "FaultRecord", "Event", "EventHandle")
)


def _sim_target(project: Project, sf: SourceFile, node: ast.ImportFrom) -> str:
    target = Project.resolve_from(sf, node)
    return target or ""


def run(project: Project) -> List[Finding]:
    """Check every protocol-package file for seam-bypassing imports."""
    findings: List[Finding] = []
    for sf in project.files:
        if sf.tree is None or sf.top_level_package() not in PROTOCOL_PACKAGES:
            continue
        for node, typing_only in iter_imports(sf.tree):
            if typing_only:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in FORBIDDEN_STDLIB:
                        findings.append(
                            make_finding(
                                "R1",
                                sf,
                                node,
                                f"protocol package imports {alias.name!r}: reach "
                                "time/scheduling/IO through the Module API or "
                                "stack.backend seam instead",
                            )
                        )
                    elif _is_sim_engine_module(alias.name):
                        findings.append(_sim_finding(sf, node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                target = _sim_target(project, sf, node)
                top = target.split(".")[0] if target else ""
                if top in FORBIDDEN_STDLIB:
                    findings.append(
                        make_finding(
                            "R1",
                            sf,
                            node,
                            f"protocol package imports from {top!r}: reach "
                            "time/scheduling/IO through the Module API or "
                            "stack.backend seam instead",
                        )
                    )
                    continue
                if _is_sim_engine_module(target):
                    findings.append(_sim_finding(sf, node, target))
                    continue
                if _is_sim_root(target):
                    for alias in node.names:
                        if alias.name in ENGINE_NAMES:
                            findings.append(_sim_finding(sf, node, f"{target}.{alias.name}"))
    return findings


def _is_sim_root(target: str) -> bool:
    parts = target.split(".")
    return len(parts) >= 2 and parts[-1] == "sim"


def _is_sim_engine_module(target: str) -> bool:
    parts = target.split(".")
    for i, part in enumerate(parts[:-1]):
        if part == "sim" and parts[i + 1] in ENGINE_SUBMODULES:
            return True
    return False


def _sim_finding(sf: SourceFile, node: ast.stmt, target: str) -> Finding:
    return make_finding(
        "R1",
        sf,
        node,
        f"protocol package reaches sim engine internals ({target}): only the "
        "sim value modules (clock/monitors/random/latency) and the "
        "Module/stack.backend seam are allowed",
    )
