"""R4 restart-safety: timer-arming modules must re-arm in ``on_restart``.

Timers armed before a crash belong to the dead incarnation and never
fire (see ``Module.on_restart``).  A ``Module`` subclass that arms
timers (``self.set_timer``) but never defines
``on_restart`` — in its own body or anywhere in its project ancestry
below the kernel ``Module`` — silently loses its wheel on the first
crash/recover: the passive-zombie bug class PR 3 spent a whole release
eradicating.  Purely message-driven modules (no timers) are exempt; a
module whose timers are genuinely incarnation-scoped can carry a
justified ``# repro: ignore[R4]`` on its class line.
"""

from __future__ import annotations

from typing import List

from ..findings import Finding
from ..project import Project
from .base import RuleInfo, make_finding

__all__ = ["RULE", "run"]

RULE = RuleInfo(
    code="R4",
    name="restart-safety",
    scope="every kernel Module subclass in the project",
    summary=(
        "A Module subclass that arms set_timer must define on_restart "
        "(itself or via a project ancestor)"
    ),
)


def run(project: Project) -> List[Finding]:
    """Flag timer-arming Module subclasses with no ``on_restart`` in reach."""
    findings: List[Finding] = []
    for infos in project.classes.values():
        for info in infos:
            if not project.is_module_subclass(info):
                continue
            chain = project.ancestry(info)
            uses_timers = any(c.uses_timers for c in chain)
            has_restart = any("on_restart" in c.defined for c in chain)
            if uses_timers and not has_restart:
                armer = next(c for c in chain if c.uses_timers)
                where = (
                    "arms timers"
                    if armer is info
                    else f"inherits timer use from {armer.name}"
                )
                findings.append(
                    make_finding(
                        "R4",
                        info.file,
                        info.node,
                        f"Module subclass {info.name} {where} but defines no "
                        "on_restart: its wheel dies with the first crashed "
                        "incarnation (re-arm in on_restart)",
                        scope=f"{info.module}.{info.name}",
                    )
                )
    return findings
