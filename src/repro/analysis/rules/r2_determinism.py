"""R2 determinism: every run must be a pure function of its seed.

Campaign reports are byte-identical across reruns, ``--jobs`` fan-out
and trace modes — which only holds while no code path consults ambient
entropy.  This rule flags the four ways that property historically
breaks:

* **unseeded RNG construction** — ``random.Random()`` with no seed,
  the ``random`` module's global-state functions, numpy's legacy
  ``np.random.*`` globals, and ``default_rng()`` / ``SeedSequence()``
  without a seed (use ``RngRegistry`` named streams instead);
* **wall-clock reads** — ``time.time()``, ``time.monotonic()``,
  ``datetime.now()`` and friends (use ``self.now`` / the scheduler's
  time).  The realtime side of the seam (``repro.runtime.realtime``,
  ``repro.runtime.soak``) *is* the wall-clock implementation and is
  exempt by design;
* **``id()`` feeding keys or ordering** — CPython addresses differ per
  process, so anything keyed or ordered by ``id()`` diverges across
  runs;
* **iteration over ``set``/``frozenset`` values that feeds sends or
  scheduling** — set order is hash-table order; iterate a
  ``sorted(...)`` view before anything observable depends on it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..findings import Finding
from ..project import Project
from ..source import SourceFile
from .base import RuleInfo, dotted_name, make_finding

__all__ = ["RULE", "run"]

RULE = RuleInfo(
    code="R2",
    name="determinism",
    scope="all of src/repro (wall-clock checks exempt repro.runtime.{realtime,soak})",
    summary=(
        "No unseeded RNGs, wall-clock reads, id()-derived keys/ordering, "
        "or raw set iteration feeding sends/scheduling"
    ),
)

#: Modules allowed to read the wall clock: the realtime seam implementation.
WALL_CLOCK_EXEMPT = frozenset(("repro.runtime.realtime", "repro.runtime.soak"))

_WALL_CLOCK_CALLS = frozenset(
    (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    )
)

_ENTROPY_CALLS = frozenset(("os.urandom", "uuid.uuid1", "uuid.uuid4"))

_SEEDED_CTORS = frozenset(
    ("random.Random", "np.random.default_rng", "numpy.random.default_rng",
     "np.random.SeedSequence", "numpy.random.SeedSequence")
)

#: Attribute calls in a loop body that make iteration order observable:
#: every operation of the runtime seam (``runtime/api.py`` and the trace
#: recorder — one spelling each) plus the kernel/protocol send verbs.
SEND_ATTRS = frozenset(
    (
        "call",
        "respond",
        "send",
        "sendto",
        "send_datagram",
        "issue_call",
        "issue_response",
        "broadcast",
        "abcast",
        "schedule",
        "schedule_at",
        "call_soon",
        "set_timer",
        "execute",
        "record",
        "deliver",
    )
)

_STR_CONTEXT_CALLS = frozenset(("repr", "str", "format", "print", "hex"))


def run(project: Project) -> List[Finding]:
    """Check every file for the four determinism hazards."""
    findings: List[Finding] = []
    for sf in project.files:
        if sf.tree is None:
            continue
        findings.extend(_check_rng(sf))
        if sf.module not in WALL_CLOCK_EXEMPT:
            findings.extend(_check_wall_clock(sf))
        findings.extend(_check_id_keys(sf))
        findings.extend(_check_set_iteration(sf))
    return findings


# --------------------------------------------------------------------- #
# Unseeded RNG construction
# --------------------------------------------------------------------- #
def _check_rng(sf: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    assert sf.tree is not None
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if name in _SEEDED_CTORS:
            if not node.args and not node.keywords:
                findings.append(
                    make_finding(
                        "R2",
                        sf,
                        node,
                        f"{name}() without a seed draws OS entropy; seed it "
                        "explicitly (RngRegistry named streams)",
                    )
                )
        elif name.startswith("random.") or name.startswith("np.random.") or name.startswith(
            "numpy.random."
        ):
            findings.append(
                make_finding(
                    "R2",
                    sf,
                    node,
                    f"{name}() uses global RNG state; draw from a seeded "
                    "per-component stream (RngRegistry) instead",
                )
            )
        elif name in _ENTROPY_CALLS:
            findings.append(
                make_finding(
                    "R2", sf, node, f"{name}() is an OS entropy source; runs must "
                    "be a pure function of their seed",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# Wall-clock reads
# --------------------------------------------------------------------- #
def _check_wall_clock(sf: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    assert sf.tree is not None
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            findings.append(
                make_finding(
                    "R2",
                    sf,
                    node,
                    f"{name}() reads the wall clock; use the scheduler's time "
                    "(self.now / sim.now) so runs stay seed-deterministic",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# id() feeding keys / ordering
# --------------------------------------------------------------------- #
def _check_id_keys(sf: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    assert sf.tree is not None
    parents: Dict[int, ast.AST] = {}
    for parent in ast.walk(sf.tree):
        for child in ast.iter_child_nodes(parent):
            parents[id(child)] = parent  # repro: ignore[R2] -- lint-time parent map, never ordered or persisted
    for node in ast.walk(sf.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            if _in_string_context(node, parents):
                continue
            findings.append(
                make_finding(
                    "R2",
                    sf,
                    node,
                    "id() values differ across processes; keying or ordering by "
                    "them breaks run-to-run determinism",
                )
            )
    return findings


def _in_string_context(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    current: Optional[ast.AST] = node
    while current is not None:
        current = parents.get(id(current))  # repro: ignore[R2] -- lint-time parent lookup, never ordered or persisted
        if isinstance(current, ast.JoinedStr):
            return True
        if isinstance(current, ast.Call):
            name = dotted_name(current.func)
            if name in _STR_CONTEXT_CALLS:
                return True
        if isinstance(current, (ast.stmt,)):
            return False
    return False


# --------------------------------------------------------------------- #
# Set iteration feeding sends / scheduling
# --------------------------------------------------------------------- #
def _check_set_iteration(sf: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    assert sf.tree is not None
    for owner in ast.walk(sf.tree):
        if isinstance(owner, ast.ClassDef):
            attr_sets = _class_set_attrs(owner)
            for method in owner.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    findings.extend(_check_scope(sf, method, attr_sets))
        elif isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _inside_class(owner, sf.tree):
                findings.extend(_check_scope(sf, owner, set()))
    return findings


def _inside_class(func: ast.AST, tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and func in node.body:
            return True
    return False


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    target = node.value if isinstance(node, ast.Subscript) else node
    name = dotted_name(target) or ""
    return name.split(".")[-1] in ("Set", "FrozenSet", "set", "frozenset")


def _class_set_attrs(cls: ast.ClassDef) -> Set[str]:
    """``self.x`` attributes assigned a set anywhere in the class body."""
    out: Set[str] = set()
    demoted: Set[str] = set()
    for node in ast.walk(cls):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        else:
            continue
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        if (value is not None and _is_set_expr(value)) or _is_set_annotation(annotation):
            out.add(target.attr)
        elif value is not None:
            demoted.add(target.attr)
    return out - demoted


def _local_set_names(func: ast.AST) -> Set[str]:
    out: Set[str] = set()
    demoted: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            (out if _is_set_expr(node.value) else demoted).add(node.targets[0].id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                out.add(node.target.id)
    return out - demoted


def _check_scope(
    sf: SourceFile, func: ast.AST, attr_sets: Set[str]
) -> List[Finding]:
    findings: List[Finding] = []
    local_sets = _local_set_names(func)
    for node in ast.walk(func):
        if not isinstance(node, ast.For):
            continue
        iter_expr = node.iter
        is_set = _is_set_expr(iter_expr)
        if isinstance(iter_expr, ast.Name) and iter_expr.id in local_sets:
            is_set = True
        if (
            isinstance(iter_expr, ast.Attribute)
            and isinstance(iter_expr.value, ast.Name)
            and iter_expr.value.id == "self"
            and iter_expr.attr in attr_sets
        ):
            is_set = True
        if not is_set:
            continue
        if _body_sends(node):
            findings.append(
                make_finding(
                    "R2",
                    sf,
                    node,
                    "iteration over a set feeds sends/scheduling; iterate "
                    "sorted(...) so the observable order is deterministic",
                )
            )
    return findings


def _body_sends(loop: ast.For) -> bool:
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SEND_ATTRS
            ):
                return True
    return False
