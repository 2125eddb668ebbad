"""Whole-project model shared by the contract rules.

Loads every ``.py`` file under the scanned paths into
:class:`~repro.analysis.source.SourceFile` objects and builds the
cross-file indexes the rules need:

* per-file **import bindings** (local name → absolute dotted target,
  with relative imports resolved against the file's package);
* a project-wide **class index** (unqualified class name → definitions)
  with transitive :meth:`Project.is_module_subclass` resolution against
  the kernel ``Module`` base;
* the **TraceKind member table** and the statically evaluated
  ``STRUCTURAL_TRACE_KINDS`` set, parsed from wherever the project
  defines them (``repro/kernel/events.py`` in this repo, a fixture twin
  in the plant-and-catch tests).

Everything here is pure ``ast`` — the analysed project is never
imported, so a broken or hostile tree cannot execute code at lint time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .source import SourceFile

__all__ = ["ClassInfo", "Project"]


@dataclass
class ClassInfo:
    """One class definition found in the project."""

    name: str
    module: str
    file: SourceFile
    node: ast.ClassDef
    base_names: Tuple[str, ...]
    #: Names of methods/attributes defined directly in the class body.
    defined: Set[str] = field(default_factory=set)
    #: Whether a ``self.set_timer`` reference appears anywhere inside
    #: the class body.
    uses_timers: bool = False

    @property
    def qualname(self) -> str:
        """``module.ClassName`` of this definition."""
        return f"{self.module}.{self.name}"


def _base_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a base expression (``a.b.C`` → ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class Project:
    """All source files under the scanned paths, plus cross-file indexes.

    Parameters
    ----------
    paths:
        Files or directories to analyse.  Directory scans are recursive
        and deterministic (sorted).  Display paths in findings are the
        given path strings joined with the relative subpath, so output
        is independent of the working directory.
    """

    def __init__(self, paths: Sequence[str]) -> None:
        self.files: List[SourceFile] = []
        self._load(paths)
        self.import_bindings: Dict[str, Dict[str, str]] = {
            sf.module: self._bindings_for(sf) for sf in self.files if sf.tree
        }
        self.classes: Dict[str, List[ClassInfo]] = {}
        self._index_classes()
        self.trace_kind_members: Optional[Set[str]] = None
        self.structural_trace_kinds: Optional[Set[str]] = None
        self._index_trace_kinds()
        self._module_subclass_cache: Dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def _load(self, paths: Sequence[str]) -> None:
        seen: Set[Path] = set()
        for raw in paths:
            root = Path(raw)
            if root.is_file():
                targets = [(root, raw)]
            else:
                targets = [
                    (p, str(Path(raw) / p.relative_to(root)))
                    for p in sorted(root.rglob("*.py"))
                ]
            for path, display in targets:
                resolved = path.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                self.files.append(
                    SourceFile.load(
                        path,
                        Path(display).as_posix(),
                        self._module_name(resolved),
                    )
                )
        self.files.sort(key=lambda sf: sf.display_path)

    @staticmethod
    def _module_name(path: Path) -> str:
        """Dotted module name from the on-disk ``__init__.py`` chain."""
        parts = [path.stem] if path.stem != "__init__" else []
        parent = path.parent
        while (parent / "__init__.py").exists():
            parts.insert(0, parent.name)
            parent = parent.parent
        return ".".join(parts) if parts else path.stem

    # ------------------------------------------------------------------ #
    # Import resolution
    # ------------------------------------------------------------------ #
    def _bindings_for(self, sf: SourceFile) -> Dict[str, str]:
        """Map local names to absolute dotted import targets for *sf*."""
        bindings: Dict[str, str] = {}
        assert sf.tree is not None
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bindings[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_from(sf, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{base}.{alias.name}" if base else alias.name
        return bindings

    @staticmethod
    def resolve_from(sf: SourceFile, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted module a ``from ... import`` pulls from.

        Resolves relative imports against the file's package; returns
        ``None`` when the relative level climbs past the package root.
        """
        if node.level == 0:
            return node.module or ""
        parts = list(sf.package_parts)
        is_package = sf.path.name == "__init__.py"
        # The package a relative import is resolved against.
        package = parts if is_package else parts[:-1]
        if node.level - 1 > len(package):
            return None
        base = package[: len(package) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def binding(self, module: str, name: str) -> Optional[str]:
        """The absolute dotted target *name* is bound to in *module*."""
        return self.import_bindings.get(module, {}).get(name)

    # ------------------------------------------------------------------ #
    # Class index / Module-subclass resolution
    # ------------------------------------------------------------------ #
    def _index_classes(self) -> None:
        for sf in self.files:
            if sf.tree is None:
                continue
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = ClassInfo(
                    name=node.name,
                    module=sf.module,
                    file=sf,
                    node=node,
                    base_names=tuple(
                        n for n in (_base_name(b) for b in node.bases) if n
                    ),
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.defined.add(stmt.name)
                    elif isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                info.defined.add(target.id)
                    elif isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        info.defined.add(stmt.target.id)
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Attribute)
                        and sub.attr == "set_timer"
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        info.uses_timers = True
                        break
                self.classes.setdefault(node.name, []).append(info)

    def lookup_class(self, name: str) -> Optional[ClassInfo]:
        """The unique project class called *name* (``None`` if absent/ambiguous)."""
        infos = self.classes.get(name)
        if infos and len(infos) == 1:
            return infos[0]
        return None

    def _is_kernel_module_root(self, info: ClassInfo) -> bool:
        return info.name == "Module" and ".kernel" in f".{info.module}"

    def is_module_subclass(self, info: ClassInfo) -> bool:
        """Whether *info* transitively subclasses the kernel ``Module``."""
        cached = self._module_subclass_cache.get(info.qualname)
        if cached is not None:
            return cached
        self._module_subclass_cache[info.qualname] = False  # cycle guard
        result = False
        for base in info.base_names:
            if base == "Module":
                target = self.binding(info.module, base)
                base_info = self.lookup_class(base)
                if target is None or ".kernel" in f".{target}" or (
                    base_info is not None and self._is_kernel_module_root(base_info)
                ):
                    result = True
                    break
            base_info = self.lookup_class(base)
            if base_info is not None and self.is_module_subclass(base_info):
                result = True
                break
        self._module_subclass_cache[info.qualname] = result
        return result

    def ancestry(self, info: ClassInfo) -> List[ClassInfo]:
        """*info* plus its resolvable project ancestors (kernel root excluded)."""
        chain: List[ClassInfo] = []
        stack, visited = [info], {info.qualname}
        while stack:
            current = stack.pop()
            if self._is_kernel_module_root(current):
                continue
            chain.append(current)
            for base in current.base_names:
                base_info = self.lookup_class(base)
                if base_info is not None and base_info.qualname not in visited:
                    visited.add(base_info.qualname)
                    stack.append(base_info)
        return chain

    # ------------------------------------------------------------------ #
    # TraceKind index
    # ------------------------------------------------------------------ #
    def _index_trace_kinds(self) -> None:
        for sf in self.files:
            if sf.tree is None:
                continue
            for node in ast.walk(sf.tree):
                if isinstance(node, ast.ClassDef) and node.name == "TraceKind":
                    members = {
                        target.id
                        for stmt in node.body
                        if isinstance(stmt, ast.Assign)
                        for target in stmt.targets
                        if isinstance(target, ast.Name)
                    }
                    if members:
                        self.trace_kind_members = members
            if self.trace_kind_members is not None:
                self._eval_structural(sf)
                if self.structural_trace_kinds is not None:
                    return

    def _eval_structural(self, sf: SourceFile) -> None:
        """Statically evaluate ``STRUCTURAL_TRACE_KINDS = frozenset(TraceKind) - frozenset((...))``."""
        assert sf.tree is not None
        for node in ast.walk(sf.tree):
            if not (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "STRUCTURAL_TRACE_KINDS"
                    for t in node.targets
                )
            ):
                continue
            value = node.value
            if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Sub)):
                continue
            removed: Set[str] = set()
            right = value.right
            if isinstance(right, ast.Call) and right.args:
                seq = right.args[0]
                if isinstance(seq, (ast.Tuple, ast.List, ast.Set)):
                    for element in seq.elts:
                        if (
                            isinstance(element, ast.Attribute)
                            and isinstance(element.value, ast.Name)
                            and element.value.id == "TraceKind"
                        ):
                            removed.add(element.attr)
            if self.trace_kind_members is not None:
                self.structural_trace_kinds = self.trace_kind_members - removed
