"""Typing gate: mypy over ``src/repro`` plus an AST fallback audit.

The strict tier (``repro.kernel``, ``repro.runtime``, ``repro.analysis``
and ``repro.net.links``, the link policy both backends consult — see
``[tool.mypy]`` in ``pyproject.toml``) must type-check; the other
packages are configured with ``ignore_errors`` until promoted.  The
mypy run skips when mypy is not installed (it is a dev extra, not a
runtime dependency); the AST audit below always runs, so the
annotation *coverage* part of the gate holds even without mypy.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
STRICT_PACKAGES = ("kernel", "runtime", "analysis")
#: Single strict modules inside otherwise unpromoted packages.
STRICT_MODULES = ("net/links.py",)


def _strict_files():
    for pkg in STRICT_PACKAGES:
        yield from sorted((REPO_ROOT / "src" / "repro" / pkg).rglob("*.py"))
    for module in STRICT_MODULES:
        yield REPO_ROOT / "src" / "repro" / module


def test_mypy_clean():
    api = pytest.importorskip("mypy.api", reason="mypy is a dev extra (CI installs it)")
    stdout, stderr, status = api.run(
        ["--config-file", str(REPO_ROOT / "pyproject.toml")]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"


def _defs(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def test_strict_tier_is_fully_annotated():
    """Every def in the strict tier annotates its params and return.

    This is the ``disallow_untyped_defs`` / ``disallow_incomplete_defs``
    half of the mypy gate, enforced with a pure-AST walk so it runs in
    environments without mypy.
    """
    gaps = []
    for path in _strict_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _defs(tree):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            for i, arg in enumerate(params):
                if i == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    gaps.append(f"{path}:{node.lineno} {node.name}({arg.arg})")
            if args.vararg is not None and args.vararg.annotation is None:
                gaps.append(f"{path}:{node.lineno} {node.name}(*{args.vararg.arg})")
            if args.kwarg is not None and args.kwarg.annotation is None:
                gaps.append(f"{path}:{node.lineno} {node.name}(**{args.kwarg.arg})")
            if node.returns is None and node.name != "__init__":
                gaps.append(f"{path}:{node.lineno} {node.name} -> ?")
    assert not gaps, "unannotated defs in the strict typing tier:\n" + "\n".join(gaps)


def test_strict_tier_has_no_implicit_optional():
    """``x: T = None`` without Optional in the strict tier is a gap."""
    gaps = []
    for path in _strict_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _defs(tree):
            args = node.args
            pos = args.posonlyargs + args.args
            for arg, default in zip(pos[len(pos) - len(args.defaults):], args.defaults):
                if not (isinstance(default, ast.Constant) and default.value is None):
                    continue
                if arg.annotation is None:
                    continue
                text = ast.unparse(arg.annotation)
                if "Optional" not in text and "None" not in text and "Any" not in text:
                    gaps.append(f"{path}:{node.lineno} {node.name}({arg.arg}: {text} = None)")
    assert not gaps, "implicit Optional in the strict typing tier:\n" + "\n".join(gaps)


def test_mypy_config_present():
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "[tool.mypy]" in text
    for pkg in ("repro.kernel.*", "repro.runtime.*", "repro.analysis.*", "repro.net.links"):
        assert f'"{pkg}"' in text, f"{pkg} missing from the strict mypy override"
    assert "disallow_untyped_defs = true" in text
