"""No module-level import goes unused (the F401 lint rule, checked offline).

CI's lint job runs ruff with F401 over the same trees; this scan keeps
the rule enforced where ruff is not installed.  A module-level import
(including one nested in a module-level ``if``/``try``/``with``) must
be referenced somewhere in its file; a name inside a string annotation
counts as a reference.  ``__init__.py`` files (re-exports) and
``from __future__`` imports are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def _module_imports(body):
    """(bound name, line) of every import in module-level statements."""
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield (alias.asname or alias.name.split(".")[0]), stmt.lineno
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), stmt.lineno
        elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_imports(handler.body)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``"file:line name"`` for each module-level import never referenced."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    rel = path.relative_to(root)
    return [
        f"{rel}:{line} {name}"
        for name, line in _module_imports(tree.body)
        if name not in used
    ]


def python_files():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_module_imports():
    found = [hit for path in python_files() for hit in unused_imports(path)]
    assert found == []


def test_scan_flags_unused_and_honours_string_annotations(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Sequence\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "x: 'Sequence[int] | None' = None\n"
        "def f():\n"
        "    import sys\n"
    )
    assert unused_imports(src, tmp_path) == ["mod.py:2 os", "mod.py:3 osp"]
