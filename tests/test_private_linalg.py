"""NumPy's private LAPACK gufuncs stay behind one module (checked offline).

:mod:`repro.stats.lapack` calls ``numpy.linalg._umath_linalg`` directly
to skip ``np.linalg``'s per-call Python wrappers, and its tests pin it
bit for bit to the public functions.  This scan keeps that private API
in that one module, and keeps the wrapped calls (``np.linalg.solve``,
``np.linalg.eig``, ``np.clip``) out of the two hot modules whose
per-call cost the helper and the lockstep's ``np.minimum`` /
``np.maximum`` clamps removed.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")
PRIVATE = "_umath_linalg"
HELPER = Path("src/repro/stats/lapack.py")
HOT_MODULES = (
    Path("src/repro/stats/markov.py"),
    Path("src/repro/core/vector_engine.py"),
)
WRAPPED = {("linalg", "solve"), ("linalg", "eig"), (None, "clip")}


def private_uses(tree: ast.AST) -> list[int]:
    """Lines importing or reaching ``numpy.linalg._umath_linalg``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(PRIVATE in alias.name.split(".") for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if PRIVATE in module or any(a.name == PRIVATE for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == PRIVATE:
            lines.append(node.lineno)
    return lines


def _numpy_names(tree: ast.AST) -> set[str]:
    names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" and alias.asname:
                    names.add(alias.asname)
    return names


def wrapped_calls(tree: ast.AST) -> list[str]:
    """``line name`` of each ``np.linalg.solve`` / ``np.linalg.eig`` /
    ``np.clip`` call or import."""
    numpy = _numpy_names(tree)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in numpy:
                key = (None, node.attr)
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in numpy
            ):
                key = (value.attr, node.attr)
            else:
                continue
            if key in WRAPPED:
                hits.append(f"{node.lineno} {'.'.join(filter(None, key))}")
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "numpy", "numpy.linalg"
        ):
            sub = None if node.module == "numpy" else "linalg"
            for alias in node.names:
                if (sub, alias.name) in WRAPPED:
                    hits.append(f"{node.lineno} {alias.name}")
    return hits


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_only_the_helper_touches_the_private_gufuncs():
    found = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if rel != HELPER:
                found += [f"{rel}:{line}" for line in private_uses(_parse(path))]
    assert found == []
    assert private_uses(_parse(ROOT / HELPER))  # the helper is where they live


def test_hot_modules_skip_the_wrapped_calls():
    found = [
        f"{rel}:{hit}"
        for rel in HOT_MODULES
        for hit in wrapped_calls(_parse(ROOT / rel))
    ]
    assert found == []


def test_scans_flag_each_form():
    src = (
        "import numpy as xp\n"
        "import numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg\n"
        "from numpy.linalg._umath_linalg import solve1\n"
        "from numpy.linalg import eig, solve\n"
        "from numpy import clip\n"
        "y = xp.linalg._umath_linalg\n"
        "a = xp.linalg.solve(m, b)\n"
        "w = xp.linalg.eig(m)\n"
        "c = xp.clip(a, 0, 1)\n"
        "ok = xp.minimum(xp.maximum(a, 0), 1) + xp.linalg.norm(a)\n"
    )
    tree = ast.parse(src)
    assert private_uses(tree) == [2, 3, 4, 7]
    assert sorted(wrapped_calls(tree)) == [
        "10 clip", "5 eig", "5 solve", "6 clip", "8 linalg.solve",
        "9 linalg.eig",
    ]
