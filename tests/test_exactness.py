"""Exactness guard: the library computes with ints and Fractions only, except
for the logarithmic comparison bound in surfaces.py.  Import guard: only
penner.py imports `fractions`, `decimal` or `numbers` when it is loaded;
every other module imports `fractions` inside the function that builds a
`Fraction`, so the `pf` and `track` engines load none of the three."""

from __future__ import annotations

import ast
from pathlib import Path

import curvebounds

SRC = Path(curvebounds.__file__).parent

# The names surfaces.py binds for the comparison bound, and its math import.
FLM_BOUND = frozenset({"math", "_FLM_NUMERATOR", "flm_upper_bound"})

# `fractions` pulls in `decimal` and `numbers`.
NUMERIC_TOWER = frozenset({"fractions", "decimal", "numbers"})


def _binds(node: ast.AST) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    if isinstance(node, ast.Import):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    return set()


def float_uses(node: ast.AST, allow: frozenset[str] = frozenset()) -> list[int]:
    """Lines with a `float` name, a float literal or a use of `math`, outside
    the statements that bind only names in `allow`."""
    bound = _binds(node)
    if bound and bound <= allow:
        return []
    hit = (
        isinstance(node, ast.Name) and node.id in ("float", "math")
        or isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Import) and any(a.name == "math" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "math"
    )
    lines = [node.lineno] if hit else []
    for child in ast.iter_child_nodes(node):
        lines += float_uses(child, allow)
    return lines


def _scan(path: Path, allow: frozenset[str] = frozenset()) -> list[int]:
    return float_uses(ast.parse(path.read_text(encoding="utf-8")), allow)


def test_library_is_exact_outside_flm_bound():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "pfmatrix.py" in sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _scan(path, FLM_BOUND if path.name == "surfaces.py" else frozenset())
    ]
    assert found == []


def test_guard_flags_each_float_source():
    tree = ast.parse(
        "import math\n"
        "from math import log\n"
        "x = 1.5\n"
        "def f(y: float) -> int:\n"
        "    return int(math.pi)\n"
    )
    assert float_uses(tree) == [1, 2, 3, 4, 5]
    assert float_uses(tree, frozenset({"x", "f"})) == [1, 2]
    # The comparison bound is the one float path, and the allowance covers it.
    assert _scan(SRC / "surfaces.py") != []


def load_time_imports(node: ast.AST, names: frozenset[str] = NUMERIC_TOWER) -> list[int]:
    """Lines that import a module in `names` when the module is loaded:
    anywhere outside a function body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    hit = (
        isinstance(node, ast.Import) and any(a.name.split(".")[0] in names for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] in names
    )
    lines = [node.lineno] if hit else []
    for child in ast.iter_child_nodes(node):
        lines += load_time_imports(child, names)
    return lines


def test_only_penner_loads_fractions():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "penner.py"
        for line in load_time_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_import_guard_flags_only_load_time_imports():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import os, decimal as d\n"
        "from .numbers import local\n"
        "if flag:\n"
        "    from numbers import Rational\n"
        "class C:\n"
        "    import fractions\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    return Fraction(1, 2)\n"
    )
    assert load_time_imports(tree) == [1, 2, 5, 7]
    # penner.py is the one exception, and the guard sees its import.
    assert load_time_imports(ast.parse((SRC / "penner.py").read_text(encoding="utf-8"))) != []
