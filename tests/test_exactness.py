"""Exactness guard: the library computes with ints and Fractions only, except
for the logarithmic comparison bound in surfaces.py."""

from __future__ import annotations

import ast
from pathlib import Path

import curvebounds

SRC = Path(curvebounds.__file__).parent

# The names surfaces.py binds for the comparison bound, and its math import.
FLM_BOUND = frozenset({"math", "_FLM_NUMERATOR", "flm_upper_bound"})


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
