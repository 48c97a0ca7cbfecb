"""The benchmark builds its inputs (`perfbench/corpus.py`) and checks its
outputs (`perfbench/oracle.py`) without the package it measures, so the
parent commit and a change get the same inputs and the same judge.  The
files are read as text and parsed, never imported or edited."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import statement or an import call names."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("__import__", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names.add(str(node.args[0].value))
    return names


@pytest.mark.parametrize("name", ["oracle.py", "corpus.py"])
def test_benchmark_judge_imports_no_curvebounds(name):
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    modules = _imported_modules(tree)
    assert "json" in modules  # the walk sees their imports
    offenders = {m for m in modules if m.split(".")[0] == "curvebounds"}
    assert not offenders, (name, offenders)


def test_import_walk_catches_every_form():
    text = (
        "import curvebounds.cli\n"
        "from curvebounds import pfmatrix\n"
        "def f():\n"
        "    import importlib\n"
        "    importlib.import_module('curvebounds.traintrack')\n"
        "    __import__('curvebounds')\n"
    )
    assert _imported_modules(ast.parse(text)) == {
        "curvebounds.cli", "curvebounds", "importlib", "curvebounds.traintrack",
    }
