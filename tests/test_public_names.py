"""Public-name guard: every `__all__` entry of a `curvebounds` module
resolves, and the package re-exports only names its modules list there."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import curvebounds

SRC = Path(curvebounds.__file__).parent


def _modules():
    for info in pkgutil.iter_modules(curvebounds.__path__):
        yield importlib.import_module(f"curvebounds.{info.name}")


def test_all_names_resolve():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_package_exports_are_listed():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        listed = importlib.import_module(f"curvebounds.{node.module}").__all__
        for alias in node.names:
            assert alias.name in listed, (node.module, alias.name)
