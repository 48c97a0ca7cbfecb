"""Public-name guard: every `__all__` entry of a `curvebounds` module
resolves, the package re-exports only names its modules list there, and
every re-exported name is used by the library, a demo, the benchmark or the
acceptance gate, not only by its own tests."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import curvebounds


def _modules():
    for info in pkgutil.iter_modules(curvebounds.__path__):
        yield importlib.import_module(f"curvebounds.{info.name}")


def test_all_names_resolve():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_package_exports_are_listed():
    """The package's export table names only names its modules list in
    `__all__`, and every engine module it registers resolves."""
    exports = curvebounds._EXPORTS
    assert exports
    for name, module in exports.items():
        assert name in module.__all__, (module.__name__, name)
        assert getattr(curvebounds, name) is getattr(module, name), name
    assert curvebounds.__all__ == sorted(exports)
    assert set(exports) <= set(dir(curvebounds))
    engines = {"surfaces", "pfmatrix", "penner", "traintrack", "reference", "fileio"}
    assert {m.__name__ for m in exports.values()} == {f"curvebounds.{e}" for e in engines}
    for module in set(exports.values()):
        short = module.__name__.rpartition(".")[2]
        assert importlib.import_module(module.__name__) is module
        assert getattr(curvebounds, short) is module
    assert not hasattr(curvebounds, "no_such_name")


ROOT = Path(__file__).resolve().parents[1]


def _caller_files() -> list[Path]:
    """The code that may call a public name: the library (its `__init__`
    only re-exports), the demos, the benchmark and the acceptance gate.
    The benchmark's corpus builder and oracle never import `curvebounds`
    (`test_perfbench_imports.py`), so a name they define, such as their own
    `format_track`, is not a call of the library's."""
    library = [p for p in (ROOT / "src" / "curvebounds").glob("*.py") if p.name != "__init__.py"]
    bench = [
        p for p in (ROOT / "perfbench").glob("*.py")
        if p.name not in ("test_perfbench.py", "corpus.py", "oracle.py")
    ]
    demos = (ROOT / "demos").glob("*.py")
    return [*library, *demos, *bench, ROOT / "tests" / "test_acceptance.py"]


def _used_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and import alias in the tree, and every part of
    a dotted string (as in perfbench's `TRACED`), leaving out `__all__`
    assignments and docstrings."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            skip.update(map(id, ast.walk(node)))
        elif isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            skip.add(id(node.body[0].value))
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller():
    """A name used only by its own tests is not public: delete it, or move
    it into `tests/helpers.py`."""
    used = set().union(
        *(_used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in _caller_files())
    )
    assert not set(curvebounds.__all__) - used, sorted(set(curvebounds.__all__) - used)


def test_caller_walk_skips_docstrings_and_all():
    text = (
        '"""shown_in_docstring"""\n'
        '__all__ = ["listed"]\n'
        "from m import imported as alias\n"
        "def f():\n"
        '    """also_in_docstring"""\n'
        '    return obj.attr(name, "mod.Cls.method")\n'
    )
    assert _used_names(ast.parse(text)) == {
        "imported", "alias", "obj", "attr", "name", "mod", "Cls", "method",
    }
