"""Public-name guard: every `__all__` entry of a `curvebounds` module
resolves, and the package re-exports only names its modules list there."""

from __future__ import annotations

import importlib
import pkgutil

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
