"""The benchmark's traced pass (`perfbench/run.py --trace 1`) wraps library
functions by name.  Every name it lists must still resolve in `curvebounds`,
or that pass breaks; the tracer is read as text and never run here."""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import pytest

from curvebounds.penner import TraceResult

TRACED_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "traced_child.py"


def _table(name: str) -> ast.expr:
    tree = ast.parse(TRACED_CHILD.read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return value


TRACED: dict[str, tuple[str, ...]] = ast.literal_eval(_table("TRACED"))
ENTRIES = [(layer, attr) for layer, attrs in TRACED.items() for attr in attrs]


def test_traced_table_covers_every_layer():
    layers = {"cli", "fileio", "surfaces", "penner", "pfmatrix", "traintrack"}
    assert set(TRACED) == layers
    assert ("traintrack", "TrainTrack.__post_init__") in ENTRIES
    assert ("traintrack", "add_diagonals") in ENTRIES


@pytest.mark.parametrize("layer, attr", ENTRIES, ids=[".".join(e) for e in ENTRIES])
def test_traced_name_resolves(layer, attr):
    obj = importlib.import_module(f"curvebounds.{layer}")
    for part in attr.split("."):
        assert hasattr(obj, part), f"curvebounds.{layer} has no {attr}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_counters_name_traced_spans():
    spans = {f"{layer}.{attr.split('.')[0]}" for layer, attr in ENTRIES}
    keys = {ast.literal_eval(k) for k in _table("COUNTERS").keys}
    assert keys and keys <= spans


def test_supports_is_a_cached_property():
    assert isinstance(vars(TraceResult)["supports"], functools.cached_property)
