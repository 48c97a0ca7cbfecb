"""The benchmark's traced pass (`perfbench/run.py --trace 1`) wraps library
functions by name and counts work by reading what they return.  Every name it
lists must still resolve in `curvebounds`, and every counter must still run on
a real return value of its span, or that pass breaks.  The tables are read as
text and the counters run in process without installing the tracer; one test
per engine installs it in a subprocess, as the benchmark does."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import curvebounds
from curvebounds.fileio import load_matrix, load_track
from curvebounds.penner import TraceResult
from curvebounds.pfmatrix import BlockTransition, IntMatrix

from helpers import data_path

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


def _counters() -> dict:
    spec = importlib.util.spec_from_file_location("traced_child", TRACED_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines its tables and functions only
    return module.COUNTERS


def _span_calls(tmp_path) -> list[tuple[str, tuple]]:
    """Real arguments for every counted span, as the CLI and library jobs
    pass them."""
    matrix_path = tmp_path / "chain.matrix"
    matrix_path.write_text("3 3\n0 1 0\n0 0 1\n0 0 1\nreal: 2\nsurface: 2 0\n")
    doc = load_matrix(matrix_path)
    track_path = data_path("genus2_maximal.track")
    track, attachment = load_track(track_path).build()
    primitive, imprimitive = IntMatrix([[1, 1], [1, 0]]), IntMatrix([[0, 1], [1, 0]])
    return [
        ("fileio.load_matrix", (matrix_path,)),
        ("fileio.load_track", (track_path,)),
        ("penner.trace", (5,)),
        ("pfmatrix.primitivity_exponent", (primitive,)),
        ("pfmatrix.primitivity_exponent", (imprimitive,)),
        ("pfmatrix.is_irreducible", (primitive,)),
        ("pfmatrix.full_spread_power", (BlockTransition(doc.matrix, doc.real_set, doc.surface),)),
        ("traintrack.is_recurrent", (track,)),
        ("traintrack.enumerate_diagonal_extensions", (track, attachment)),
    ]


def test_counters_run_on_real_results(tmp_path):
    """A library change that drops or renames what a counter reads (say
    `TraceResult.masks`) fails here, not in the next traced benchmark run."""
    counters = _counters()
    calls = _span_calls(tmp_path)
    assert {span for span, _ in calls} == set(counters)
    for span, args in calls:
        layer, name = span.split(".")
        fn = getattr(importlib.import_module(f"curvebounds.{layer}"), name)
        counts = Counter()
        counters[span](counts, args, fn(*args))
        assert counts and all(isinstance(v, int) and v >= 0 for v in counts.values()), span


@pytest.mark.parametrize(
    "args, spans, counts",
    [
        (["penner", "--genus", "3"], {"penner.trace"},
         {"penner.trace.calls", "penner.trace.iterations"}),
        (["pf", "--input", "{matrix}"],
         {"fileio.load_matrix", "pfmatrix.primitivity_exponent"},
         {"fileio.input_bytes", "pfmatrix.primitivity_exponent.bool_products"}),
        (["track", "--input", "{track}"],
         {"fileio.load_track", "traintrack.TrainTrack", "traintrack.is_recurrent"},
         {"fileio.input_bytes", "traintrack.is_recurrent.calls"}),
    ],
    ids=["penner", "pf", "track"],
)
def test_traced_child_runs_each_engine(tmp_path, args, spans, counts):
    """The tracer installs right after `import curvebounds.cli` and looks up
    every layer in `sys.modules` then, so each layer must be registered there
    by that import, whether or not the job's subcommand uses it."""
    matrix = tmp_path / "fibonacci.matrix"
    matrix.write_text("2 2\n1 1\n1 0\n")
    paths = {"{matrix}": str(matrix), "{track}": str(data_path("genus2_maximal.track"))}
    out = tmp_path / "spans.json"
    src = Path(curvebounds.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [str(TRACED_CHILD), str(out), "job", "-m", "curvebounds.cli"]
    result = subprocess.run(
        [sys.executable, *argv, *(paths.get(a, a) for a in args)],
        env=env, capture_output=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    data = json.loads(out.read_text())
    assert data["job"] == "job"
    names = {span[0] for span in data["spans"]}
    assert {"cli.main"} | spans <= names
    assert not any(span[4] for span in data["spans"])
    assert counts <= set(data["counts"]) and all(data["counts"][c] > 0 for c in counts)
