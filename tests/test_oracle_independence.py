"""The recurrence, switch-balance, ribbon-boundary and Penner oracles in
`tests/helpers.py` stay independent of the code they check.  They build
their own graphs, slot lists and switch sums from the branches' slot data,
their own supports from the intersection pattern and their own curve names
from the support bitmasks, so none of them may read the library's
switch-side index (`TrainTrack.sides`, `TrainTrack.ends`, the old
`side_ends`), its measure check, its route graph, its ribbon boundary walk,
the trace's closed-neighbourhood step, the support decoder or the digraph
layer.  `helpers.py` is read as text and parsed, never imported."""

from __future__ import annotations

import ast
from pathlib import Path

HELPERS = Path(__file__).resolve().parent / "helpers.py"

BANNED = frozenset({
    "sides", "ends", "side_ends", "_route_graph", "boundary_cycles", "_closed",
    "_digraph", "check_measure",
    # the support decoder
    "_curves", "_decode", "_runs", "sorted_names",
})

ORACLES = (
    # recurrence and the ribbon boundary
    "_dart_graph", "route_dead_branches", "route_recurrent",
    "darts_strongly_connected", "some_closed_route", "counting_measure",
    "ribbon_cycles", "switch_balance",
    # lemma A's route on the reference spines
    "end_switch_sides", "reference_route", "closed_route_covers",
    # Penner
    "PennerSystem", "twist_support", "rotate", "step", "certify",
    "oracle_trace", "step_trace", "penner_matrix", "reference_penner_report",
)


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute, imported module part and import alias in the
    tree, and every string constant that could name one (as in getattr)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or "")
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_oracles_read_no_library_index():
    tree = ast.parse(HELPERS.read_text(encoding="utf-8"))
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(ORACLES) <= set(defs), set(ORACLES) - set(defs)
    for name in ORACLES:
        offenders = _names(defs[name]) & BANNED
        assert not offenders, (name, offenders)
    # Nor may the module import one of them under another name.
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    offenders = set().union(*map(_names, imports)) & BANNED
    assert not offenders, offenders


def test_name_walk_catches_every_form():
    text = (
        "from curvebounds._digraph import layers as walk\n"
        "import curvebounds.penner as p\n"
        "def f(track, b):\n"
        "    track.sides[0]\n"
        "    getattr(track, 'ends')\n"
        "    p._closed(1, 2)\n"
        "    side_ends = _route_graph(track)\n"
        "    _curves, masks = p.TraceResult._decode(b)\n"
        "    cycles = tt.boundary_cycles(track)\n"
        "    b.sorted_names(' ')\n"
        "    p._runs(masks)\n"
        "    tt.check_measure(track, w)\n"
    )
    assert _names(ast.parse(text)) & BANNED == BANNED
