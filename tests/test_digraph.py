from __future__ import annotations

import ast
from pathlib import Path

from curvebounds import _digraph
from curvebounds._digraph import components, image, layers

from helpers import brute_distances, random_digraph, rng_for


def random_cases():
    rng = rng_for("digraph")
    for n in range(1, 41):
        for _ in range(4):
            succ = random_digraph(rng, n)
            rows = [sum(1 << w for w in row) for row in succ]
            yield succ, rows, rng


def test_image_is_union_of_rows():
    for succ, rows, rng in random_cases():
        nodes = [v for v in range(len(succ)) if rng.random() < 0.5]
        expected = {w for v in nodes for w in succ[v]}
        assert image(rows, sum(1 << v for v in nodes)) == sum(1 << w for w in expected)


def test_components_are_mutual_reachability():
    for succ, rows, _ in random_cases():
        reach = [brute_distances(succ, v) for v in range(len(succ))]
        label = components(rows)
        for u in range(len(succ)):
            for v in range(len(succ)):
                assert (label[u] == label[v]) == (v in reach[u] and u in reach[v])


def test_layers_are_distance_classes():
    for succ, rows, rng in random_cases():
        sources = [v for v in range(len(succ)) if rng.random() < 0.2]
        dist: dict[int, int] = {}
        for source in sources:
            for w, d in brute_distances(succ, source).items():
                dist[w] = min(d, dist.get(w, d))
        walk = list(layers(rows, sum(1 << v for v in sources)))
        assert len(walk) == (max(dist.values()) + 1 if dist else 0)
        for d, layer in enumerate(walk):
            assert layer == sum(1 << w for w, dw in dist.items() if dw == d)


def test_every_digraph_function_has_a_library_caller():
    """`_digraph` holds only primitives that another library module calls:
    each function it defines is imported from it, or read as an attribute
    of it, somewhere else under `src/curvebounds/`."""
    source = Path(_digraph.__file__)
    defined = {
        node.name
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    used: set[str] = set()
    for path in source.parent.rglob("*.py"):
        if path == source:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").endswith("_digraph"):
                    used.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_digraph"
            ):
                used.add(node.attr)
    assert defined, source
    assert defined <= used, f"no library caller: {sorted(defined - used)}"
