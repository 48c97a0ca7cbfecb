from __future__ import annotations

from curvebounds._digraph import components, image, layers, reverse, shortest_path

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


def test_shortest_path_has_bfs_length():
    for succ, rows, _ in random_cases():
        for source in range(len(succ)):
            dist = brute_distances(succ, source)
            for target in range(len(succ)):
                path = shortest_path(rows, source, target)
                if target not in dist:
                    assert path is None
                    continue
                assert path[0] == source and path[-1] == target
                assert len(path) - 1 == dist[target]
                assert all(w in succ[v] for v, w in zip(path, path[1:]))


def test_reverse_flips_every_edge():
    for succ, rows, _ in random_cases():
        pred = reverse(rows)
        n = len(succ)
        assert pred == [sum(1 << v for v in range(n) if w in succ[v]) for w in range(n)]


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
