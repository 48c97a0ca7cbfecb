"""Seeded generators and independent oracles shared by the test suite.

Set CURVEBOUNDS_TEST_SEED to reproduce a particular randomized run; the
default keeps runs deterministic.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from curvebounds.pfmatrix import IntMatrix, is_irreducible, primitivity_exponent
from curvebounds.pfmatrix import BlockTransition
from curvebounds.surfaces import SurfaceSig
from curvebounds.traintrack import Branch, BranchEnd, TrainTrack

SEED = int(os.environ.get("CURVEBOUNDS_TEST_SEED", "7130823"))


def rng_for(name: str) -> random.Random:
    return random.Random(f"{SEED}:{name}")


# --- matrices ---------------------------------------------------------------


def random_matrix(rng: random.Random, dim: int, density: float = 0.5,
                  max_entry: int = 3) -> IntMatrix:
    entries = [
        [rng.randint(1, max_entry) if rng.random() < density else 0
         for _ in range(dim)]
        for _ in range(dim)
    ]
    return IntMatrix(entries)


def random_irreducible(rng: random.Random, dim: int) -> IntMatrix:
    while True:
        m = random_matrix(rng, dim, density=rng.uniform(0.25, 0.7))
        if is_irreducible(m):
            return m


def random_primitive(rng: random.Random, dim: int) -> IntMatrix:
    while True:
        m = random_irreducible(rng, dim)
        if primitivity_exponent(m) is not None:
            return m


def brute_irreducible(m: IntMatrix) -> bool:
    """(I + M)^(n-1) entrywise positive, by repeated plain multiplication."""
    n = m.rows
    if n == 1:
        return m[(0, 0)] > 0
    s = IntMatrix(
        [[m[(i, j)] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    )
    acc = IntMatrix.identity(n)
    for _ in range(n - 1):
        acc = acc @ s
    return acc.entrywise_positive()


def brute_exponent(m: IntMatrix, bound: int) -> int | None:
    """First power s <= bound with m^s positive, by stepwise products."""
    acc = m
    for s in range(1, bound + 1):
        if acc.entrywise_positive():
            return s
        acc = acc @ m
    return None


def wielandt_matrix(n: int) -> IntMatrix:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1; its
    primitivity exponent (n-1)^2 + 1 attains the Wielandt bound."""
    entries = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        entries[i][i + 1] = 1
    entries[n - 1][0] = 1
    entries[n - 1][1 % n] = 1
    return IntMatrix(entries)


def cyclic_class_matrix(rng: random.Random, n: int, period: int,
                        density: float = 0.15) -> IntMatrix:
    """Irreducible matrix whose edges all run from class c to class c+1
    (mod `period`), vertex v in class v % period, so every cycle length is
    a multiple of `period` and no power is positive when period >= 2."""
    entries = [[0] * n for _ in range(n)]
    for v in range(n - 1):
        entries[v][v + 1] = 1
    # v -> v+1 steps one class; n-1 -> n % period closes a cycle on
    # n % period .. n-1, and each earlier vertex gets an edge back from
    # the last cycle vertex of the preceding class.
    w = n % period
    entries[n - 1][w] = 1
    for v in range(w):
        u = max(x for x in range(w, n) if x % period == (v - 1) % period)
        entries[u][v] = 1
    for u in range(n):
        for v in range(n):
            if v % period == (u + 1) % period and rng.random() < density:
                entries[u][v] = rng.randint(1, 3)
    return IntMatrix(entries)


def random_block_sequence(rng: random.Random):
    """Sequence of square matrices sharing a lower-left zero block."""
    total = rng.randint(2, 10)
    r = rng.randint(1, total - 1)
    count = rng.randint(1, 5)
    ms = []
    for _ in range(count):
        entries = [
            [
                0
                if i >= total - r and j < total - r
                else (rng.randint(0, 3))
                for j in range(total)
            ]
            for i in range(total)
        ]
        ms.append(IntMatrix(entries))
    return ms, r


def block_product_oracle(ms, r: int) -> IntMatrix:
    full = ms[0]
    for m in ms[1:]:
        full = full @ m
    n = full.rows
    idx = tuple(range(n - r, n))
    return full.submatrix(idx, idx)


def synthetic_block_transition(rng: random.Random, sig: SurfaceSig) -> BlockTransition:
    """Valid instance with primitive real restriction and a feeding chain
    guaranteeing every infinitesimal index is eventually covered."""
    chi = abs(sig.chi)
    r_cap = 3 * chi - 3 - 1  # strict inequality in the generated family
    r = rng.randint(1, max(1, r_cap))
    total_cap = 9 * chi - 3 * sig.punctures
    total = rng.randint(r, total_cap)
    inf = total - r
    if r == 1:
        core = IntMatrix([[rng.randint(1, 3)]])
    else:
        core = random_primitive(rng, r)
    entries = [[0] * total for _ in range(total)]
    for i in range(r):
        for j in range(r):
            entries[inf + i][inf + j] = core[(i, j)]
    for b in range(inf):
        target = rng.randint(b + 1, total - 1)
        entries[b][target] = rng.randint(1, 2)
        for j in range(total):
            if rng.random() < 0.2:
                entries[b][j] = max(entries[b][j], rng.randint(1, 2))
    return BlockTransition(
        IntMatrix(entries), frozenset(range(inf, total)), sig
    )


def chain_block_transition(rng: random.Random, core: IntMatrix, depth: int,
                           sig: SurfaceSig, density: float = 0.1) -> BlockTransition:
    """Real block `core` in the last rows and columns, fed by `depth`
    non-real branches: branch b always crosses b+1, and may cross any later
    branch too."""
    r = core.rows
    n = depth + r
    entries = [[0] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            entries[depth + i][depth + j] = core[(i, j)]
    for b in range(depth):
        entries[b][b + 1] = rng.randint(1, 2)
        for j in range(b + 2, n):
            if rng.random() < density:
                entries[b][j] = 1
    return BlockTransition(IntMatrix(entries), frozenset(range(depth, n)), sig)


def brute_girth(m: IntMatrix) -> int:
    """Least s >= 1 with a positive diagonal entry in m^s, by stepwise products."""
    acc = m
    s = 1
    while not any(acc[(i, i)] for i in range(m.rows)):
        acc = acc @ m
        s += 1
    return s


def brute_cover_time(bt: BlockTransition) -> int:
    """Least j with every row of M^j positive in some real column."""
    acc = IntMatrix.identity(bt.dim)
    j = 0
    while not all(any(acc[(b, beta)] for beta in bt.real_set) for b in range(bt.dim)):
        acc = acc @ bt.matrix
        j += 1
    return j


# --- tracks -----------------------------------------------------------------

SIDE_SHAPES = ((1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2), (2, 3))


def random_small_track(rng: random.Random, max_branches: int = 8) -> TrainTrack:
    while True:
        n_switches = rng.randint(1, 3)
        shapes = [rng.choice(SIDE_SHAPES) for _ in range(n_switches)]
        ends = sum(p + q for p, q in shapes)
        if ends % 2 or ends // 2 > max_branches:
            continue
        slots = []
        for s, (p, q) in enumerate(shapes):
            slots.extend((f"v{s}", 0, i) for i in range(p))
            slots.extend((f"v{s}", 1, i) for i in range(q))
        rng.shuffle(slots)
        branches = tuple(
            Branch(f"b{i}", (BranchEnd(*slots[2 * i]), BranchEnd(*slots[2 * i + 1])))
            for i in range(len(slots) // 2)
        )
        return TrainTrack(tuple(f"v{s}" for s in range(n_switches)), branches)


def _dart_graph(track: TrainTrack):
    """Darts are (branch index, arriving end index); edges are the smooth
    continuations through the arriving switch."""
    succ = {}
    for bidx, b in enumerate(track.branches):
        for d in (0, 1):
            end = b.ends[d]
            nxt = []
            for b2, d2 in track.side_ends(end.switch, 1 - end.side):
                nxt.append((b2, 1 - d2))
            succ[(bidx, d)] = nxt
    return succ


def route_dead_branches(track: TrainTrack) -> list[str]:
    """Oracle: names of the branches on no closed smooth route (neither dart
    on a cycle of the dart graph), by exhaustive reachability."""
    succ = _dart_graph(track)
    on_cycle = set()
    for start in succ:
        frontier = list(succ[start])
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            if node == start:
                on_cycle.add(start)
                break
            for nxt in succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return [
        b.name
        for bidx, b in enumerate(track.branches)
        if (bidx, 0) not in on_cycle and (bidx, 1) not in on_cycle
    ]


def route_recurrent(track: TrainTrack) -> bool:
    """Oracle: every branch lies on a closed smooth route."""
    return not route_dead_branches(track)


def some_closed_route(track: TrainTrack) -> list[int] | None:
    """Any dart cycle, as the list of branch indices it traverses."""
    succ = _dart_graph(track)
    for start in succ:
        path = [start]
        index = {start: 0}
        node = start
        while True:
            node = succ[node][0]
            if node in index:
                cycle = path[index[node]:]
                return [b for b, _ in cycle]
            index[node] = len(path)
            path.append(node)
    return None


def counting_measure(track: TrainTrack, route: list[int]) -> dict[str, Fraction]:
    weights = {b.name: Fraction(0) for b in track.branches}
    for bidx in route:
        weights[track.branches[bidx].name] += 1
    return weights


# --- polygon chords ---------------------------------------------------------


def chords_brute(k: int) -> list[tuple[int, int]]:
    out = []
    for i in range(k):
        for j in range(k):
            if i < j and (j - i) % k not in (1, k - 1):
                out.append((i, j))
    return out


def crossing_brute(c1, c2) -> bool:
    (i, j), (p, q) = c1, c2
    def between(x, lo, hi):
        return lo < x < hi
    return (between(p, i, j) != between(q, i, j)) and len({i, j, p, q}) == 4


def noncrossing_subsets_brute(k: int) -> set[frozenset]:
    chords = chords_brute(k)
    out = set()
    for mask in range(1 << len(chords)):
        chosen = [chords[t] for t in range(len(chords)) if mask >> t & 1]
        if all(
            not crossing_brute(chosen[x], chosen[y])
            for x in range(len(chosen))
            for y in range(x + 1, len(chosen))
        ):
            out.add(frozenset(chosen))
    return out


# --- fold schedules ---------------------------------------------------------


def random_fold_schedule(rng: random.Random, size: int):
    """Returns (cusps, cusp_map, folded, orbits_all_fold)."""
    cusps = tuple(f"c{i}" for i in range(size))
    cusp_map = {c: rng.choice(cusps) for c in cusps}
    folded = frozenset(c for c in cusps if rng.random() < 0.4)
    ok = True
    for c in cusps:
        cur, seen = c, set()
        while cur not in folded:
            if cur in seen:
                ok = False
                break
            seen.add(cur)
            cur = cusp_map[cur]
        if not ok:
            break
    return cusps, cusp_map, folded, ok
