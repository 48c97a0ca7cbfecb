"""Seeded generators and independent oracles shared by the test suite.

Set CURVEBOUNDS_TEST_SEED to reproduce a particular randomized run; the
default keeps runs deterministic.
"""

from __future__ import annotations

import os
import random
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from hypothesis import strategies as st

from curvebounds.fileio import frac_str
from curvebounds.penner import BaseCurve, TraceResult
from curvebounds.pfmatrix import IntMatrix, is_irreducible, primitivity_exponent
from curvebounds.pfmatrix import BlockTransition
from curvebounds.surfaces import SurfaceSig, translation_length_upper_bound
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


# --- characteristic polynomial ----------------------------------------------
# Polynomials are lists of Fraction coefficients, highest degree first, with
# no leading zero; [] is the zero polynomial.


def char_poly(m: IntMatrix) -> list[Fraction]:
    """det(xI - m) by Faddeev-LeVerrier: M_0 = 0, M_k = m M_(k-1) + c_(n-k+1) I
    and c_(n-k) = -tr(m M_k) / k, starting from c_n = 1."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.entries]
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [
            [sum(a[i][l] * mk[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        tr = sum(a[i][l] * mk[l][i] for i in range(n) for l in range(n))
        coeffs.append(-tr / k)
    return coeffs


def _poly_divmod(p: list[Fraction], q: list[Fraction]):
    p, quo = list(p), []
    while len(p) >= len(q):
        f = p[0] / q[0]
        quo.append(f)
        for i, c in enumerate(q):
            p[i] -= f * c
        p.pop(0)
    while p and p[0] == 0:
        p.pop(0)
    return quo, p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def char_root_counts(m: IntMatrix, lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(distinct real roots of det(xI - m) in [lo, hi], those in (hi, oo)).

    Sturm's theorem counts the distinct roots in (a, b] as V(a) - V(b) only
    for a square-free polynomial, so the sequence is built on p / gcd(p, p')
    and a repeated root at lo or hi is counted once, not misread.
    """
    p = char_poly(m)
    g, r = p, _poly_deriv(p)
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    p = _poly_divmod(p, g)[0]
    seq = [p, _poly_deriv(p)]
    while seq[-1]:
        seq.append([-c for c in _poly_divmod(seq[-2], seq[-1])[1]])
    seq.pop()

    def changes(x: Fraction) -> int:
        return _sign_changes(_poly_eval(s, x) for s in seq)

    at_infinity = _sign_changes(s[0] for s in seq)
    in_bracket = changes(lo) - changes(hi) + (_poly_eval(p, lo) == 0)
    return in_bracket, changes(hi) - at_infinity


# --- digraphs ---------------------------------------------------------------


def random_digraph(rng: random.Random, n: int) -> list[list[int]]:
    """Successor lists of a random digraph on nodes 0..n-1, mixing densities
    with self-loops, 2-cycles, empty rows and isolated nodes."""
    density = rng.choice((0.0, 1 / n, 2 / n, 0.3))
    succ = [{w for w in range(n) if rng.random() < density} for _ in range(n)]
    for _ in range(rng.randint(0, 3)):
        v = rng.randrange(n)
        succ[v].add(v)
        u, v = rng.randrange(n), rng.randrange(n)
        succ[u].add(v)
        succ[v].add(u)
        succ[rng.randrange(n)].clear()
        v = rng.randrange(n)
        succ[v].clear()
        for row in succ:
            row.discard(v)
    return [sorted(row) for row in succ]


def brute_distances(succ: list[list[int]], source: int) -> dict[int, int]:
    """Length of a shortest path from source to every node it reaches
    (source itself at 0), by breadth-first search over successor lists."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for w in succ[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


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


# --- Penner chain system ----------------------------------------------------
# A set-based model of the system that `curvebounds.penner.trace` runs on
# bitmasks, written from the intersection pattern alone; only the BaseCurve
# data type is shared with the library.

FAMILIES = ("a", "b", "c")


def parse_curve(text: str) -> BaseCurve:
    fam, idx = text[:1], text[1:]
    if fam not in FAMILIES or not idx.isdigit() or int(idx) < 1:
        raise ValueError(f"bad curve label {text!r}")
    return BaseCurve(fam, int(idx))


def curves(*texts: str) -> frozenset:
    return frozenset(parse_curve(t) for t in texts)


@dataclass(frozen=True)
class PennerSystem:
    """Chain system of 3g curves a_1..a_g, b_1..b_g, c_1..c_g with the 0/1
    intersection pattern  a_j-b_j,  c_j-b_j,  c_j-b_{j-1}  (indices mod g,
    so b_0 means b_g); all other pairs are disjoint.
    """

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError(f"chain system needs genus >= 2, got {self.genus}")

    def curves(self) -> tuple[BaseCurve, ...]:
        return tuple(
            BaseCurve(f, i) for f in FAMILIES for i in range(1, self.genus + 1)
        )

    def _check(self, c: BaseCurve) -> None:
        if c.family not in FAMILIES or not 1 <= c.index <= self.genus:
            raise ValueError(f"curve {c} outside genus-{self.genus} system")

    def intersect(self, x: BaseCurve, y: BaseCurve) -> int:
        self._check(x)
        self._check(y)
        if x.family > y.family:
            x, y = y, x
        g = self.genus
        if (x.family, y.family) == ("a", "b"):
            return int(x.index == y.index)
        if (x.family, y.family) == ("b", "c"):
            # c_j meets b_j and b_{j-1}
            return int(y.index == x.index or (y.index - x.index) % g == 1)
        return 0

    def neighbors(self, c: BaseCurve) -> frozenset:
        self._check(c)
        g = self.genus
        i = c.index
        if c.family == "a":
            return frozenset({BaseCurve("b", i)})
        if c.family == "b":
            return frozenset({BaseCurve("a", i), BaseCurve("c", i), BaseCurve("c", i % g + 1)})
        # c-family: b_i and b_{i-1} with wraparound
        return frozenset({BaseCurve("b", i), BaseCurve("b", (i - 2) % g + 1)})


def twist_support(system: PennerSystem, support: frozenset, alpha: BaseCurve) -> frozenset:
    """Support after twisting along alpha: alpha joins when something in the
    support already meets it."""
    system._check(alpha)
    if any(system.intersect(x, alpha) for x in support):
        return frozenset(support | {alpha})
    return frozenset(support)


def rotate(system: PennerSystem, support: frozenset) -> frozenset:
    """Index rotation j -> j-1 (1 wraps to g) applied to every curve."""
    g = system.genus
    return frozenset(
        BaseCurve(c.family, g if c.index == 1 else c.index - 1) for c in support
    )


def step(system: PennerSystem, support: frozenset) -> frozenset:
    """One iterate: twists along a_1, then b_1, then c_1, then the rotation."""
    s = twist_support(system, support, BaseCurve("a", 1))
    s = twist_support(system, s, BaseCurve("b", 1))
    s = twist_support(system, s, BaseCurve("c", 1))
    return rotate(system, s)


def certify(system: PennerSystem, support: frozenset, start: BaseCurve) -> BaseCurve | None:
    """First curve (a-family first, then b, then c, by index) disjoint from
    `start` and from everything in `support`, or None."""
    system._check(start)
    for w in system.curves():
        if w in support or system.intersect(w, start):
            continue
        if all(not system.intersect(w, x) for x in support):
            return w
    return None


def oracle_trace(genus: int, cap: int | None = None):
    """Supports S_0..S_K and certificates (k, witness) for k >= 1 from the
    set model, with the library's stopping rule: `cap` iterates (default
    3g^2) or the step after the support first repeats the full system."""
    system = PennerSystem(genus)
    full = frozenset(system.curves())
    start = BaseCurve("a", genus)
    cap = 3 * genus * genus if cap is None else cap
    supports = [frozenset({start})]
    certificates = []
    for k in range(1, cap + 1):
        supports.append(step(system, supports[-1]))
        w = certify(system, supports[-1], start)
        if w is not None:
            certificates.append((k, w))
        if supports[-1] == supports[-2] == full:
            break
    return tuple(supports), tuple(certificates)


class StepTrace(NamedTuple):
    masks: tuple[int, ...]
    certificates: tuple[tuple[int, BaseCurve], ...]
    best_k: int | None
    bound: Fraction | None


def step_trace(genus: int, cap: int | None = None) -> StepTrace:
    """The bitmask trace one step at a time: three twists and a rotation
    per iterate, with the library's certificate and stopping rules.  A
    second oracle for `curvebounds.penner.trace`, which skips the steps
    that only rotate."""
    g = genus
    if g < 2:
        raise ValueError(f"chain system needs genus >= 2, got {g}")
    if cap is None:
        cap = 3 * g * g
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    nbits = 3 * g
    full = (1 << nbits) - 1
    lows = 1 | (1 << g) | (1 << 2 * g)  # the three index-1 bits
    shift = g - 1

    def bit(fam: int, idx: int) -> int:
        return 1 << (fam * g + idx - 1)

    a1, b1, c1 = bit(0, 1), bit(1, 1), bit(2, 1)
    # Each twist curve, in twist order, with its closed neighborhood and the
    # curves it meets:  a_1-b_1,  b_1-{a_1, c_1, c_2},  c_1-{b_1, b_g}.
    closed = [
        (cbit | nmask, cbit, nmask)
        for cbit, nmask in ((a1, b1), (b1, a1 | c1 | bit(2, 2)), (c1, b1 | bit(1, g)))
    ]
    start_bit = bit(0, g)
    not_bg = full & ~bit(1, g)
    blocked = start_bit | bit(1, g)  # a_g meets only b_g

    s = start_bit
    masks = [s]
    certificates: list[tuple[int, BaseCurve]] = []
    for k in range(1, cap + 1):
        for cmask, cbit, nmask in closed:
            if s & nmask:
                s |= cbit
                blocked |= cmask
        s = ((s & ~lows) >> 1) | ((s & lows) << shift)
        blocked = ((blocked & ~lows) >> 1) | ((blocked & lows) << shift)
        masks.append(s)
        avail = not_bg & ~blocked
        if avail:
            low = (avail & -avail).bit_length() - 1
            certificates.append((k, BaseCurve(FAMILIES[low // g], low % g + 1)))
        if s == full and masks[-2] == full:
            break

    best_k = max((k for k, _ in certificates), default=None)
    bound = Fraction(2, best_k) if best_k else None
    return StepTrace(tuple(masks), tuple(certificates), best_k, bound)


def reference_penner_report(result: TraceResult, as_json: bool) -> tuple[str, int]:
    """Stdout and exit code of `penner` for `result`, built as one payload
    from the `supports` frozensets and printed whole."""
    genus = result.genus
    upper = translation_length_upper_bound(genus)
    ok = result.bound <= upper
    supports = [sorted(str(c) for c in s) for s in result.supports]
    payload = {
        "genus": genus,
        "cap": result.cap,
        "supports": supports,
        "certificates": [[k, str(w)] for k, w in result.certificates],
        "best_k": result.best_k,
        "bound": frac_str(result.bound),
        "upper_closed": frac_str(upper),
        "pass": ok,
    }
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0 if ok else 1
    lines = [f"penner trace, genus {genus}, cap {result.cap}"]
    for k, s in enumerate(supports):
        lines.append(f"S_{k} = {{{' '.join(s)}}}")
    for k, w in result.certificates:
        lines.append(f"certified k={k} witness={w}")
    lines.append(f"best_k={result.best_k} bound={payload['bound']}")
    verdict = "PASS" if ok else "FAIL"
    lines.append(f"2/{result.best_k} <= 4/(g^2+g-4) = {frac_str(upper)}: {verdict}")
    return "".join(line + "\n" for line in lines), 0 if ok else 1


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


def dissection_sizes(k: int, chords) -> list[int]:
    """Sorted vertex counts of the polygons that non-crossing chords cut a
    k-gon (vertices 0..k-1 in cyclic order) into.  Each chord splits the
    one polygon holding both of its endpoints."""
    polygons = [list(range(k))]
    for i, j in chords:
        (poly,) = [p for p in polygons if i in p and j in p]
        a, b = sorted((poly.index(i), poly.index(j)))
        polygons.remove(poly)
        polygons += [poly[a:b + 1], poly[b:] + poly[:a + 1]]
    return sorted(len(p) for p in polygons)


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


# --- fuzzing strategies -----------------------------------------------------


def numeric_field(min_digits: int, max_digits: int):
    """A numeric field: a short digit run, a run of min_digits..max_digits
    digits, or arbitrary short text."""
    return st.one_of(
        st.text(alphabet="0123456789", min_size=1, max_size=3),
        st.integers(min_digits, max_digits).map(lambda n: "7" * n),
        st.text(max_size=3),
    )


MATRIX_TEMPLATE = "{} {}\n{} {}\n{} {}\nreal: {}\nsurface: {} {}\n"
TRACK_TEMPLATE = (
    "surface {} {}\nswitches s\nbranches\nx s:{}:{} s:{}:{} plain\nattach\n{} {} {}\n"
)


def near_valid_texts(field):
    """Matrix and track files with every numeric field drawn from `field`,
    plus arbitrary text."""
    return st.one_of(
        st.lists(field, min_size=9, max_size=9).map(lambda f: MATRIX_TEMPLATE.format(*f)),
        st.lists(field, min_size=9, max_size=9).map(lambda f: TRACK_TEMPLATE.format(*f)),
        st.text(),
    )
