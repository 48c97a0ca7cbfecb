"""Support propagation for the genus-g Penner-style map.

The chain system has 3g curves a_1..a_g, b_1..b_g, c_1..c_g with the 0/1
intersection pattern  a_j-b_j,  c_j-b_j,  c_j-b_{j-1}  (indices mod g, so
b_0 means b_g); all other pairs are disjoint.  The map is a cyclic
rotation composed with three Dehn twists along the index-1 curves.
Tracking which curves can meet the image of a starting curve after k
iterates gives distance-2 certificates in the curve graph and hence exact
upper bounds 2/k.

The trace runs on int bitmasks, one bit per curve: family f (a, b, c =
0, 1, 2) and index i give bit f*g + i - 1.  Almost every step only rotates
each family's g-bit row, and at most 3g - 1 steps do more, since each of
them adds a curve to the support.  So the trace makes one pass per such
event: it reads the number of pure rotations before the event off the
closed neighbourhood N[S] of the support, skips them, and makes the
event's step.  N[S] is kept across events: it rotates with S, and a twist
that adds a curve adds that curve's neighbourhood.  The work is O(g)
events of a few O(g)-bit operations each.  The per-step supports and
certificates are rebuilt on demand by replaying the rotations, and a
support's curves and names are cut from the curve list, in curve order,
one slice per run of set bits of its mask.  The test suite cross-checks
the trace against an independent set-based model of the same system and
against the plain step-by-step loop.

Lemma B.  For g >= 2 and the default cap, `trace(g).best_k` =
k_star(g) + [g even], with `curvebounds.surfaces.k_star(g)` =
(g - 1) + floor((g - 1)/2)(g + 1).  `surfaces.penner_upper_bound` reads
the certified bound 2/`best_k` off this closed form without a trace.

Notation.  Step k (from S_{k-1} to S_k) twists along a_1, then b_1, then
c_1, and then rotates every index i to i - 1.  A curve joins S at a twist
exactly when S already holds one of its neighbours: a_1 when b_1 is in S;
b_1 when a_1, c_1 or c_2 is; c_1 when b_1 or b_g is.  Write A, B, C for
the indices of the a, b and c curves in S, and [s, t] for the cyclic
interval s, s + 1, .., t of indices (mod g).  Let R = floor((g - 3)/2),
k_j = 2g + 1 + j(g + 1) and T_j the support with

    A = [g - 1 - 2j, g - 1],   B = C = [g - 2 - 2j, g]     (j = 0..R),

of sizes (2j + 1, 2j + 3, 2j + 3).  T_R has B = C = [1, g] for odd g and
B = C = [2, g] for even g; for j < R the start g - 2 - 2j is at least 3.

The frame of k.  Read each index i of S_{k+t} as i + t (mod g), for
t >= 0.  Rotations are then invisible, and since the pattern is rotation
invariant, step t after k twists along a_t, b_t, c_t, with neighbours
b_t; a_t, c_t, c_{t+1}; b_t, b_{t-1}.  After the t steps the true indices
are the frame's minus t, so after g + 1 steps they are the frame's minus
one.  An event is a step whose twists add a curve.

Claim 1 (g >= 4): S_{k_0} = T_0, and the events up to k_0 are at
k = g, g + 1, 2g - 1 and 2g + 1.  From S_0 = {a_g}, in the frame of k = 0:
steps 1..g - 1 add nothing, since a_g meets only b_g, which is a twist
curve only at step g.  Step g adds b_g (a_g is in S) and then c_g (b_g
is), so S_g = {a_g, b_g, c_g}.  Step g + 1 twists at frame index 1 and
adds c_1 (b_g is in S); a_1 and b_1 stay out, since b_1, a_1, c_1 and c_2
are not in S (c_2 = c_g only for g = 2).  So S_{g+1} has A = {g - 1},
B = {g - 1}, C = {g - 1, g}.  In the frame of k = g + 1: steps 1..g - 3
add nothing (no neighbour of a twist curve is in S: c_2 in C needs g = 3);
step g - 2 >= 2 adds b_{g-2} (c_{g-1} is in S) and then c_{g-2}, but not
a_{g-2}, whose twist comes first; step g - 1 finds every twist curve in
S; step g adds b_g (c_g is in S), and a_g stays out since its twist comes
first.  That gives the events k = 2g - 1, where A = {1}, B = {g, 1},
C = {g, 1, 2}, and k = 2g + 1, where g steps of the frame bring back the
true indices: A = {g - 1}, B = C = [g - 2, g], which is T_0.

Claim 2 (the round, j < R): from S_{k_j} = T_j the next g + 1 steps give
S_{k_{j+1}} = T_{j+1}, with events at the steps t = 1, s - 1, s, g and
g + 1, where s = g - 2 - 2j >= 3; their gaps are 1, g - 4 - 2j, 1,
2j + 2, 1.  In the frame of k_j, S holds A = [s + 1, g - 1] and
B = C = [s, g], all within [3, g]:
  t = 1: c_1 joins (b_g is in S); a_1 and b_1 do not (b_1, a_1, c_1 and
         c_2 are out when their twists come).  C = [s, g + 1].
  t = 2..s - 2: nothing joins; every neighbour of a_t, b_t and c_t is
         b_1 or has its index in [2, s - 1], and none of these is in S.
  t = s - 1: b_{s-1} joins (c_s is in S), then c_{s-1} (b_{s-1} now is);
         a_{s-1} does not, its twist coming first.  B = [s - 1, g],
         C = [s - 1, g + 1].
  t = s: a_s joins (b_s is in S).  A = [s, g - 1].
  t = s + 1..g - 1: every twist curve is in S already.
  t = g: a_g joins (b_g is in S).  A = [s, g].
  t = g + 1: b_1 joins (c_1 is in S); a_1 does not, since b_1 is out at
         its twist (s - 1 >= 2), and c_1 is in S.  B = [s - 1, g + 1].
Back to true indices, one less: A = [s - 1, g - 1] and
B = C = [s - 2, g], which is T_{j+1}.  So by induction S_{k_j} = T_j for
j = 0..R, and every family is one cyclic interval at every step up to k_R.

Claim 3: N[S_k] is the whole system first at k = k_R for odd g and at
k = k_R + 1 for even g.  For k < g, N[S_k] = {a_{g-k}, b_{g-k}}.  From
k = g on, A is inside B: so at k = g, rotations keep it, b curves never
leave S, and a_1 joins only when b_1 is in S.  Then N[S] is everything
exactly when B is: a_i lies in N[S] only if a_i or b_i is in S, that is
only if i is in B; and if B is full, every curve is a b or meets one.
By claims 1 and 2, |B| <= 3 < g up to k_0, and |B| = 2j + 3 at k_j,
growing by one at each of the steps s - 1 and g + 1 of the next round; so
|B| <= 2R + 2 <= g - 1 before k_R.  At k_R, |B| = 2R + 3, which is g for
odd g.  For even g, B = C = [2, g] at k_R; step k_R + 1 leaves a_1 out
(b_1 is not in S) and adds b_1 (c_2 is in S), so B is full at k_R + 1.

Proof of the lemma.  The certified iterates are 1 up to the step before
N[S_k] first covers the system (see `trace`), so by claim 3 `best_k` is
k_R - 1 for odd g and k_R for even g; the default cap 3g^2 lies beyond
both.  For odd g, R = (g - 3)/2 and k_R - 1 = 2g + (g - 3)(g + 1)/2 =
(g - 1) + (g - 1)(g + 1)/2 = k_star(g).  For even g, R = (g - 4)/2 and
k_R = 2g + 1 + (g - 4)(g + 1)/2 = (g - 1) + (g - 2)(g + 1)/2 + 1 =
k_star(g) + 1.  For g = 2 and 3 the events are read off directly, and
claim 3's argument, which needs only A inside B, applies to them: g = 2
has S_2 = {a2, b2, c2} and S_3 = {a1, b1, b2, c1, c2}, whose B is full, so
`best_k` = 2 = k_star(2) + 1; g = 3 has S_3 = {a3, b3, c3},
S_4 = {a2, b2, c2, c3}, S_5 = {a1, b1, b3, c1, c2, c3} and then B full
first at k = 7, so `best_k` = 6 = k_star(3).  The test suite
checks each claim on the set model from the stated supports, for g <= 12,
and the events of the trace for g = 5..400, 1000 and 2000.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import NamedTuple

__all__ = [
    "BaseCurve",
    "TraceResult",
    "trace",
]

FAMILIES = ("a", "b", "c")


class BaseCurve(NamedTuple):
    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def _closed(x: int, g: int) -> int:
    """The closed neighbourhood N[x] of a support mask: its curves and every
    curve meeting one of them, under  a_j-b_j,  c_j-b_j,  c_j-b_{j-1}."""
    mask = (1 << g) - 1
    a, b, c = x & mask, (x >> g) & mask, x >> 2 * g
    # c_{j+1} and b_{j-1} brought to place j: one index rotation each way.
    c_next = (c >> 1) | ((c & 1) << (g - 1))
    b_prev = ((b << 1) | (b >> (g - 1))) & mask
    ab = a | b
    return ab | (ab | c | c_next) << g | (b | c | b_prev) << 2 * g


class TraceResult:
    """Orbit supports S_0..S_K with every certified iterate.

    `events` holds `(k, S_k)` after each step k that was not a pure
    rotation, from the start (k = 0); every other step up to K = `steps`
    only rotates the support.  `masks` (the supports S_k), `certificates`
    and `supports` are rebuilt from it by replaying rotations on first use.
    `certificates` reads one table of the curve of each bit; `supports` and
    `sorted_names` cut one slice of the curve list, or of the joined curve
    names, per run of set bits of a replayed mask (`_runs`).  Up to
    `best_k`, lemma B makes each family one cyclic interval, so a support
    has at most six runs there.
    The certified iterates are exactly 1..`best_k`, and `bound` is 2/`best_k`.
    Immutable; the instance dict holds the fields and the cached properties.
    """

    def __init__(
        self,
        genus: int,
        cap: int,
        events: tuple[tuple[int, int], ...],
        steps: int,
        best_k: int,
    ):
        vars(self).update(genus=genus, cap=cap, events=events, steps=steps, best_k=best_k)

    def __setattr__(self, name, value):
        raise AttributeError("TraceResult is immutable")

    def _replay(self, closed: bool = False) -> Iterator[int]:
        """S_k, or N[S_k] when `closed`, after each step k = 0..steps."""
        g = self.genus
        lows = 1 | (1 << g) | (1 << 2 * g)  # the index-1 bits
        shift = g - 1
        ends = [k for k, _ in self.events[1:]] + [self.steps + 1]
        for (k, x), end in zip(self.events, ends):
            if closed:
                x = _closed(x, g)
            for _ in range(k, end):
                yield x
                x = ((x & ~lows) >> 1) | ((x & lows) << shift)

    @property
    def bound(self) -> Fraction:
        """The exact upper bound 2/`best_k` on the translation length."""
        return Fraction(2, self.best_k)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Support bitmask S_k for k = 0..steps."""
        return tuple(self._replay())

    @cached_property
    def _curves(self) -> tuple[BaseCurve, ...]:
        """The curve of each bit: bit f*g + i - 1 is family f, index i."""
        indices = range(1, self.genus + 1)
        return tuple(BaseCurve(family, i) for family in FAMILIES for i in indices)

    @cached_property
    def certificates(self) -> tuple[tuple[int, BaseCurve], ...]:
        """(k, witness) for k = 1..best_k; the witness is the least curve
        outside N[S_k] other than b_g, which alone meets the start a_g."""
        g = self.genus
        curves = self._curves
        not_bg = ((1 << 3 * g) - 1) & ~(1 << (2 * g - 1))
        out = []
        for k, near in islice(enumerate(self._replay(closed=True)), 1, self.best_k + 1):
            free = not_bg & ~near
            out.append((k, curves[(free & -free).bit_length() - 1]))
        return tuple(out)

    @cached_property
    def supports(self) -> tuple[frozenset, ...]:
        """The support S_k as a set of curves for k = 0..steps: the slices
        of the curve list at the runs of set bits of the replayed mask."""
        curves = self._curves
        return tuple(frozenset(chain.from_iterable(curves[lo:hi] for lo, hi in _runs(m)))
                     for m in self._replay())

    def sorted_names(self, sep: str) -> Iterator[str]:
        """Each support's curve names in curve order (a1..ag, b1..bg,
        c1..cg, the order of its bits and of `BaseCurve`), joined by `sep`:
        one slice of all the names, each led by `sep`, per run of set bits
        of the replayed mask, so there is no sort per support and no `masks`
        tuple."""
        names = [f"{sep}{c}" for c in self._curves]
        text, at, cut = "".join(names), [0, *accumulate(map(len, names))], len(sep)
        return ("".join(text[at[lo]:at[hi]] for lo, hi in _runs(m))[cut:]
                for m in self._replay())


def _runs(m: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) for each run of set bits lo..hi - 1 of m, from bit 0 up:
    adding the lowest set bit carries through its run to bit hi."""
    while m:
        low = m & -m
        carry = m + low
        yield low.bit_length() - 1, (carry ^ m).bit_length() - 1
        m &= carry


def trace(genus: int, cap: int | None = None) -> TraceResult:
    """Iterate the support of the starting curve a_g.

    `genus` and `cap` are ints (a bool is not).  Stops at `cap` (default
    3g^2) or as soon as the support has saturated to the full system and
    repeats.  Step k is certified while some curve other than b_g lies
    outside N[S_k]; it suffices that N[S_k] is not the whole system, since
    b_i outside it leaves a_i outside too.  N commutes with the rotation
    and a twist only adds curves, so once N[S_k] is everything it stays so:
    the certified steps are 1 up to the one before the first event with a
    full N[S_k].  Step 1 only rotates a_g, which meets no neighbour of a
    twist curve, to a_{g-1}, and N[{a_{g-1}}] = {a_{g-1}, b_{g-1}}; so the
    first such event comes at k >= 2 and `best_k` >= 1.

    Each pass of the loop handles one event: it rotates S and N[S] past the
    pure rotations before it and the event's own rotation at once, twists,
    and adds the neighbourhood of each curve the twists add to N[S], which
    then gives both the next pass's run and `best_k`.  So `_closed` runs four
    times per trace: for the start and for the three twist curves.
    """
    g = genus
    if type(g) is not int:
        raise ValueError(f"genus {g!r} is not an int")
    if g < 2:
        raise ValueError(f"chain system needs genus >= 2, got {g}")
    if cap is None:
        cap = 3 * g * g
    elif type(cap) is not int:
        raise ValueError(f"cap {cap!r} is not an int")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    full = (1 << 3 * g) - 1
    lows = 1 | (1 << g) | (1 << 2 * g)  # the three index-1 bits
    g2 = 2 * g
    # The twist curves a_1, b_1, c_1 in twist order, each as (the curves it
    # meets, itself, its closed neighbourhood), all rotated once: an event's
    # rotation maps S and N[S] bit for bit, so the loop rotates first and
    # twists in the rotated frame.  One rotation takes index 1 to index g,
    # and N commutes with it, so these are the index-g curves' masks.
    twists = []
    for c in (g - 1, g2 - 1, 3 * g - 1):
        near_c = _closed(1 << c, g)
        twists.append((near_c & ~(1 << c), 1 << c, near_c))

    # A step is a pure rotation unless some twist curve lies in N[S] but not
    # in S.  N commutes with the rotation, so bit i of a family's row of
    # N[S] \ S says whether its twist curve would be that after i rotations;
    # one more than the least set bit over the three rows is the number j of
    # steps up to and including the next event; `word` ORs the three rows
    # onto the low g bits, and its least set bit lies there.  N[S] = S only
    # for the full system, since the chain is connected.
    s = 1 << (g - 1)  # a_g
    near = _closed(s, g)
    events = [(0, s)]
    best_k = None
    k = 0
    while k < cap:
        fresh = near ^ s  # N[S] \ S, since S lies in N[S]
        if not fresh:  # the full system: the next step repeats it
            k += 1
            break
        word = fresh | fresh >> g | fresh >> g2
        j = (word & -word).bit_length()
        k += j
        if k > cap:
            k = cap
            break
        # Rotate S and N[S] j places: the curve of index i moves to i - j.
        lo = (lows << j) - lows  # the j lowest bits of each row
        s_lo, near_lo = s & lo, near & lo
        s = (s ^ s_lo) >> j | s_lo << (g - j)
        near = (near ^ near_lo) >> j | near_lo << (g - j)
        for nbrs, cbit, cnear in twists:
            if s & nbrs:
                s |= cbit
                near |= cnear
        events.append((k, s))
        if best_k is None and near == full:
            best_k = k - 1

    if best_k is None:
        best_k = k
    return TraceResult(genus=genus, cap=cap, events=tuple(events), steps=k, best_k=best_k)

