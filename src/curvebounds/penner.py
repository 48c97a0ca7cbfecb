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
support's curve names are read off its bytes, in curve order, through one
text table per byte built once per report.  The test suite cross-checks
the trace against an independent set-based model of the same system and
against the plain step-by-step loop.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import getitem
from typing import NamedTuple

__all__ = [
    "BaseCurve",
    "TraceResult",
    "trace",
    "k_star",
    "penner_upper_bound",
]

FAMILIES = ("a", "b", "c")


class BaseCurve(NamedTuple):
    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def k_star(genus: int) -> int:
    """Iterate count certified by the rotation-chain argument:
    (g-1) + floor((g-1)/2) * (g+1)."""
    if genus < 2:
        raise ValueError(f"needs genus >= 2, got {genus}")
    return (genus - 1) + ((genus - 1) // 2) * (genus + 1)


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
    `sorted_names` look up each byte of a replayed mask in a table per byte
    (`_byte_tables`), of curve tuples or of text, built once per call.
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
        """The support S_k as a set of curves for k = 0..steps: each byte of
        the replayed mask is looked up in one table of curve tuples per byte."""
        parts = _byte_tables([(c,) for c in self._curves], ())
        nbytes = len(parts)
        return tuple(
            frozenset(chain.from_iterable(map(getitem, parts, m.to_bytes(nbytes, "little"))))
            for m in self._replay()
        )

    def sorted_names(self, sep: str) -> Iterator[str]:
        """Each support's curve names in curve order (a1..ag, b1..bg,
        c1..cg, the order of its bits and of `BaseCurve`), joined by `sep`:
        one text table per byte of the replayed mask, so there is no sort
        per support and no `masks` tuple."""
        text = _byte_tables([f"{sep}{c}" for c in self._curves], "")
        nbytes, cut = len(text), len(sep)
        return ("".join(map(getitem, text, m.to_bytes(nbytes, "little")))[cut:]
                for m in self._replay())


def _byte_tables(items: list, empty) -> list[list]:
    """For each run of 8 items, the 256 sums of its subsets (fewer for a
    shorter last run), indexed by byte value: bit i of the byte picks the
    run's i-th item.  Each table is built by doubling."""
    tables = []
    for start in range(0, len(items), 8):
        table = [empty]
        for item in items[start:start + 8]:
            table += [x + item for x in table]
        tables.append(table)
    return tables


def trace(genus: int, cap: int | None = None) -> TraceResult:
    """Iterate the support of the starting curve a_g.

    Stops at `cap` (default 3g^2) or as soon as the support has saturated to
    the full system and repeats.  Step k is certified while some curve other
    than b_g lies outside N[S_k]; it suffices that N[S_k] is not the whole
    system, since b_i outside it leaves a_i outside too.  N commutes with the
    rotation and a twist only adds curves, so once N[S_k] is everything it
    stays so: the certified steps are 1 up to the one before the first event
    with a full N[S_k].  Step 1 only rotates a_g, which meets no neighbour
    of a twist curve, to a_{g-1}, and N[{a_{g-1}}] = {a_{g-1}, b_{g-1}}; so
    the first such event comes at k >= 2 and `best_k` >= 1.

    Each pass of the loop handles one event: it rotates S and N[S] past the
    pure rotations before it and the event's own rotation at once, twists,
    and adds the neighbourhood of each curve the twists add to N[S], which
    then gives both the next pass's run and `best_k`.  So `_closed` runs four
    times per trace: for the start and for the three twist curves.
    """
    g = genus
    if g < 2:
        raise ValueError(f"chain system needs genus >= 2, got {g}")
    if cap is None:
        cap = 3 * g * g
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


def penner_upper_bound(genus: int) -> tuple[int, Fraction]:
    """Best certified iterate and the exact bound 2/k it yields."""
    r = trace(genus)
    return r.best_k, r.bound
