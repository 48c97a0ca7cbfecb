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
closed neighbourhood of the support, skips them, and makes the event's
step.  The work is O(g) events of O(g)-bit operations; the per-step
supports and certificates are rebuilt on demand by replaying the
rotations.  The test suite cross-checks it against an independent
set-based model of the same system and against the plain step-by-step
loop.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from operator import itemgetter
from typing import NamedTuple

__all__ = [
    "BaseCurve",
    "TraceResult",
    "trace",
    "k_star",
    "penner_upper_bound",
]

FAMILIES = ("a", "b", "c")
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


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


def _rotate(x: int, g: int, j: int) -> int:
    """`x` with each family's g-bit row rotated j < g places toward bit 0:
    the curve of index i moves to index i - j (mod g)."""
    lo = ((1 << j) - 1) * (1 | 1 << g | 1 << 2 * g)
    return ((x & ~lo) >> j) | ((x & lo) << (g - j))


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
    One curve table maps each bit to its curve, and one decoder turns each
    replayed mask into flags in the curves' string order; `certificates`
    reads the table, `supports` and `sorted_names` read the decoder.
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

    def _decode(self) -> tuple[list[BaseCurve], Iterator[tuple[int, ...]]]:
        """The curves in string order (a1, a10, a100, a11, ...) and, for each
        replayed support S_k, one 0/1 flag per curve in that order."""
        curves = self._curves
        nbits = len(curves)
        order = sorted(range(nbits), key=lambda cid: str(curves[cid]))
        # format() puts bit cid at string position nbits - 1 - cid.
        pick = itemgetter(*(nbits - 1 - cid for cid in order))
        spec = f"0{nbits}b"
        flags = (pick(format(m, spec).encode().translate(_BIT_BYTES)) for m in self._replay())
        return [curves[cid] for cid in order], flags

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
        """The support S_k as a set of curves for k = 0..steps."""
        ordered, flags = self._decode()
        return tuple(frozenset(compress(ordered, f)) for f in flags)

    def sorted_names(self) -> Iterator[Iterator[str]]:
        """Each support's curve names in string order, read from the same
        decoder as `supports`: no sort per support and no `masks` tuple."""
        ordered, flags = self._decode()
        names = [str(c) for c in ordered]
        return (compress(names, f) for f in flags)


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

    Each pass of the loop handles one event: it skips the pure rotations
    before it, makes its step and computes its N[S_k], which gives both the
    next pass's run and `best_k`.
    """
    g = genus
    if g < 2:
        raise ValueError(f"chain system needs genus >= 2, got {g}")
    if cap is None:
        cap = 3 * g * g
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")

    full = (1 << 3 * g) - 1
    mask = (1 << g) - 1
    lows = 1 | (1 << g) | (1 << 2 * g)  # the three index-1 bits
    shift = g - 1
    # The twist curves a_1, b_1, c_1 in twist order, each with the curves it
    # meets.
    twists = [(1 << c, _closed(1 << c, g) & ~(1 << c)) for c in (0, g, 2 * g)]

    # A step is a pure rotation unless some twist curve lies in N[S] but not
    # in S.  N commutes with the rotation, so bit j of a family's row of
    # N[S] \ S says whether its twist curve would be that after j rotations;
    # the least set bit over the three rows is the number of pure rotations
    # before the next step that adds a curve.  N[S] = S only for the full
    # system, since the chain is connected.
    s = 1 << (g - 1)  # a_g
    near = _closed(s, g)
    events = [(0, s)]
    best_k = None
    k = 0
    while k < cap:
        fresh = near & ~s
        if not fresh:  # the full system: the next step repeats it
            k += 1
            break
        word = (fresh | fresh >> g | fresh >> 2 * g) & mask
        run = min((word & -word).bit_length() - 1, cap - k)
        s = _rotate(s, g, run)
        k += run
        if k == cap:
            break
        k += 1
        for cbit, nbrs in twists:
            if s & nbrs:
                s |= cbit
        s = ((s & ~lows) >> 1) | ((s & lows) << shift)
        events.append((k, s))
        near = _closed(s, g)
        if best_k is None and near == full:
            best_k = k - 1

    if best_k is None:
        best_k = k
    return TraceResult(genus=genus, cap=cap, events=tuple(events), steps=k, best_k=best_k)


def penner_upper_bound(genus: int) -> tuple[int, Fraction]:
    """Best certified iterate and the exact bound 2/k it yields."""
    r = trace(genus)
    return r.best_k, r.bound
