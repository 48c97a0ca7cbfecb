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
each family's g-bit row, and at most 6g steps do more, since a twist
only ever adds bits.  So the trace jumps along rotation orbits: after a
pure rotation it reads the length of the run of rotations that follows
off g-bit words of the state, and skips it.  The work is O(g) events of
O(g)-bit operations; the per-step supports and certificates are rebuilt
on demand by replaying the rotations.  The test suite cross-checks it
against an independent set-based model of the same system and against
the plain step-by-step loop.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

__all__ = [
    "BaseCurve",
    "TraceResult",
    "NoCertificateError",
    "trace",
    "k_star",
    "penner_upper_bound",
]

FAMILIES = ("a", "b", "c")
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class NoCertificateError(RuntimeError):
    """The trace found no iterate with a distance-2 certificate."""


class BaseCurve(NamedTuple):
    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


@lru_cache(maxsize=None)
def _curve(family: str, index: int) -> BaseCurve:
    return BaseCurve(family, index)


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


def _orbit(x: int, g: int, c: int) -> int:
    """The g-bit word whose bit j is bit c of `_rotate(x, g, j)`: bit
    (p + j) mod g of the row of curve c, which sits at place p in it."""
    f, p = divmod(c, g)
    mask = (1 << g) - 1
    row = (x >> f * g) & mask
    return ((row >> p) | (row << (g - p))) & mask


@dataclass(frozen=True)
class TraceResult:
    """Orbit supports S_0..S_K with every certified iterate.

    `events` holds the state `(k, support, blocked)` after each step k that
    was not a pure rotation, from the start (k = 0); every other step up to
    K = `steps` only rotates it.  `masks` (the supports S_k), `certificates`
    and `supports` are rebuilt from it by replaying rotations on first use.
    `bound * best_k == 2` whenever a certificate exists.
    """

    genus: int
    cap: int
    events: tuple[tuple[int, int, int], ...]
    steps: int
    best_k: int | None
    bound: Fraction | None

    def _replay(self, field: int) -> Iterator[int]:
        """Field 1 (support) or 2 (blocked) of the state after each step."""
        lows = 1 | (1 << self.genus) | (1 << 2 * self.genus)  # the index-1 bits
        shift = self.genus - 1
        ends = [k for k, _, _ in self.events[1:]] + [self.steps + 1]
        for event, end in zip(self.events, ends):
            x = event[field]
            for _ in range(event[0], end):
                yield x
                x = ((x & ~lows) >> 1) | ((x & lows) << shift)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Support bitmask S_k for k = 0..steps."""
        return tuple(self._replay(1))

    @cached_property
    def certificates(self) -> tuple[tuple[int, BaseCurve], ...]:
        """(k, witness) for each certified step k >= 1; the witness is the
        least bit outside `blocked` other than b_g."""
        g = self.genus
        not_bg = ((1 << 3 * g) - 1) & ~(1 << (2 * g - 1))
        out = []
        for k, blocked in enumerate(self._replay(2)):
            avail = not_bg & ~blocked
            if k and avail:
                low = (avail & -avail).bit_length() - 1
                out.append((k, _curve(FAMILIES[low // g], low % g + 1)))
        return tuple(out)

    @cached_property
    def supports(self) -> tuple[frozenset, ...]:
        g = self.genus
        out = []
        for mask in self.masks:
            curves = []
            m = mask
            while m:
                low = m & -m
                cid = low.bit_length() - 1
                curves.append(_curve(FAMILIES[cid // g], cid % g + 1))
                m ^= low
            out.append(frozenset(curves))
        return tuple(out)

    def sorted_names(self) -> Iterator[Iterator[str]]:
        """Each support's curve names in string order (a1, a10, a100, a11,
        ...), read straight from the replayed supports: no curve objects, no
        sort, and no `masks` tuple."""
        nbits = 3 * self.genus
        names = [f"{family}{i}" for family in FAMILIES for i in range(1, self.genus + 1)]
        order = sorted(range(nbits), key=names.__getitem__)
        ordered = [names[cid] for cid in order]
        # format() puts bit cid at string position nbits - 1 - cid.
        pick = itemgetter(*(nbits - 1 - cid for cid in order))
        spec = f"0{nbits}b"
        for mask in self._replay(1):
            yield compress(ordered, pick(format(mask, spec).encode().translate(_BIT_BYTES)))


def trace(genus: int, cap: int | None = None) -> TraceResult:
    """Iterate the support of the starting curve a_g, certifying each step.

    Stops at `cap` (default 3g^2) or as soon as the support has saturated to
    the full system and repeats.
    """
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

    def cid(fam: int, idx: int) -> int:
        return fam * g + idx - 1

    a1, b1, c1, c2, bg = cid(0, 1), cid(1, 1), cid(2, 1), cid(2, 2), cid(1, g)
    # Each twist curve, in twist order, with the curves it meets:
    # a_1-b_1,  b_1-{a_1, c_1, c_2},  c_1-{b_1, b_g}.  As bitmasks: its
    # closed neighborhood, itself and its neighbors.
    twists = ((a1, (b1,)), (b1, (a1, c1, c2)), (c1, (b1, bg)))
    closed = []
    for c, nbrs in twists:
        nmask = sum(1 << n for n in nbrs)
        closed.append((1 << c | nmask, 1 << c, nmask))
    start_bit = 1 << cid(0, g)
    # A witness at step k is any curve outside the closed neighborhood of
    # the support and disjoint from the start, i.e. any bit missing from
    # `blocked` other than b_g.  The intersection pattern commutes with the
    # index rotation, so `blocked` evolves by the same bit rotation as the
    # support and only grows when a twist joins.  The least available bit
    # is automatically the a-family-first, lowest-index witness.
    not_bg = full & ~(1 << bg)
    blocked = start_bit | 1 << bg  # a_g meets only b_g

    # `blocked` is always the closed neighborhood of the support, so a step
    # is a pure rotation unless some twist curve outside the support meets
    # it.  One orbit word per curve read gives that test for every j < g
    # rotations at once.  Its least set bit is the number of pure rotations
    # that follow; rotation has period g, so an empty word means they never
    # end.
    def pure_run(s: int) -> int | None:
        on = {c: _orbit(s, g, c) for c in (a1, b1, c1, c2, bg)}
        event = 0
        for c, nbrs in twists:
            for n in nbrs:
                event |= on[n] & ~on[c]
        return (event & -event).bit_length() - 1 if event else None

    s = start_bit
    events = [(0, s, blocked)]
    best_k = None
    k = 0
    while k < cap:
        k += 1
        before = s
        for cmask, cbit, nmask in closed:
            if s & nmask:
                s |= cbit
                blocked |= cmask
        pure = s == before
        s = ((s & ~lows) >> 1) | ((s & lows) << shift)
        blocked = ((blocked & ~lows) >> 1) | ((blocked & lows) << shift)
        if not_bg & ~blocked:
            best_k = k
        if not pure:
            events.append((k, s, blocked))
            continue
        if s == full:  # saturated: the support was already full
            break
        run = pure_run(s)
        run = cap - k if run is None else min(run, cap - k)
        if run:
            # Skip the steps k+1..k+run.  They only rotate the free curves
            # `full & ~blocked`, and b_g is never the only one: b_i outside
            # the closed neighborhood of the support leaves a_i outside too.
            # So either every skipped step is certified or none is.
            k += run
            s = _rotate(s, g, run % g)
            blocked = _rotate(blocked, g, run % g)
            if not_bg & ~blocked:
                best_k = k

    bound = Fraction(2, best_k) if best_k else None
    return TraceResult(
        genus=genus,
        cap=cap,
        events=tuple(events),
        steps=k,
        best_k=best_k,
        bound=bound,
    )


def penner_upper_bound(genus: int, cap: int | None = None) -> tuple[int, Fraction]:
    """Best certified iterate and the exact bound 2/k it yields."""
    result = trace(genus, cap)
    if result.best_k is None:
        raise NoCertificateError(
            f"no certified iterate for genus {genus} within cap {result.cap}"
        )
    return result.best_k, result.bound
