"""Support propagation for the genus-g Penner-style map.

The chain system has 3g curves a_1..a_g, b_1..b_g, c_1..c_g with the 0/1
intersection pattern  a_j-b_j,  c_j-b_j,  c_j-b_{j-1}  (indices mod g, so
b_0 means b_g); all other pairs are disjoint.  The map is a cyclic
rotation composed with three Dehn twists along the index-1 curves.
Tracking which curves can meet the image of a starting curve after k
iterates gives distance-2 certificates in the curve graph and hence exact
upper bounds 2/k.

The trace runs on int bitmasks, one bit per curve: family f (a, b, c =
0, 1, 2) and index i give bit f*g + i - 1.  The test suite cross-checks it
against an independent set-based model of the same system.
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


@dataclass(frozen=True)
class TraceResult:
    """Orbit supports S_0..S_K with every certified iterate.

    `bound * best_k == 2` whenever a certificate exists.
    """

    genus: int
    cap: int
    masks: tuple[int, ...]
    certificates: tuple[tuple[int, BaseCurve], ...]
    best_k: int | None
    bound: Fraction | None

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
        ...), read straight from `masks`: no curve objects, no sort."""
        nbits = 3 * self.genus
        names = [f"{family}{i}" for family in FAMILIES for i in range(1, self.genus + 1)]
        order = sorted(range(nbits), key=names.__getitem__)
        ordered = [names[cid] for cid in order]
        # format() puts bit cid at string position nbits - 1 - cid.
        pick = itemgetter(*(nbits - 1 - cid for cid in order))
        spec = f"0{nbits}b"
        for mask in self.masks:
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
    # A witness at step k is any curve outside the closed neighborhood of
    # the support and disjoint from the start, i.e. any bit missing from
    # `blocked` other than b_g.  The intersection pattern commutes with the
    # index rotation, so `blocked` evolves by the same bit rotation as the
    # support and only grows when a twist joins.  The least available bit
    # is automatically the a-family-first, lowest-index witness.
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
            certificates.append((k, _curve(FAMILIES[low // g], low % g + 1)))
        if s == full and masks[-2] == full:
            break

    best_k = max((k for k, _ in certificates), default=None)
    bound = Fraction(2, best_k) if best_k else None
    return TraceResult(
        genus=genus,
        cap=cap,
        masks=tuple(masks),
        certificates=tuple(certificates),
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
