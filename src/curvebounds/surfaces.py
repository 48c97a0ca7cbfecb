"""Surface signatures and their bounds.

`SurfaceSig` names a surface S_{g,n}.  Its structural bounds (branches,
real branches, cusps and the spread-time coefficient) are ints, and every
translation-length bound is an exact `fractions.Fraction` except the
logarithmic comparison bound, which is a 64-bit float by nature.
`fractions` is imported only inside the functions that build a `Fraction`,
so the `pf` and `track` engines, which need only the ints, never load it
(nor `decimal` and `numbers`, which it pulls in).
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "SporadicSurfaceError",
    "SurfaceSig",
    "BoundReport",
    "lower_bound_coefficient",
    "branch_bound",
    "real_branch_bound",
    "cusp_bound",
    "translation_length_lower_bound",
    "translation_length_upper_bound",
    "flm_upper_bound",
    "punctured_genus2_upper_bound",
    "lower_bound_from_spread_time",
    "frac_str",
]

# 4 * log(2 + sqrt(3)), the numerator of the logarithmic comparison bound.
_FLM_NUMERATOR = 4.0 * math.log(2.0 + math.sqrt(3.0))


class SporadicSurfaceError(ValueError):
    """Surface has complexity 3g - 3 + n < 2; the bounds do not apply."""


class SurfaceSig:
    """Orientable surface of genus `genus` with `punctures` punctures."""

    __slots__ = ("genus", "punctures")

    def __init__(self, genus: int, punctures: int = 0):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "punctures", punctures)
        if genus < 0 or punctures < 0:
            raise ValueError(f"negative signature: {self}")

    def __setattr__(self, name, value):
        raise AttributeError("SurfaceSig is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurfaceSig):
            return NotImplemented
        return (self.genus, self.punctures) == (other.genus, other.punctures)

    def __hash__(self) -> int:
        return hash((self.genus, self.punctures))

    def __repr__(self) -> str:
        return f"SurfaceSig(genus={self.genus!r}, punctures={self.punctures!r})"

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus - self.punctures

    @property
    def xi(self) -> int:
        """Complexity 3g - 3 + n (number of curves in a pants decomposition)."""
        return 3 * self.genus - 3 + self.punctures

    def require_non_sporadic(self) -> None:
        if self.xi < 2:
            raise SporadicSurfaceError(
                f"sporadic surface (3g-3+n = {self.xi} < 2): {self}"
            )


def lower_bound_coefficient(sig: SurfaceSig) -> int:
    """Coefficient c of the spread-time bound c chi^2: 162 for closed
    surfaces, 18 for punctured ones."""
    return 162 if sig.punctures == 0 else 18


def branch_bound(sig: SurfaceSig) -> int:
    """Structural bound 9|chi| - 3n on the branches of a track on `sig`."""
    return 9 * abs(sig.chi) - 3 * sig.punctures


def real_branch_bound(sig: SurfaceSig) -> int:
    """Structural bound 3|chi| - 3 on the real branches of a track on `sig`."""
    return 3 * abs(sig.chi) - 3


def cusp_bound(sig: SurfaceSig) -> int:
    """Structural bound 6|chi| on the cusps (and fold times) of a track."""
    return 6 * abs(sig.chi)


def translation_length_lower_bound(sig: SurfaceSig) -> Fraction:
    """Universal lower bound 1/(c chi^2 + 6|chi|) for the stable translation
    length of any pseudo-Anosov map on `sig`, as an exact rational, with c
    from `lower_bound_coefficient`: the spread-time bound at k = c chi^2.
    """
    chi = sig.chi
    return lower_bound_from_spread_time(sig, lower_bound_coefficient(sig) * chi * chi)


def translation_length_upper_bound(genus: int) -> Fraction:
    """Upper bound 4/(g^2 + g - 4) realized on the closed genus-g surface."""
    from fractions import Fraction

    if genus < 2:
        raise ValueError(f"closed-surface upper bound needs genus >= 2, got {genus}")
    return Fraction(4, genus * genus + genus - 4)


def flm_upper_bound(genus: int) -> float:
    """Logarithmic comparison upper bound 4 log(2+sqrt 3) / (g log(g - 1/2))."""
    if genus < 2:
        raise ValueError(f"comparison bound needs genus >= 2, got {genus}")
    return _FLM_NUMERATOR / (genus * math.log(genus - 0.5))


def punctured_genus2_upper_bound(punctures: int) -> Fraction:
    """Upper bound 20/(n-4) for the genus-2 surface with n >= 5 punctures."""
    from fractions import Fraction

    if punctures < 5:
        raise ValueError(
            f"genus-2 punctured bound needs n >= 5, got {punctures}"
        )
    return Fraction(20, punctures - 4)


def lower_bound_from_spread_time(sig: SurfaceSig, k: int) -> Fraction:
    """Lower bound 1/(6|chi| + k) from a spread time of k iterates."""
    from fractions import Fraction

    sig.require_non_sporadic()
    if k < 1:
        raise ValueError(f"spread time must be >= 1, got {k}")
    return Fraction(1, cusp_bound(sig) + k)


class BoundReport(NamedTuple):
    """The exact bounds known for one surface, checked against each other."""

    surface: SurfaceSig
    lower: Fraction
    upper_closed: Fraction | None = None
    upper_penner: Fraction | None = None

    def validate(self) -> None:
        """Check the sandwich invariants that hold whenever fields are set."""
        if self.upper_closed is not None and not self.lower < self.upper_closed:
            raise ValueError(
                f"lower bound {self.lower} not below upper bound "
                f"{self.upper_closed} for {self.surface}"
            )
        if self.upper_penner is not None and not self.lower < self.upper_penner:
            raise ValueError(
                f"lower bound {self.lower} not below certified upper bound "
                f"{self.upper_penner} for {self.surface}"
            )


def frac_str(x: int | Fraction) -> str:
    """`x` as "p/q", with q = 1 for an integer.  An int or a `Fraction` is
    already in lowest terms, so no `Fraction` is built."""
    return f"{x.numerator}/{x.denominator}"
