"""Closed-form translation-length bounds and their "p/q" strings.

Every bound here is an exact `fractions.Fraction` except the logarithmic
comparison bound, which is a 64-bit float by nature.  `SurfaceSig` and the
integer structural bounds live in `_signature`, which loads no `fractions`,
and are re-exported here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from ._signature import (
    SporadicSurfaceError,
    SurfaceSig,
    branch_bound,
    cusp_bound,
    lower_bound_coefficient,
    real_branch_bound,
)

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


def translation_length_lower_bound(sig: SurfaceSig) -> Fraction:
    """Universal lower bound 1/(c chi^2 + 6|chi|) for the stable translation
    length of any pseudo-Anosov map on `sig`, as an exact rational, with c
    from `lower_bound_coefficient`: the spread-time bound at k = c chi^2.
    """
    chi = sig.chi
    return lower_bound_from_spread_time(sig, lower_bound_coefficient(sig) * chi * chi)


def translation_length_upper_bound(genus: int) -> Fraction:
    """Upper bound 4/(g^2 + g - 4) realized on the closed genus-g surface."""
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
    if punctures < 5:
        raise ValueError(
            f"genus-2 punctured bound needs n >= 5, got {punctures}"
        )
    return Fraction(20, punctures - 4)


def lower_bound_from_spread_time(sig: SurfaceSig, k: int) -> Fraction:
    """Lower bound 1/(6|chi| + k) from a spread time of k iterates."""
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


def frac_str(x: Rational) -> str:
    """`x` as "p/q", with q = 1 for an integer.  An int or a `Fraction` is
    already in lowest terms, so no `Fraction` is built."""
    return f"{x.numerator}/{x.denominator}"
