"""Surface signatures and closed-form translation-length bounds.

Every bound is an exact `fractions.Fraction` except the logarithmic
comparison bound, which is a 64-bit float by nature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    "scaled_bound",
]

# 4 * log(2 + sqrt(3)), the numerator of the logarithmic comparison bound.
_FLM_NUMERATOR = 4.0 * math.log(2.0 + math.sqrt(3.0))


class SporadicSurfaceError(ValueError):
    """Surface has complexity 3g - 3 + n < 2; the bounds do not apply."""


@dataclass(frozen=True)
class SurfaceSig:
    """Orientable surface of genus `genus` with `punctures` punctures."""

    genus: int
    punctures: int = 0

    def __post_init__(self) -> None:
        if self.genus < 0 or self.punctures < 0:
            raise ValueError(f"negative signature: {self}")

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
    from `lower_bound_coefficient`.
    """
    sig.require_non_sporadic()
    chi = sig.chi
    return Fraction(1, lower_bound_coefficient(sig) * chi * chi + cusp_bound(sig))


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


def scaled_bound(bound: Fraction, power: int) -> Fraction:
    """Convert a translation-length bound for the m-th power of a map into
    one for the map itself (stable length is homogeneous: l(f^m) = m*l(f))."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    return bound / power


@dataclass(frozen=True)
class BoundReport:
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
