"""Surface signatures and the integer structural bounds on their tracks.

`SurfaceSig` and the int-valued bounds (branches, real branches, cusps and
the spread-time coefficient) live here, apart from the `Fraction`-valued
bounds of `surfaces`, so that the `pf` and `track` engines, which need only
these, never load `Fraction` (nor `decimal` and `numbers`, which it pulls
in).  `surfaces` re-exports every name.
"""

from __future__ import annotations

__all__ = [
    "SporadicSurfaceError",
    "SurfaceSig",
    "lower_bound_coefficient",
    "branch_bound",
    "real_branch_bound",
    "cusp_bound",
]


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
