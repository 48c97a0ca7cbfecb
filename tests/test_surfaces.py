from __future__ import annotations

from fractions import Fraction

import pytest

from curvebounds.surfaces import (
    BoundReport,
    SporadicSurfaceError,
    SurfaceSig,
    branch_bound,
    cusp_bound,
    flm_upper_bound,
    lower_bound_from_spread_time,
    punctured_genus2_upper_bound,
    real_branch_bound,
    scaled_bound,
    translation_length_lower_bound,
    translation_length_upper_bound,
)

from helpers import rng_for


def test_signature_invariants():
    s = SurfaceSig(2, 0)
    assert s.chi == -2 and s.xi == 3
    assert SurfaceSig(3, 2).chi == -6
    assert SurfaceSig(0, 5).xi == 2
    assert SurfaceSig(2).punctures == 0


def test_signature_rejects_negative():
    with pytest.raises(ValueError):
        SurfaceSig(-1, 0)
    with pytest.raises(ValueError):
        SurfaceSig(0, -2)


@pytest.mark.parametrize("genus,punctures", [(0, 0), (0, 3), (0, 4), (1, 0), (1, 1)])
def test_sporadic_surfaces_rejected(genus, punctures):
    with pytest.raises(SporadicSurfaceError):
        translation_length_lower_bound(SurfaceSig(genus, punctures))
    with pytest.raises(SporadicSurfaceError):
        lower_bound_from_spread_time(SurfaceSig(genus, punctures), 5)


@pytest.mark.parametrize(
    "genus,punctures,expected",
    [
        (2, 0, Fraction(1, 660)),
        (3, 0, Fraction(1, 2616)),
        (4, 0, Fraction(1, 5868)),
        (2, 1, Fraction(1, 180)),
        (0, 5, Fraction(1, 180)),
        (1, 2, Fraction(1, 84)),
    ],
)
def test_lower_bound_known_values(genus, punctures, expected):
    assert translation_length_lower_bound(SurfaceSig(genus, punctures)) == expected


def test_lower_bound_closed_formula():
    for g in range(2, 40):
        chi = 2 - 2 * g
        got = translation_length_lower_bound(SurfaceSig(g, 0))
        assert got == Fraction(1, 162 * chi * chi + 6 * abs(chi))


def test_lower_bound_punctured_formula():
    rng = rng_for("lower-punctured")
    for _ in range(50):
        g = rng.randint(0, 12)
        n = rng.randint(1, 12)
        sig = SurfaceSig(g, n)
        if sig.xi < 2:
            continue
        chi = sig.chi
        assert translation_length_lower_bound(sig) == Fraction(
            1, 18 * chi * chi + 6 * abs(chi)
        )


def test_lower_bound_is_spread_bound_at_full_power():
    """The closed form is the spread-time bound at k = coeff * chi^2."""
    for sig in (SurfaceSig(2, 0), SurfaceSig(5, 0), SurfaceSig(2, 1), SurfaceSig(0, 7)):
        coeff = 162 if sig.punctures == 0 else 18
        k = coeff * sig.chi * sig.chi
        assert translation_length_lower_bound(sig) == lower_bound_from_spread_time(
            sig, k
        )


@pytest.mark.parametrize(
    "genus,expected",
    [(2, Fraction(2)), (3, Fraction(1, 2)), (4, Fraction(1, 4)), (10, Fraction(2, 53))],
)
def test_upper_bound_known_values(genus, expected):
    assert translation_length_upper_bound(genus) == expected


def test_upper_bound_rejects_low_genus():
    for g in (-1, 0, 1):
        with pytest.raises(ValueError):
            translation_length_upper_bound(g)
    with pytest.raises(ValueError):
        flm_upper_bound(1)


def test_upper_bound_decreasing():
    vals = [translation_length_upper_bound(g) for g in range(2, 60)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "genus,expected",
    [
        (2, 6.496035641979318),
        (3, 1.9163610429354276),
        (4, 1.0512426772213341),
        (10, 0.2339915061637034),
        (100, 0.011451415353953547),
    ],
)
def test_flm_upper_bound_frozen(genus, expected):
    assert flm_upper_bound(genus) == pytest.approx(expected, rel=1e-14)


def test_bounds_sandwich():
    for g in range(2, 200):
        lower = translation_length_lower_bound(SurfaceSig(g, 0))
        upper = translation_length_upper_bound(g)
        assert lower < upper
        assert float(upper) < flm_upper_bound(g) + 1e-9


@pytest.mark.parametrize(
    "punctures,expected", [(5, Fraction(20)), (9, Fraction(4)), (24, Fraction(1))]
)
def test_genus2_punctured_upper(punctures, expected):
    assert punctured_genus2_upper_bound(punctures) == expected


def test_genus2_punctured_needs_five():
    for n in (0, 1, 4):
        with pytest.raises(ValueError):
            punctured_genus2_upper_bound(n)


@pytest.mark.parametrize("genus, punctures", [(2, 0), (3, 0), (0, 5), (2, 3), (10, 1)])
def test_structural_bounds(genus, punctures):
    sig = SurfaceSig(genus, punctures)
    chi = 2 * genus + punctures - 2
    assert branch_bound(sig) == 9 * chi - 3 * punctures
    assert real_branch_bound(sig) == 3 * chi - 3
    assert cusp_bound(sig) == 6 * chi


def test_spread_time_bound():
    assert lower_bound_from_spread_time(SurfaceSig(2, 0), 1) == Fraction(1, 13)
    assert lower_bound_from_spread_time(SurfaceSig(0, 5), 3) == Fraction(1, 21)
    with pytest.raises(ValueError):
        lower_bound_from_spread_time(SurfaceSig(2, 0), 0)


def test_scaled_bound():
    assert scaled_bound(Fraction(2), 4) == Fraction(1, 2)
    assert scaled_bound(Fraction(3, 7), 1) == Fraction(3, 7)
    with pytest.raises(ValueError):
        scaled_bound(Fraction(1), 0)
    with pytest.raises(ValueError):
        scaled_bound(Fraction(-1), 2)


def test_bound_report_validate():
    sig = SurfaceSig(2, 0)
    report = BoundReport(
        surface=sig,
        lower=translation_length_lower_bound(sig),
        upper_closed=translation_length_upper_bound(2),
        upper_penner=Fraction(1),
    )
    report.validate()

    bad = BoundReport(surface=sig, lower=Fraction(3), upper_closed=Fraction(2))
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = BoundReport(surface=sig, lower=Fraction(1), upper_penner=Fraction(1))
    with pytest.raises(ValueError):
        bad2.validate()
