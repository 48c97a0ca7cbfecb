from __future__ import annotations

import pytest

from curvebounds.reference import (
    CUSP_CORNERS,
    FAN_APEX,
    build_spine,
    fan_selection,
    reference_attachment,
    reference_track,
    spine_attachment,
)
from curvebounds.surfaces import SurfaceSig
from curvebounds.traintrack import (
    RegionAttachment,
    RegionCutoffError,
    add_diagonals,
    boundary_cycles,
    branch_count_report,
    check_measure,
    classify_regions,
    enumerate_diagonal_extensions,
    is_recurrent,
    positive_on_base,
    total_cusps,
)

from helpers import noncrossing_subsets_brute


def test_frozen_constants_cover_both_genera():
    assert set(CUSP_CORNERS) == set(FAN_APEX) == {2, 3}
    assert len(CUSP_CORNERS[2]) == 6 and len(CUSP_CORNERS[3]) == 10
    assert all(c in (0, 1, 2) for g in CUSP_CORNERS for c in CUSP_CORNERS[g])


@pytest.mark.parametrize("genus", [2, 3])
def test_spine_shape(genus):
    spine = build_spine(genus, CUSP_CORNERS[genus])
    assert spine.num_switches == 4 * genus - 2
    assert spine.num_branches == 6 * genus - 3
    cycles = boundary_cycles(spine)
    assert len(cycles) == 1
    assert cycles[0].cusp_count == 4 * genus - 2
    assert total_cusps(spine) == 4 * genus - 2


@pytest.mark.parametrize("genus", [2, 3])
def test_spine_region_is_one_polygon(genus):
    spine = build_spine(genus, CUSP_CORNERS[genus])
    rep = classify_regions(spine, spine_attachment(genus))
    assert [r.label for r in rep.regions] == [f"polygon({4 * genus - 2})"]
    assert rep.is_large and not rep.is_maximal


def test_fan_selection():
    assert fan_selection(6, 0) == [(0, (0, 2)), (0, (0, 3)), (0, (0, 4))]
    assert fan_selection(6, 1) == [(0, (1, 3)), (0, (1, 4)), (0, (1, 5))]
    assert fan_selection(4, 0) == [(0, (0, 2))]


@pytest.mark.parametrize("genus", [2, 3])
def test_reference_track_is_maximal_and_recurrent(genus):
    track = reference_track(genus)
    chi = 2 - 2 * genus
    assert track.num_branches == 10 * genus - 8
    rep = classify_regions(track, reference_attachment(genus))
    assert len(rep.regions) == 4 * genus - 4
    assert all(r.label == "polygon(3)" for r in rep.regions)
    assert rep.is_large and rep.is_maximal
    assert rep.total_cusps == total_cusps(track) == 6 * abs(chi)
    ok, witness = is_recurrent(track)
    assert ok
    assert all(w >= 1 for w in witness.values())
    assert check_measure(track, witness)
    counts = branch_count_report(track, SurfaceSig(genus, 0))
    assert counts.total_ok and counts.real_ok


def test_reference_track_unsupported_genus():
    with pytest.raises(ValueError):
        reference_track(4)


def test_square_fixture_extensions():
    """One square region among triangles: the base plus one extension per
    square diagonal, and nothing else."""
    spine = build_spine(2, CUSP_CORNERS[2])
    cycles = boundary_cycles(spine)
    base = add_diagonals(spine, cycles, [(0, (0, 2)), (0, (0, 4))])
    att = RegionAttachment(SurfaceSig(2, 0), ((0, 0),) * 3)
    rep = classify_regions(base, att)
    assert sorted(r.label for r in rep.regions) == [
        "polygon(3)",
        "polygon(3)",
        "polygon(4)",
    ]
    assert rep.is_large and not rep.is_maximal

    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == 3
    assert exts[0] == base
    assert sorted(e.num_branches for e in exts) == [11, 12, 12]
    base_names = {b.name for b in base.branches}
    for ext in exts[1:]:
        (new,) = [b for b in ext.branches if b.name not in base_names]
        assert new.tag == "diagonal"
        assert new.name == "d2"  # d0 and d1 are taken by the base
        ok, w = is_recurrent(ext)
        assert ok
        assert positive_on_base(base, ext, w)


def test_pentagon_fixture_extensions():
    """A pentagon region admits every non-crossing diagonal family."""
    spine = build_spine(2, CUSP_CORNERS[2])
    base = add_diagonals(spine, boundary_cycles(spine), [(0, (0, 2))])
    att = RegionAttachment(SurfaceSig(2, 0), ((0, 0),) * 2)
    rep = classify_regions(base, att)
    assert sorted(r.label for r in rep.regions) == ["polygon(3)", "polygon(5)"]
    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == len(noncrossing_subsets_brute(5)) == 11
    assert sorted(e.num_branches for e in exts) == [10] + [11] * 5 + [12] * 5


def test_hexagon_extensions_match_subset_count():
    spine = build_spine(2, CUSP_CORNERS[2])
    exts = enumerate_diagonal_extensions(spine, spine_attachment(2))
    assert len(exts) == len(noncrossing_subsets_brute(6)) == 45
    assert all(is_recurrent(e)[0] for e in exts)


def test_genus3_cut_spine_extension_count():
    """The 10-cusp genus-3 region cut by chords (0,5) and (0,2) into a
    hexagon, a pentagon and a triangle: every family of non-crossing
    diagonals in the two gives a recurrent extension, 45 * 11 in all."""
    spine = build_spine(3, CUSP_CORNERS[3])
    base = add_diagonals(spine, boundary_cycles(spine), [(0, (0, 5)), (0, (0, 2))])
    att = RegionAttachment(SurfaceSig(3, 0), ((0, 0),) * 3)
    rep = classify_regions(base, att)
    assert sorted(r.label for r in rep.regions) == ["polygon(3)", "polygon(5)", "polygon(6)"]
    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == 495
    assert len({frozenset((b.ends, b.tag) for b in e.branches) for e in exts}) == 495


def test_reference_track_has_no_proper_extensions():
    track = reference_track(2)
    exts = enumerate_diagonal_extensions(track, reference_attachment(2))
    assert exts == (track,)


def test_large_region_hits_cutoff():
    spine = build_spine(3, CUSP_CORNERS[3])
    with pytest.raises(RegionCutoffError):
        enumerate_diagonal_extensions(spine, spine_attachment(3))
