from __future__ import annotations

import hashlib
import math

import pytest

from curvebounds import traintrack
from curvebounds.reference import (
    build_spine,
    fan_selection,
    reference_attachment,
    reference_spine,
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
    total_cusps,
)

from helpers import (
    closed_route_covers,
    darts_strongly_connected,
    data_path,
    dissection_count,
    dissection_sizes,
    end_switch_sides,
    format_track,
    noncrossing_subsets_brute,
    reference_route,
    ribbon_cycles,
    route_dead_branches,
    switch_balance,
)


def test_rule_gives_the_genus_2_and_3_corners():
    assert reference_spine(2) == build_spine(2, (0, 0, 0, 0, 1, 0))
    assert reference_spine(3) == build_spine(3, (0,) * 8 + (1, 0))


@pytest.mark.parametrize("genus", [2, 3])
def test_spine_shape(genus):
    spine = reference_spine(genus)
    assert spine.num_switches == 4 * genus - 2
    assert spine.num_branches == 6 * genus - 3
    cycles = boundary_cycles(spine)
    assert len(cycles) == 1
    assert cycles[0].cusp_count == 4 * genus - 2
    assert total_cusps(spine) == 4 * genus - 2


@pytest.mark.parametrize("genus", [2, 3])
def test_spine_region_is_one_polygon(genus):
    spine = reference_spine(genus)
    rep = classify_regions(spine, spine_attachment(genus))
    assert [r.label for r in rep.regions] == [f"polygon({4 * genus - 2})"]
    assert rep.is_large and not rep.is_maximal


def test_fan_selection():
    assert fan_selection(6) == [(0, (0, 2)), (0, (0, 3)), (0, (0, 4))]
    assert fan_selection(4) == [(0, (0, 2))]
    assert fan_selection(3) == []


@pytest.mark.parametrize("genus", [2, 3])
def test_reference_track_is_maximal_and_recurrent(genus):
    track = reference_track(genus)
    chi = 2 - 2 * genus
    assert track.num_branches == 10 * genus - 8
    rep = classify_regions(track, reference_attachment(genus))
    assert len(rep.regions) == 4 * genus - 4
    assert all(r.label == "polygon(3)" for r in rep.regions)
    assert rep.is_large and rep.is_maximal
    assert sum(r.cusp_count for r in rep.regions) == total_cusps(track) == 6 * abs(chi)
    ok, witness = is_recurrent(track)
    assert ok
    assert all(w >= 1 for w in witness.values())
    assert check_measure(track, witness)
    assert not any(switch_balance(track, witness).values())
    counts = branch_count_report(track, SurfaceSig(genus, 0))
    assert counts.total_ok and counts.real_ok


@pytest.mark.parametrize("genus", [*range(2, 31), 60, 100])
def test_rule_track_is_maximal_and_recurrent_by_oracles(genus):
    """The rule's spine is strongly connected with one (4g - 2)-cusp boundary
    cycle, and its fan track has 4g - 4 triangles and every branch on a
    closed route, all by the oracles in `helpers`."""
    spine = reference_spine(genus)
    assert darts_strongly_connected(spine)
    assert [c.cusp_count for c in ribbon_cycles(spine)] == [4 * genus - 2]
    track = reference_track(genus)
    assert [c.cusp_count for c in ribbon_cycles(track)] == [3] * (4 * genus - 4)
    assert route_dead_branches(track) == []
    ok, witness = is_recurrent(track)
    assert ok and all(w >= 1 for w in witness.values())
    assert not any(switch_balance(track, witness).values())
    counts = branch_count_report(track, SurfaceSig(genus, 0))
    assert counts.total <= 9 * (2 * genus - 2)


# SHA-256 of `helpers.format_track` over the genus 2 and 3 reference tracks:
# the bytes of the shipped `genus{2,3}_maximal.track` files.
REFERENCE_DIGESTS = {
    2: "e9994ce45fea826b3c35a176f318108b6c5813be66674d9a9decd7956620ae64",
    3: "ed9adc253bbe60ee1dc7ec79c0e80e564b99c11371e1a47d2846b9b978bfce60",
}


@pytest.mark.parametrize("genus", sorted(REFERENCE_DIGESTS))
def test_reference_track_is_pinned_byte_for_byte(genus):
    text = format_track(reference_track(genus), reference_attachment(genus))
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_DIGESTS[genus]
    shipped = data_path(f"genus{genus}_maximal.track").read_bytes()
    assert hashlib.sha256(shipped).hexdigest() == REFERENCE_DIGESTS[genus]


def test_reference_track_unsupported_genus():
    for genus in (1, 0, -1):
        for build in (reference_spine, reference_track, spine_attachment,
                      reference_attachment):
            with pytest.raises(ValueError, match="genus must be at least 2"):
                build(genus)


@pytest.mark.parametrize(
    "genus, corners, message",
    [
        (2, (0,) * 5, "need 6 corner choices, got 5"),
        (2, (0,) * 7, "need 6 corner choices, got 7"),
        (3, (0,) * 9, "need 10 corner choices, got 9"),
        (2, (0, 0, 3, 0, 0, 0), "corner choice 3 at triangle 2"),
        (2, (-1, 0, 0, 0, 0, 0), "corner choice -1 at triangle 0"),
    ],
)
def test_build_spine_refuses_bad_corners(genus, corners, message):
    with pytest.raises(ValueError) as info:
        build_spine(genus, corners)
    assert str(info.value) == message


@pytest.mark.parametrize("genus", [2, 3, 4, 7, 30])
def test_lemma_a_edges(genus):
    """The edges lemma A's proof reads off the corner rule: node 2t + side
    is that side of switch t{t}, and a branch with end nodes A and B is the
    edges A -> B ^ 1 and B -> A ^ 1.  The nodes come from the branches'
    own ends."""
    t = 4 * genus - 4
    at = end_switch_sides(reference_spine(genus))

    def edges(*names):
        out = set()
        for name in names:
            a, z = (2 * int(switch[1:]) + side for switch, side in at[name])
            out |= {(a, z ^ 1), (z, a ^ 1)}
        return out

    for k in range(2, t + 1):
        assert edges(f"q{k}") == {(2 * k - 3, 2 * k - 1), (2 * k - 2, 2 * k - 4)}
    assert edges("s0") == {(0, 3), (2, 1)}
    assert edges(f"q{t + 1}", f"q{t + 2}", f"s{4 * genus - 3}") == {
        (2 * t - 1, 2 * t), (2 * t + 1, 2 * t - 2), (2 * t, 2 * t + 3),
        (2 * t + 2, 2 * t + 1), (2 * t, 2 * t + 2), (2 * t + 3, 2 * t + 1),
    }


def test_lemma_a_route_is_closed_smooth_and_covers_every_switch_side():
    """Lemma A's named route, checked step by step against the branches'
    own ends: every dart leaves through the side opposite the one the dart
    before it arrived on, the route closes, and it leaves through both
    sides of every switch, so the spine's switch-side graph is strongly
    connected."""
    for genus in range(2, 301):
        route = reference_route(genus)
        assert len(route) == 16 * genus - 12
        assert closed_route_covers(reference_spine(genus), route), genus


def test_lemma_a_route_fails_off_the_rule():
    """The check is no formality: a route with one dart turned round fails,
    and so does the route on the all-zero corner pattern, which leaves
    branches off every route."""
    route = reference_route(2)
    assert not closed_route_covers(reference_spine(2), [("q2", 0)] + route[1:])
    spine = build_spine(2, (0,) * 6)
    assert not closed_route_covers(spine, route)
    fan = add_diagonals(spine, boundary_cycles(spine), fan_selection(6))
    assert route_dead_branches(fan)[0] == "q2"


def _base_families():
    """The bases of the 45 and 495 extension families, with attachments."""
    spine3 = reference_spine(3)
    return [
        (reference_spine(2), spine_attachment(2)),
        (
            add_diagonals(spine3, boundary_cycles(spine3), [(0, (0, 5)), (0, (0, 2))]),
            RegionAttachment(SurfaceSig(3, 0), ((0, 0),) * 3),
        ),
    ]


def _keeps_base_sides(base, ext) -> bool:
    want = end_switch_sides(base)
    got = end_switch_sides(ext)
    return {name: got[name] for name in want} == want


def test_extensions_keep_every_base_end_on_its_switch_side():
    """Lemma A's extension step: diagonal insertion moves base ends only
    within their switch sides, so an extension's switch-side graph contains
    its base's on the same nodes.  Checked on the 45 and 495 families and
    on every reference track up to genus 100, where lemma A's route also
    stays a closed route through every switch side."""
    for base, att in _base_families():
        exts = enumerate_diagonal_extensions(base, att)
        assert len(exts) in (45, 495)
        assert all(_keeps_base_sides(base, ext) for ext in exts)
    for genus in range(2, 101):
        track = reference_track(genus)
        assert _keeps_base_sides(reference_spine(genus), track), genus
        assert closed_route_covers(track, reference_route(genus)), genus


def _parts(track):
    return track.switches, track.branches, track.sides, track.ends


def test_internal_callers_skip_the_selection_check(monkeypatch):
    """The enumerator's dissections and the reference fan are valid by
    construction, so neither runs `_check_selection`: with it raising, they
    return what they return with it in place."""
    bases = _base_families()
    want = [enumerate_diagonal_extensions(*b) for b in bases]
    want_tracks = [_parts(reference_track(g)) for g in range(2, 13)]
    assert [len(exts) for exts in want] == [45, 495]

    def refuse(cycles, selection):
        raise AssertionError("selection checked")

    monkeypatch.setattr(traintrack, "_check_selection", refuse)
    spine = reference_spine(2)
    with pytest.raises(AssertionError, match="^selection checked$"):
        add_diagonals(spine, boundary_cycles(spine), [(0, (0, 2))])
    for (track, att), exts in zip(bases, want):
        got = enumerate_diagonal_extensions(track, att)
        assert list(map(_parts, got)) == list(map(_parts, exts))
    assert [_parts(reference_track(g)) for g in range(2, 13)] == want_tracks


@pytest.mark.parametrize("genus", range(2, 31))
def test_reference_track_equals_the_checked_fan(genus):
    """The unchecked insertion of the fan gives the track that
    `add_diagonals`, which checks the fan first, gives."""
    spine = reference_spine(genus)
    cycles = boundary_cycles(spine)
    checked = add_diagonals(spine, cycles, fan_selection(cycles[0].cusp_count))
    assert _parts(reference_track(genus)) == _parts(checked)


def test_square_fixture_extensions():
    """One square region among triangles: the base plus one extension per
    square diagonal, and nothing else."""
    spine = reference_spine(2)
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
        assert all(w[name] >= 1 for name in base_names)


def test_pentagon_fixture_extensions():
    """A pentagon region admits every non-crossing diagonal family."""
    spine = reference_spine(2)
    base = add_diagonals(spine, boundary_cycles(spine), [(0, (0, 2))])
    att = RegionAttachment(SurfaceSig(2, 0), ((0, 0),) * 2)
    rep = classify_regions(base, att)
    assert sorted(r.label for r in rep.regions) == ["polygon(3)", "polygon(5)"]
    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == len(noncrossing_subsets_brute(5)) == 11
    assert sorted(e.num_branches for e in exts) == [10] + [11] * 5 + [12] * 5


def test_hexagon_extensions_match_subset_count():
    spine = reference_spine(2)
    exts = enumerate_diagonal_extensions(spine, spine_attachment(2))
    assert len(exts) == len(noncrossing_subsets_brute(6)) == 45
    assert all(is_recurrent(e)[0] for e in exts)


def test_genus3_cut_spine_extension_count():
    """The 10-cusp genus-3 region cut by chords (0,5) and (0,2) into a
    hexagon, a pentagon and a triangle: every family of non-crossing
    diagonals in the two gives a recurrent extension, 45 * 11 in all."""
    spine = reference_spine(3)
    base = add_diagonals(spine, boundary_cycles(spine), [(0, (0, 5)), (0, (0, 2))])
    att = RegionAttachment(SurfaceSig(3, 0), ((0, 0),) * 3)
    rep = classify_regions(base, att)
    assert sorted(r.label for r in rep.regions) == ["polygon(3)", "polygon(5)", "polygon(6)"]
    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == 495
    assert len({frozenset((b.ends, b.tag) for b in e.branches) for e in exts}) == 495


# SHA-256 of `helpers.format_track` over the extensions, in the order they are
# returned: slot numbers, fresh dN names, branch order and family order.
EXTENSION_DIGESTS = {
    (2, ()): "7af47ca42dcbaa8dfb0db22397944af48e4f6e504d6600c0dafb504404a194d8",
    (3, ((0, 5), (0, 2))): "7bb1b203b5157f027d37fbbc1d4aa80e15d229ff95899fb96eff6e9f421d9227",
}


@pytest.mark.parametrize("genus, chords", list(EXTENSION_DIGESTS))
def test_extensions_are_pinned_byte_for_byte(genus, chords):
    spine = reference_spine(genus)
    base = add_diagonals(spine, boundary_cycles(spine), [(0, c) for c in chords])
    att = RegionAttachment(SurfaceSig(genus, 0), ((0, 0),) * (len(chords) + 1))
    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == {2: 45, 3: 495}[genus]
    text = "".join(format_track(e, att) for e in exts)
    assert hashlib.sha256(text.encode()).hexdigest() == EXTENSION_DIGESTS[genus, chords]


def test_dissection_count_is_little_schroeder():
    assert [dissection_count(k) for k in range(3, 13)] == [
        1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859,
    ]
    for k in range(3, 8):
        assert dissection_count(k) == len(noncrossing_subsets_brute(k))


@pytest.mark.parametrize(
    "genus, chords, count",
    [
        (2, [], 45),
        (2, [(0, 2)], 11),
        (2, [(0, 2), (0, 4)], 3),
        (3, [(0, 5), (0, 2)], 495),
    ],
)
def test_extension_count_is_product_of_dissection_counts(genus, chords, count):
    """On a base whose dart graph is strongly connected every diagonal
    family is recurrent (the extension step of lemma A in
    `curvebounds.reference`), so the extensions number the product of D(k)
    over the polygon regions."""
    spine = reference_spine(genus)
    base = add_diagonals(spine, boundary_cycles(spine), [(0, c) for c in chords])
    sizes = dissection_sizes(4 * genus - 2, chords)
    att = RegionAttachment(SurfaceSig(genus, 0), ((0, 0),) * len(sizes))
    assert darts_strongly_connected(base)
    assert sorted(r.cusp_count for r in classify_regions(base, att).regions) == sizes
    exts = enumerate_diagonal_extensions(base, att)
    assert len(exts) == math.prod(map(dissection_count, sizes)) == count
    # The all-zero corner pattern leaves branches off every route.
    assert not darts_strongly_connected(build_spine(genus, (0,) * (4 * genus - 2)))


def test_reference_track_has_no_proper_extensions():
    for genus in range(2, 7):
        track = reference_track(genus)
        exts = enumerate_diagonal_extensions(track, reference_attachment(genus))
        assert exts == (track,)


def test_large_region_hits_cutoff():
    spine = reference_spine(3)
    with pytest.raises(RegionCutoffError):
        enumerate_diagonal_extensions(spine, spine_attachment(3))
