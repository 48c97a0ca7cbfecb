from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from curvebounds.reference import (
    build_spine,
    fan_selection,
    reference_spine,
    reference_track,
)
from curvebounds.surfaces import SurfaceSig
from curvebounds.traintrack import (
    Branch,
    BranchEnd,
    EulerMismatchError,
    FoldSchedule,
    PeriodicCuspError,
    RegionAttachment,
    RegionCutoffError,
    TrackStructureError,
    TrainTrack,
    add_diagonals,
    boundary_cycles,
    branch_count_report,
    check_measure,
    classify_regions,
    enumerate_diagonal_extensions,
    is_recurrent,
    max_fold_time,
    total_cusps,
    _crossing,
    _dissections,
)

from helpers import (
    chords_brute,
    counting_measure,
    crossing_brute,
    dissection_count,
    dissection_sizes,
    noncrossing_subsets_brute,
    random_fold_schedule,
    random_small_track,
    ribbon_cycles,
    rng_for,
    route_dead_branches,
    route_recurrent,
    some_closed_route,
    switch_balance,
)


def end(sw: str, side: int, slot: int) -> BranchEnd:
    return BranchEnd(sw, side, slot)


def barbell() -> TrainTrack:
    return TrainTrack(
        ("L", "R"),
        (
            Branch("loopL", (end("L", 0, 0), end("L", 0, 1))),
            Branch("bar", (end("L", 1, 0), end("R", 0, 0))),
            Branch("loopR", (end("R", 1, 0), end("R", 1, 1))),
        ),
    )


def dead_branch_track() -> TrainTrack:
    """One switch; the balance equation forces the loop weight to zero."""
    return TrainTrack(
        ("s",),
        (
            Branch("loop", (end("s", 0, 0), end("s", 0, 1))),
            Branch("stem", (end("s", 0, 2), end("s", 1, 0))),
        ),
    )


def cusp_violation_track() -> TrainTrack:
    """Five loops on one ten-slot switch; eight cusps on a surface whose
    cusp budget is six."""
    slots = [("s", 0, i) for i in range(5)] + [("s", 1, i) for i in range(5)]
    match = [(0, 1), (2, 3), (4, 5), (6, 8), (7, 9)]
    return TrainTrack(
        ("s",),
        tuple(
            Branch(f"b{i}", (end(*slots[x]), end(*slots[y])))
            for i, (x, y) in enumerate(match)
        ),
    )


# --- structure validation ---------------------------------------------------


def test_valid_track_accessors():
    t = barbell()
    assert t.num_switches == 2 and t.num_branches == 3
    # node 2s + side: L0, L1, R0, R1; valence of L is 2 + 1
    assert t.sides == (((0, 0), (0, 1)), ((1, 0),), ((1, 1),), ((2, 0), (2, 1)))
    assert t.ends == ((0, 0), (1, 2), (3, 3))
    [bar] = [b for b in t.branches if b.name == "bar"]
    assert bar.ends[1] == end("R", 0, 0)
    assert t == barbell() and hash(t) == hash(barbell())
    with pytest.raises(AttributeError):
        t.branches = ()
    with pytest.raises(AttributeError):
        t.sides = ()


def test_side_index_matches_slot_data():
    rng = rng_for("track-sides")
    for _ in range(200):
        t = random_small_track(rng)
        expected: dict[int, dict[int, tuple[int, int]]] = {}
        for bidx, b in enumerate(t.branches):
            nodes = []
            for eidx, e in enumerate(b.ends):
                v = 2 * t.switches.index(e.switch) + e.side
                expected.setdefault(v, {})[e.slot] = (bidx, eidx)
                nodes.append(v)
            assert t.ends[bidx] == tuple(nodes)
        assert len(t.sides) == 2 * t.num_switches
        for v, ends in enumerate(t.sides):
            assert ends == tuple(expected[v][slot] for slot in sorted(expected[v]))


def test_duplicate_switch_names_rejected():
    with pytest.raises(TrackStructureError, match="^duplicate switch names$"):
        TrainTrack(("L", "L"), (Branch("x", (end("L", 0, 0), end("L", 1, 0))),))


def test_track_is_not_equal_to_other_types():
    assert (barbell() == object()) is False
    assert barbell() != "barbell"
    assert barbell() == barbell()


def test_duplicate_branch_names_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L", "R"),
            (
                Branch("x", (end("L", 0, 0), end("L", 0, 1))),
                Branch("x", (end("L", 1, 0), end("R", 0, 0))),
                Branch("y", (end("R", 1, 0), end("R", 1, 1))),
            ),
        )


def test_bad_tag_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L", "R"),
            (
                Branch("x", (end("L", 0, 0), end("L", 0, 1)), "imaginary"),
                Branch("y", (end("L", 1, 0), end("R", 0, 0))),
                Branch("z", (end("R", 1, 0), end("R", 1, 1))),
            ),
        )


def test_unknown_switch_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L",),
            (
                Branch("x", (end("L", 0, 0), end("L", 0, 1))),
                Branch("y", (end("Q", 1, 0), end("L", 1, 0))),
            ),
        )


def test_bad_side_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L",),
            (
                Branch("x", (end("L", 0, 0), end("L", 2, 0))),
                Branch("y", (end("L", 0, 1), end("L", 1, 0))),
            ),
        )


def test_slot_collision_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L",),
            (
                Branch("x", (end("L", 0, 0), end("L", 0, 0))),
                Branch("y", (end("L", 0, 1), end("L", 1, 0))),
            ),
        )


def test_slot_gap_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L",),
            (
                Branch("x", (end("L", 0, 0), end("L", 0, 2))),
                Branch("y", (end("L", 0, 3), end("L", 1, 0))),
            ),
        )


def test_empty_side_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L",),
            (
                Branch("x", (end("L", 0, 0), end("L", 0, 1))),
                Branch("y", (end("L", 0, 2), end("L", 0, 3))),
            ),
        )


def test_low_valence_rejected():
    with pytest.raises(TrackStructureError):
        TrainTrack(
            ("L",),
            (Branch("x", (end("L", 0, 0), end("L", 1, 0))),),
        )


# --- measures and recurrence ------------------------------------------------


def test_check_measure():
    t = barbell()
    assert check_measure(t, {"loopL": 1, "bar": 2, "loopR": 1})
    assert not check_measure(t, {"loopL": 1, "bar": 1, "loopR": 1})
    with pytest.raises(ValueError):
        check_measure(t, {"loopL": 1})
    with pytest.raises(ValueError):
        check_measure(t, {"loopL": 1, "bar": 2, "loopR": -1})


@pytest.mark.parametrize(
    "weights",
    [
        {"loopL": 1.0, "bar": 2.0, "loopR": 1.0},
        {"loopL": 0.5, "bar": 1, "loopR": 0.5},
        {"loopL": "1", "bar": "2", "loopR": "1"},
        {"loopL": 1, "bar": "2", "loopR": 1},
        {"loopL": Fraction(1), "bar": Fraction(2), "loopR": Fraction(1)},
        {"loopL": 1, "bar": Fraction(2), "loopR": 1},
        # a bool is an int subclass, and True would balance as 1
        {"loopL": True, "bar": 2, "loopR": True},
    ],
)
def test_check_measure_refuses_float_and_string_weights(weights):
    """Weights must be ints, never converted: a float, a string, a
    Fraction or a bool raises, even one that would balance."""
    with pytest.raises(ValueError, match=r"^weight .+ on branch \w+ is not an int$"):
        check_measure(barbell(), weights)


def test_check_measure_agrees_with_the_balance_oracle():
    """On the int witness, on seven times it and on random int weights,
    `check_measure` gives the verdict of `switch_balance`; the same weights
    as Fractions raise, balanced or not."""
    rng = rng_for("track-measure")
    verdicts = Counter()
    for _ in range(3000):
        t = random_small_track(rng)
        ok, w = is_recurrent(t)
        trials = [{b.name: rng.randint(0, 3) for b in t.branches}]
        if ok:
            assert_integer_witness(t, w)
            trials += [w, {name: 7 * v for name, v in w.items()}]
        for weights in trials:
            verdict = not any(switch_balance(t, weights).values())
            assert check_measure(t, weights) == verdict
            with pytest.raises(ValueError, match="is not an int"):
                check_measure(t, {name: Fraction(v) for name, v in weights.items()})
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_recurrent_barbell():
    ok, w = is_recurrent(barbell())
    assert ok
    assert all(v >= 1 for v in w.values())
    assert check_measure(barbell(), w)
    assert switch_balance(barbell(), w) == {"L": 0, "R": 0}


def test_switch_balance_rejects_a_raised_weight():
    """The balance oracle is not vacuous: raising any one weight of the
    barbell witness by 1 unbalances a switch."""
    t = barbell()
    _, w = is_recurrent(t)
    for name in w:
        assert any(switch_balance(t, {**w, name: w[name] + 1}).values()), name


def test_dead_branch_not_recurrent():
    # On the switch-side graph the stem is a self-loop at each side, a
    # closed route by itself; the loop leads from side 0 to side 1 and
    # nothing leads back, so only the loop is dead.
    assert is_recurrent(dead_branch_track()) == (False, ("loop",))
    assert not route_recurrent(dead_branch_track())
    assert route_dead_branches(dead_branch_track()) == ["loop"]


def assert_integer_witness(track: TrainTrack, w) -> None:
    """The witness names every branch with an integer weight in
    [1, 4 * branches + 1] (a closed walk per branch, each made of two
    simple tree paths and the branch) and balances at every switch."""
    assert set(w) == {b.name for b in track.branches}
    top = 4 * track.num_branches + 1
    assert all(type(v) is int and 1 <= v <= top for v in w.values())
    assert check_measure(track, w)
    assert not any(switch_balance(track, w).values())


def test_recurrence_matches_route_oracle():
    rng = rng_for("track-recur")
    seen = {True: 0, False: 0}
    for _ in range(3000):
        t = random_small_track(rng, max_branches=12)
        ok, evidence = is_recurrent(t)
        assert ok == route_recurrent(t), t
        seen[ok] += 1
        if ok:
            assert_integer_witness(t, evidence)
        else:
            assert list(evidence) == route_dead_branches(t), t
    assert seen[True] and seen[False]


def fan_spine(genus: int, pattern: str) -> TrainTrack:
    """The spine with alternating or all-zero corners, or ("maximal") the
    spine with corners 0..0, 1, 0 and the fan of diagonals from cusp 0."""
    count = 4 * genus - 2
    if pattern == "maximal":
        spine = build_spine(genus, (0,) * (count - 2) + (1, 0))
        cycles = boundary_cycles(spine)
        return add_diagonals(spine, cycles, fan_selection(cycles[0].cusp_count))
    corners = tuple(t % 2 for t in range(count)) if pattern == "alt" else (0,) * count
    return build_spine(genus, corners)


@pytest.mark.parametrize(
    "genus,pattern",
    [(10, "alt"), (15, "alt"), (20, "alt"), (56, "zero"), (64, "zero")]
    + [(genus, "maximal") for genus in (*range(2, 31), 100)],
)
def test_fan_spine_recurrence_matches_route_oracle(genus, pattern):
    t = fan_spine(genus, pattern)
    ok, evidence = is_recurrent(t)
    assert ok == route_recurrent(t) == (pattern != "zero")
    if ok:
        assert_integer_witness(t, evidence)
    else:
        assert list(evidence) == route_dead_branches(t)


def test_self_loop_routes():
    """Each branch runs from side 0 to side 1 of the one switch, so each
    alone is a closed route (a dart self-loop) and the witness is 1 each."""
    t = TrainTrack(
        ("s",),
        (
            Branch("a", (end("s", 0, 0), end("s", 1, 0))),
            Branch("b", (end("s", 0, 1), end("s", 1, 1))),
        ),
    )
    assert is_recurrent(t) == (True, {"a": 1, "b": 1})


def test_two_disjoint_live_components():
    """Two barbells on disjoint switches: the routes of one never reach the
    other, so each needs its own cycle in the witness."""
    one = barbell()
    two = TrainTrack(
        ("L", "R", "L2", "R2"),
        one.branches
        + tuple(
            Branch(b.name + "2", tuple(end(e.switch + "2", e.side, e.slot) for e in b.ends))
            for b in one.branches
        ),
    )
    ok, w = is_recurrent(two)
    assert ok
    assert_integer_witness(two, w)
    _, w_one = is_recurrent(one)
    assert w == {**w_one, **{name + "2": v for name, v in w_one.items()}}
    assert w_one == {"loopL": 3, "bar": 6, "loopR": 3}


def test_counting_measure_of_closed_route_balances():
    rng = rng_for("track-route")
    checked = 0
    for _ in range(40):
        t = random_small_track(rng)
        if not is_recurrent(t)[0]:
            continue
        route = some_closed_route(t)
        weights = counting_measure(t, route)
        assert all(type(v) is int for v in weights.values())
        assert check_measure(t, weights)
        with pytest.raises(ValueError):
            check_measure(t, {name: Fraction(v) for name, v in weights.items()})
        checked += 1
    assert checked > 5


# --- boundary cycles and cusps ----------------------------------------------


def test_barbell_boundary():
    cycles = boundary_cycles(barbell())
    assert sorted(c.cusp_count for c in cycles) == [0, 1, 1]
    assert sorted(c.size for c in cycles) == [2, 2, 8]
    assert total_cusps(barbell()) == 2


def test_cusp_total_equals_cycle_sum():
    rng = rng_for("track-cusps")
    for _ in range(50):
        t = random_small_track(rng)
        cycles = boundary_cycles(t)
        assert sum(c.cusp_count for c in cycles) == total_cusps(t)
        assert total_cusps(t) == 2 * t.num_branches - 2 * t.num_switches
        valence = Counter(e.switch for b in t.branches for e in b.ends)
        assert total_cusps(t) == sum(valence[sw] - 2 for sw in t.switches)
        # each arc appears in exactly one cycle
        assert sum(c.size for c in cycles) == 4 * t.num_branches


def test_cycle_count_parity():
    """Boundary cycle count is congruent to switches minus branches mod 2,
    which rules out single-square-region tracks outright."""
    rng = rng_for("track-parity")
    for _ in range(50):
        t = random_small_track(rng)
        chi = t.num_switches - t.num_branches
        assert (len(boundary_cycles(t)) - chi) % 2 == 0


def test_cusp_violation_fixture():
    t = cusp_violation_track()
    cycles = boundary_cycles(t)
    assert sorted(c.cusp_count for c in cycles) == [1, 1, 2, 4]
    assert total_cusps(t) == 8
    assert is_recurrent(t)[0]


def test_boundary_matches_ribbon_oracle_on_random_tracks():
    """Cycles, their order and sizes, and every cusp visit with its arrive
    and depart slots, which `add_diagonals` reads."""
    rng = rng_for("track-ribbon")
    for _ in range(3000):
        t = random_small_track(rng)
        assert boundary_cycles(t) == ribbon_cycles(t), t.branches


@pytest.mark.parametrize("pattern", ["alt", "zero"])
@pytest.mark.parametrize("genus", [*range(2, 21), 60])
def test_boundary_matches_ribbon_oracle_on_fan_spines(genus, pattern):
    t = fan_spine(genus, pattern)
    cycles = boundary_cycles(t)
    assert cycles == ribbon_cycles(t)
    assert sum(c.cusp_count for c in cycles) == total_cusps(t)


@pytest.mark.parametrize("genus", [2, 3])
def test_boundary_matches_ribbon_oracle_on_reference_tracks(genus):
    t = reference_track(genus)
    assert boundary_cycles(t) == ribbon_cycles(t)


# --- region classification --------------------------------------------------


def test_classify_regions_barbell():
    att = RegionAttachment(SurfaceSig(2, 0), ((1, 0), (1, 0), (0, 0)))
    rep = classify_regions(barbell(), att)
    labels = sorted(r.label for r in rep.regions)
    assert labels == [
        "other(genus=1, punctures=0)",
        "other(genus=1, punctures=0)",
        "polygon(1)",
    ]
    assert not rep.is_large and not rep.is_maximal
    assert sum(r.cusp_count for r in rep.regions) == 2


def test_classify_regions_punctured():
    t = cusp_violation_track()
    att = RegionAttachment(SurfaceSig(0, 3), ((0, 1), (0, 0), (0, 0), (0, 0)))
    rep = classify_regions(t, att)
    assert [r.label for r in rep.regions] == [
        "punctured_polygon(2)",
        "polygon(1)",
        "polygon(1)",
        "polygon(4)",
    ]
    assert rep.is_large and not rep.is_maximal


def test_classify_regions_euler_mismatch():
    att = RegionAttachment(SurfaceSig(3, 0), ((0, 0), (1, 0), (0, 0)))
    with pytest.raises(EulerMismatchError):
        classify_regions(barbell(), att)


def test_classify_regions_count_mismatch():
    att = RegionAttachment(SurfaceSig(2, 0), ((0, 0), (1, 0)))
    with pytest.raises(TrackStructureError):
        classify_regions(barbell(), att)


def test_classify_regions_negative_data():
    att = RegionAttachment(SurfaceSig(2, 0), ((0, -1), (1, 0), (0, 0)))
    with pytest.raises(TrackStructureError):
        classify_regions(barbell(), att)


def test_branch_count_report_flags():
    rep = branch_count_report(cusp_violation_track(), SurfaceSig(0, 3))
    assert rep.total == 5 and rep.total_bound == 0 and not rep.total_ok
    assert rep.real == 0 and rep.real_bound == 0 and not rep.real_ok


# --- chords and diagonal extensions -----------------------------------------


def test_chords():
    """The singletons of `_dissections(k)` are the diagonals of the k-gon,
    in lexicographic order."""

    def chords(k):
        return [s[0] for s in _dissections(k) if len(s) == 1]

    assert chords(3) == []
    assert chords(4) == [(0, 2), (1, 3)]
    assert chords(5) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_crossing():
    assert _crossing((0, 2), (1, 3))
    assert not _crossing((0, 2), (2, 4))
    assert not _crossing((0, 2), (0, 3))


def test_noncrossing_subsets_match_brute_force():
    """`_dissections(k)` lists D(k) distinct families in lexicographic
    order, each of mutually non-crossing diagonals, so it lists all of them;
    up to the heptagon, brute force lists them too."""
    for k in range(3, 11):
        mine = _dissections(k)
        assert mine == sorted(set(mine)) and len(mine) == dissection_count(k), k
        diagonals = set(chords_brute(k))
        for family in mine:
            assert set(family) <= diagonals, (k, family)
            assert not any(crossing_brute(c, d) for c in family for d in family)
        if k < 8:
            assert {frozenset(s) for s in mine} == noncrossing_subsets_brute(k), k
    assert _dissections(4) == [(), ((0, 2),), ((1, 3),)]


def test_extensions_need_large_track():
    """The barbell's attachment as `classify_regions` accepts it (two
    one-holed tori and a monogon), so the check that fails is largeness."""
    att = RegionAttachment(SurfaceSig(2, 0), ((1, 0), (1, 0), (0, 0)))
    assert not classify_regions(barbell(), att).is_large
    with pytest.raises(TrackStructureError, match="^diagonal extensions need a large track$"):
        enumerate_diagonal_extensions(barbell(), att)


def test_add_diagonals_noop():
    t = barbell()
    assert add_diagonals(t, boundary_cycles(t), []) == t


@pytest.mark.parametrize(
    "selection, message",
    [
        ([(0, (-1, 2))], "(0, (-1, 2)): cycle 0 has cusp positions 0..5"),  # wraps to (5, 2)
        ([(0, (0, 6))], "(0, (0, 6)): cycle 0 has cusp positions 0..5"),
        # a loop at one cusp
        ([(0, (2, 2))], "(0, (2, 2)): equal or adjacent cusps are not a diagonal"),
        ([(0, (0, 1))], "(0, (0, 1)): equal or adjacent cusps are not a diagonal"),
        # adjacent across the wrap
        ([(0, (5, 0))], "(0, (5, 0)): equal or adjacent cusps are not a diagonal"),
        ([(-1, (0, 2))], "(-1, (0, 2)): no boundary cycle -1"),  # wraps to the last cycle
        ([(1, (0, 2))], "(1, (0, 2)): no boundary cycle 1"),
        ([(0, (0, 2)), (0, (2, 0))], "(0, (2, 0)): repeats or crosses (0, 2) on cycle 0"),
        ([(0, (0, 3)), (0, (4, 1))], "(0, (4, 1)): repeats or crosses (0, 3) on cycle 0"),
    ],
    ids=["wrap", "past-end", "loop", "adjacent", "adjacent-wrap", "cycle-wrap",
         "no-cycle", "repeat", "cross"],
)
def test_add_diagonals_rejects_non_diagonals(selection, message):
    """The whole message, so the check that only `add_diagonals` runs keeps
    every word of it."""
    spine = reference_spine(2)
    with pytest.raises(TrackStructureError) as info:
        add_diagonals(spine, boundary_cycles(spine), selection)
    assert str(info.value) == "selection entry " + message


def test_add_diagonals_accepts_unsorted_pairs():
    spine = reference_spine(2)
    cycles = boundary_cycles(spine)
    for selection in (
        [(0, (5, 2))],
        [(0, (2, 0)), (0, (4, 0))],
        [(0, (3, 0)), (0, (5, 3))],
    ):
        ext = add_diagonals(spine, cycles, selection)
        assert ext.num_branches == spine.num_branches + len(selection)


@pytest.mark.parametrize("genus, sample", [(2, None), (3, 400)])
def test_extension_regions_match_polygon_dissection(genus, sample):
    """Cutting the spine's one polygon region with a non-crossing chord family
    leaves the regions that cutting a polygon with those chords leaves."""
    spine = reference_spine(genus)
    cycles = boundary_cycles(spine)
    k = cycles[0].cusp_count
    families = _dissections(k)
    assert (k, len(families)) == {2: (6, 45), 3: (10, 20793)}[genus]
    rng = rng_for(f"dissection-{genus}")
    if sample is not None:
        families = rng.sample(families, sample)
    for family in families:
        # entry order and pair orientation do not change the regions
        chords = [c[::-1] if rng.random() < 0.5 else c for c in family]
        rng.shuffle(chords)
        ext = add_diagonals(spine, cycles, [(0, c) for c in chords])
        got = sorted(c.cusp_count for c in boundary_cycles(ext))
        assert got == dissection_sizes(k, family), family


def test_fold_schedule_basics():
    sig = SurfaceSig(2, 0)
    fs = FoldSchedule(("p", "q"), {"p": "q", "q": "q"}, frozenset({"q"}))
    assert max_fold_time(fs, sig) == 2
    fs_all = FoldSchedule(("p",), {"p": "p"}, frozenset({"p"}))
    assert max_fold_time(fs_all, sig) == 1
    chain = FoldSchedule(
        ("c0", "c1", "c2"),
        {"c0": "c1", "c1": "c2", "c2": "c2"},
        frozenset({"c2"}),
    )
    assert max_fold_time(chain, sig) == 3


def test_fold_schedule_periodic_orbit():
    sig = SurfaceSig(2, 0)
    fs = FoldSchedule(("p", "q"), {"p": "q", "q": "p"}, frozenset())
    with pytest.raises(PeriodicCuspError):
        max_fold_time(fs, sig)


def test_fold_schedule_validation():
    sig = SurfaceSig(2, 0)
    with pytest.raises(ValueError):
        max_fold_time(FoldSchedule((), {}, frozenset()), sig)
    with pytest.raises(ValueError):
        max_fold_time(FoldSchedule(("p",), {}, frozenset({"p"})), sig)
    with pytest.raises(ValueError):
        max_fold_time(FoldSchedule(("p",), {"p": "z"}, frozenset({"p"})), sig)
    with pytest.raises(ValueError):
        max_fold_time(FoldSchedule(("p",), {"p": "p"}, frozenset({"z"})), sig)
    with pytest.raises(ValueError):
        max_fold_time(
            FoldSchedule(("p",), {"p": "p"}, frozenset({"p"})), SurfaceSig(1, 0)
        )
    too_many = tuple(f"c{i}" for i in range(13))  # budget on genus 2 is 12
    with pytest.raises(ValueError):
        max_fold_time(
            FoldSchedule(too_many, {c: c for c in too_many}, frozenset(too_many)),
            sig,
        )


def test_fold_schedule_random_corpus():
    rng = rng_for("folds")
    sig = SurfaceSig(2, 0)
    fine = periodic = 0
    for _ in range(120):
        cusps, cmap, folded, ok = random_fold_schedule(rng, rng.randint(1, 8))
        fs = FoldSchedule(cusps, cmap, folded)
        if ok:
            t = max_fold_time(fs, sig)
            assert 1 <= t <= len(cusps)
            fine += 1
        else:
            with pytest.raises(PeriodicCuspError):
                max_fold_time(fs, sig)
            periodic += 1
    assert fine and periodic
