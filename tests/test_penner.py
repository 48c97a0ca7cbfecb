from __future__ import annotations

from fractions import Fraction

import pytest

from curvebounds import penner
from curvebounds.penner import BaseCurve, _closed, trace
from curvebounds.pfmatrix import min_positive_diagonal_power, primitivity_exponent
from curvebounds.surfaces import k_star, penner_upper_bound, translation_length_upper_bound

from helpers import (
    PennerSystem,
    certify,
    curves,
    oracle_trace,
    parse_curve as curve,
    penner_matrix,
    rng_for,
    rotate,
    rotate_mask,
    step,
    step_trace,
    twist_support,
)


def test_base_curve_parse():
    assert curve("a1") == BaseCurve("a", 1)
    assert curve("c12") == BaseCurve("c", 12)
    assert str(BaseCurve("b", 3)) == "b3"
    for bad in ("d1", "a0", "a", "b-1", "1a"):
        with pytest.raises(ValueError):
            curve(bad)


def test_system_needs_genus_two():
    with pytest.raises(ValueError):
        PennerSystem(1)
    for g in (1, 0, -3):
        with pytest.raises(ValueError, match="genus >= 2"):
            trace(g)
    assert len(PennerSystem(4).curves()) == 12


def test_intersections_genus2():
    sys_ = PennerSystem(2)
    one = [
        ("a1", "b1"), ("a2", "b2"),
        ("c1", "b1"), ("c2", "b2"),
        ("c1", "b2"), ("c2", "b1"),  # c_j also meets b_{j-1}, cyclically
    ]
    pairs = {frozenset(p) for p in one}
    for x in sys_.curves():
        for y in sys_.curves():
            expected = int(frozenset({str(x), str(y)}) in pairs)
            assert sys_.intersect(x, y) == expected, (x, y)


def test_intersect_symmetric_and_matches_neighbors():
    for g in range(2, 7):
        sys_ = PennerSystem(g)
        for x in sys_.curves():
            nbrs = sys_.neighbors(x)
            for y in sys_.curves():
                assert sys_.intersect(x, y) == sys_.intersect(y, x)
                assert (sys_.intersect(x, y) == 1) == (y in nbrs)


def test_neighbor_counts():
    sys_ = PennerSystem(5)
    for c in sys_.curves():
        expected = {"a": 1, "b": 3, "c": 2}[c.family]
        assert len(sys_.neighbors(c)) == expected


def test_curve_outside_system_rejected():
    sys_ = PennerSystem(2)
    with pytest.raises(ValueError):
        sys_.intersect(curve("a1"), curve("a3"))
    with pytest.raises(ValueError):
        sys_.neighbors(curve("c9"))


def test_twist_support():
    sys_ = PennerSystem(3)
    s = curves("a1")
    assert twist_support(sys_, s, curve("b1")) == curves("a1", "b1")
    assert twist_support(sys_, s, curve("c2")) == s  # disjoint, nothing joins
    # the twisting curve itself never self-joins
    assert twist_support(sys_, curves("a1"), curve("a1")) == curves("a1")


def test_rotate():
    sys_ = PennerSystem(3)
    assert rotate(sys_, curves("a2", "b1", "c3")) == curves("a1", "b3", "c2")
    s = curves("a1", "a2", "a3")
    assert rotate(sys_, s) == s


def test_rotation_and_orbit_words():
    """`rotate_mask(x, g, j)` is j index rotations of the set model."""
    rng = rng_for("penner-orbit")
    for g in range(2, 10):
        system = PennerSystem(g)
        cids = {c: "abc".index(c.family) * g + c.index - 1 for c in system.curves()}
        for _ in range(10):
            support = frozenset(c for c in system.curves() if rng.random() < 0.4)
            x = sum(1 << cids[c] for c in support)
            for j in range(g):
                assert rotate_mask(x, g, j) == sum(1 << cids[c] for c in support), (g, j)
                support = rotate(system, support)


def test_closed_neighbourhood():
    """`_closed(x, g)` is the set model's closed neighbourhood N[S], and it
    commutes with every index rotation."""
    rng = rng_for("penner-closed")
    for g in range(2, 10):
        system = PennerSystem(g)
        cids = {c: "abc".index(c.family) * g + c.index - 1 for c in system.curves()}
        for _ in range(10):
            support = frozenset(c for c in system.curves() if rng.random() < 0.3)
            near = support.union(*(system.neighbors(c) for c in support))
            x = sum(1 << cids[c] for c in support)
            assert _closed(x, g) == sum(1 << cids[c] for c in near), (g, support)
            for j in range(g):
                assert _closed(rotate_mask(x, g, j), g) == rotate_mask(_closed(x, g), g, j), (g, j)


def test_step_by_hand_genus2():
    sys_ = PennerSystem(2)
    s = curves("a2")
    s = step(sys_, s)
    assert s == curves("a1")
    s = step(sys_, s)
    assert s == curves("a2", "b2", "c2")
    s = step(sys_, s)
    assert s == curves("a1", "b1", "b2", "c1", "c2")


def test_certify_genus2():
    sys_ = PennerSystem(2)
    start = curve("a2")
    assert certify(sys_, curves("a1"), start) == curve("a2")
    assert certify(sys_, curves("a2", "b2", "c2"), start) == curve("a1")
    assert certify(sys_, curves("a1", "b1", "b2", "c1", "c2"), start) is None


def test_k_star_values():
    assert [k_star(g) for g in range(2, 8)] == [1, 6, 8, 16, 19, 30]
    with pytest.raises(ValueError):
        k_star(1)


def test_k_star_even_closed_form():
    for g in range(2, 40, 2):
        assert k_star(g) == (g * g + g - 4) // 2


def test_trace_frozen_small_genus():
    assert [trace(g).best_k for g in range(2, 8)] == [2, 6, 9, 16, 20, 30]


def test_trace_genus2_details():
    t = trace(2)
    assert t.best_k == 2 and t.bound == Fraction(1)
    assert t.certificates == (
        (1, BaseCurve("a", 2)),
        (2, BaseCurve("a", 1)),
    )
    assert t.supports[0] == curves("a2")
    assert t.supports[1] == curves("a1")
    assert t.supports[2] == curves("a2", "b2", "c2")
    # the orbit saturates and the trace stops one step later
    full = frozenset(PennerSystem(2).curves())
    assert t.supports[-1] == t.supports[-2] == full
    with pytest.raises(AttributeError):
        t.best_k = 3


def test_trace_matches_set_implementation():
    for g in range(2, 13):
        supports, certificates = oracle_trace(g)
        t = trace(g)
        assert t.supports == supports, g
        assert t.certificates == certificates, g
        for sep in (" ", ", ", '",\n      "'):
            expected = [sep.join(map(str, sorted(s))) for s in supports]
            assert list(t.sorted_names(sep)) == expected, (g, sep)
    supports, certificates = oracle_trace(7, cap=11)
    t = trace(7, cap=11)
    assert len(supports) == 12
    assert (t.supports, t.certificates) == (supports, certificates)
    assert list(t.sorted_names(" ")) == [" ".join(map(str, sorted(s))) for s in supports]


def _events(masks, genus):
    """`events` for the supports `masks`: S_0 and then (k, S_k) for exactly
    the steps k whose support is not the rotation of the one before."""
    changed = [
        (k, m) for k, m in enumerate(masks) if k and m != rotate_mask(masks[k - 1], genus, 1)
    ]
    return ((0, masks[0]), *changed)


def _assert_same_trace(genus, cap):
    t, ref = trace(genus, cap), step_trace(genus, cap)
    assert t.masks == ref.masks, (genus, cap)
    assert t.events == _events(ref.masks, genus), (genus, cap)
    assert t.certificates == ref.certificates, (genus, cap)
    assert (t.best_k, t.bound) == (ref.best_k, ref.bound), (genus, cap)
    assert t.best_k >= 1 and t.bound == Fraction(2, t.best_k), (genus, cap)
    assert len(t.masks) == len(ref.masks) == t.steps + 1, (genus, cap)


@pytest.mark.parametrize("genus", range(2, 41))
def test_trace_matches_step_oracle(genus):
    g = genus
    for cap in (None, 1, 2, g - 1, g, g + 1, 3 * g, 3 * g * g):
        _assert_same_trace(g, cap)


@pytest.mark.parametrize("genus", range(2, 9))
def test_trace_matches_step_oracle_at_every_cap(genus):
    for cap in range(1, 3 * genus * genus + 1):
        _assert_same_trace(genus, cap)


@pytest.mark.parametrize("genus", [*range(41, 401, 17), 400])
def test_trace_best_k_matches_step_oracle_large_genus(genus):
    t, ref = trace(genus), step_trace(genus)
    assert t.best_k == ref.best_k
    assert t.steps == len(ref.masks) - 1
    assert t.events == _events(ref.masks, genus)


@pytest.mark.parametrize("genus", range(2, 26))
def test_trace_masks_are_supports_of_penner_matrix_powers(genus):
    """A third oracle of the trace, on a different engine: S_k is the
    support of M_g^k e_{a_g}, the k-th image of the start curve's weight
    vector under the integer Penner matrix."""
    m = penner_matrix(genus)
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in m.entries]
    v = [int(i == genus - 1) for i in range(m.rows)]  # a_g
    for k, mask in enumerate(trace(genus).masks):
        assert sum(1 << i for i, x in enumerate(v) if x) == mask, k
        v = [sum(x * v[j] for j, x in row) for row in nonzero]


@pytest.mark.parametrize("genus", range(2, 31))
def test_penner_matrix_exponent_and_shortest_cycle(genus):
    """The trace stops one step after the support first fills, and that
    fill time is the exponent of M_g; its shortest cycle has length g - 1."""
    m = penner_matrix(genus)
    assert primitivity_exponent(m) == trace(genus).steps - 1
    assert min_positive_diagonal_power(m) == genus - 1


def _cyclic_interval(row: int, g: int) -> bool:
    """Whether the g-bit row is empty, full or one cyclic run of indices:
    at most one member has its cyclic predecessor outside the row."""
    full = (1 << g) - 1
    starts = row & ~((row << 1 | row >> (g - 1)) & full)
    return row == full or starts & (starts - 1) == 0


def test_cyclic_interval_check_matches_runs():
    for g in range(2, 9):
        runs = {0, (1 << g) - 1} | {
            sum(1 << (s + i) % g for i in range(n)) for s in range(g) for n in range(1, g)
        }
        assert {r for r in range(1 << g) if _cyclic_interval(r, g)} == runs


@pytest.mark.parametrize("genus", [*range(2, 61), 200, 400])
def test_step_trace_families_are_cyclic_intervals(genus):
    """In every support of the trace, each family a, b, c is empty, full or
    one cyclic interval of indices."""
    full = (1 << genus) - 1
    for k, mask in enumerate(step_trace(genus).masks):
        for fam in range(3):
            assert _cyclic_interval(mask >> fam * genus & full, genus), (k, fam)


def test_trace_events_are_bounded():
    """Each step that does more than rotate adds at least one of the 3g - 1
    curves missing from S_0 = {a_g}, so there are at most 3g events with
    S_0; every other step is skipped.  Step 1 only rotates: a_g meets no
    neighbour of a twist curve."""
    for g in range(2, 201):
        t = trace(g)
        assert len(t.events) <= 3 * g, g
        assert t.events[0][0] == 0 and t.steps < 3 * g * g, g
        assert t.events[1][0] >= 2, g


def test_trace_closes_each_event_once(monkeypatch):
    """`trace()` computes N[S] four times, whatever the genus: for the start
    and for each of the three twist curves.  Its loop keeps N[S] by rotating
    it and adding the twist curves' neighbourhoods."""
    calls = 0
    closed = penner._closed

    def counted(x, g):
        nonlocal calls
        calls += 1
        return closed(x, g)

    monkeypatch.setattr(penner, "_closed", counted)
    for g in range(2, 201):
        calls = 0
        t = trace(g)
        assert calls == 4, (g, calls, len(t.events))


def test_trace_supports_grow_until_saturation():
    for g in (2, 3, 5):
        sup = trace(g).supports
        for early, late in zip(sup[:-1], sup[1:]):
            assert len(early) <= len(late)


def test_first_step_is_certified():
    """S_1 = {a_(g-1)} leaves all but two curves outside N[S_1], so one
    iterate always certifies k = 1."""
    for g in range(2, 401):
        assert trace(g, 1).best_k == 1, g


def test_trace_cap():
    t = trace(5, cap=3)
    assert len(t.masks) == 4
    assert t.best_k == 3
    with pytest.raises(ValueError):
        trace(2, cap=0)


@pytest.mark.parametrize(
    "genus, cap, message",
    [
        (2.0, None, "genus 2.0 is not an int"),
        (True, None, "genus True is not an int"),
        (Fraction(10), None, "genus Fraction(10, 1) is not an int"),
        (10, 5.0, "cap 5.0 is not an int"),
        (10, True, "cap True is not an int"),
    ],
)
def test_trace_takes_ints_only(genus, cap, message):
    """A float cap would give a float `best_k` and a `masks` that raises
    TypeError, and True would pass as cap 1."""
    with pytest.raises(ValueError) as info:
        trace(genus, cap)
    assert str(info.value) == message


def test_checkpoint_sets_small_genus():
    for g in (3, 4, 5, 6):
        sup = trace(g).supports
        assert sup[g - 1] == curves("a1")
        assert sup[g] == curves(f"a{g}", f"b{g}", f"c{g}")
        for m in range(1, (g - 1) // 2 + 1):
            window = {curve(f"c{g}")}
            for i in range(g - 2 * m + 1, g):
                window |= curves(f"a{i}", f"b{i}", f"c{i}")
            assert sup[m * (g + 1)] <= window, (g, m)


def test_penner_upper_bound():
    k, bound = penner_upper_bound(2)
    assert (k, bound) == (2, Fraction(1))
    k, bound = penner_upper_bound(3)
    assert (k, bound) == (6, Fraction(1, 3))


def test_certified_bound_beats_closed_form():
    """The trace certifies the rotation-chain count, one more for even
    genus (lemma B, which `penner_upper_bound` reads instead of tracing),
    and its bound 2/k never exceeds the closed form."""
    for g in [*range(2, 401), 1000, 2000]:
        t = trace(g)
        assert t.best_k == k_star(g) + (g % 2 == 0), g
        assert t.best_k >= (g * g + g - 4) // 2
        assert t.bound <= translation_length_upper_bound(g)


# Lemma B (the `penner` module docstring), step by step.  The lemma's
# supports are written here from its statement, as (start, length) of one
# cyclic interval of indices per family a, b, c.


def _lemma_support(g: int, rows) -> frozenset:
    return frozenset(BaseCurve(f, (start - 1 + i) % g + 1)
                     for f, (start, length) in zip("abc", rows) for i in range(length))


def _round_end(g: int, j: int):
    """T_j: A = [g-1-2j, g-1], B = C = [g-2-2j, g]."""
    return (g - 1 - 2 * j, 2 * j + 1), (g - 2 - 2 * j, 2 * j + 3), (g - 2 - 2 * j, 2 * j + 3)


def _run_steps(system: PennerSystem, support: frozenset, steps: int):
    """The support after `steps` steps of the set model and the gaps between
    its events, the steps that do more than rotate."""
    gaps, last = [], 0
    for t in range(1, steps + 1):
        nxt = step(system, support)
        if nxt != rotate(system, support):
            gaps.append(t - last)
            last = t
        support = nxt
    return support, gaps


def _near_full(system: PennerSystem, support: frozenset) -> bool:
    near = support.union(*(system.neighbors(c) for c in support))
    return len(near) == 3 * system.genus


@pytest.mark.parametrize("genus", range(5, 13))
def test_lemma_b_round_maps_each_triple_to_the_next(genus):
    """Claim 2: from T_j, for j < R, g + 1 steps give T_(j+1), with event
    gaps 1, g - 4 - 2j, 1, 2j + 2, 1.  Started from T_j with one interval's
    start moved by one, the same check fails."""
    g, system = genus, PennerSystem(genus)
    rounds = (g - 3) // 2
    for j in range(rounds):
        end = _lemma_support(g, _round_end(g, j + 1))
        gaps = [1, g - 4 - 2 * j, 1, 2 * j + 2, 1]
        assert _run_steps(system, _lemma_support(g, _round_end(g, j)), g + 1) == (end, gaps)
        for fam in range(3):
            for move in (-1, 1):
                rows = list(_round_end(g, j))
                rows[fam] = (rows[fam][0] + move, rows[fam][1])
                moved = _run_steps(system, _lemma_support(g, rows), g + 1)
                assert moved != (end, gaps), (j, fam, move)


@pytest.mark.parametrize("genus", range(4, 13))
def test_lemma_b_start_and_end(genus):
    """Claim 1: 2g + 1 steps take {a_g} to T_0 with events at g, g + 1,
    2g - 1 and 2g + 1.  Claim 3: N[S] is full at T_R for odd g; for even g
    it is not, and one more step fills B and so N[S]."""
    g, system = genus, PennerSystem(genus)
    start = frozenset({BaseCurve("a", g)})
    assert _run_steps(system, start, 2 * g + 1) == (
        _lemma_support(g, _round_end(g, 0)), [g, 1, g - 2, 2])
    last = _lemma_support(g, _round_end(g, (g - 3) // 2))
    assert _near_full(system, last) == (g % 2 == 1)
    if g % 2 == 0:
        after = step(system, last)
        assert {c.index for c in after if c.family == "b"} == set(range(1, g + 1))
        assert _near_full(system, after)


def _rows_mask(g: int, rows, shift: int = 0) -> int:
    """The mask of one cyclic interval of indices per family, (start,
    length) each, with every index then lowered by `shift`."""
    full = (1 << g) - 1
    mask = 0
    for fam, (start, length) in enumerate(rows):
        run = ((1 << length) - 1) << (start - 1 - shift) % g
        mask |= ((run | run >> g) & full) << fam * g
    return mask


@pytest.mark.parametrize("genus", [*range(5, 401), 1000, 2000])
def test_trace_events_follow_lemma_b(genus):
    """The events of `trace(g)` up to k_R are exactly the lemma's, with the
    supports it states (in the frame of each round's start, lowered by the
    steps taken), and `best_k` is k_R - [g odd]."""
    g = genus
    result = trace(g)
    expected = [
        (0, _rows_mask(g, [(g, 1), (1, 0), (1, 0)])),
        (g, _rows_mask(g, [(g, 1)] * 3)),
        (g + 1, _rows_mask(g, [(g - 1, 1), (g - 1, 1), (g - 1, 2)])),
        (2 * g - 1, _rows_mask(g, [(1, 1), (g, 2), (g, 3)])),
        (2 * g + 1, _rows_mask(g, _round_end(g, 0))),
    ]
    k = 2 * g + 1
    for j in range((g - 3) // 2):
        s = g - 2 - 2 * j  # B's start in T_j
        a, b, c = (s + 1, g - 1 - s), (s, g + 1 - s), (s, g + 2 - s)
        states = [
            (1, [a, b, c]),
            (s - 1, [a, (s - 1, g + 2 - s), (s - 1, g + 3 - s)]),
            (s, [(s, g - s), (s - 1, g + 2 - s), (s - 1, g + 3 - s)]),
            (g, [(s, g + 1 - s), (s - 1, g + 2 - s), (s - 1, g + 3 - s)]),
            (g + 1, [(s, g + 1 - s), (s - 1, g + 3 - s), (s - 1, g + 3 - s)]),
        ]
        expected += [(k + t, _rows_mask(g, rows, t)) for t, rows in states]
        k += g + 1
        assert expected[-1][1] == _rows_mask(g, _round_end(g, j + 1)), j
    assert result.events[:len(expected)] == tuple(expected)
    assert result.best_k == k - g % 2 == k_star(g) + (g % 2 == 0)
    assert penner_upper_bound(g) == (result.best_k, result.bound)
