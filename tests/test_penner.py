from __future__ import annotations

from fractions import Fraction

import pytest

from curvebounds import penner
from curvebounds.penner import (
    BaseCurve,
    _closed,
    _rotate,
    k_star,
    penner_upper_bound,
    trace,
)
from curvebounds.surfaces import translation_length_upper_bound

from helpers import (
    PennerSystem,
    certify,
    curves,
    oracle_trace,
    parse_curve as curve,
    rng_for,
    rotate,
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
    """`_rotate(x, g, j)` is j index rotations of the set model."""
    rng = rng_for("penner-orbit")
    for g in range(2, 10):
        system = PennerSystem(g)
        cids = {c: "abc".index(c.family) * g + c.index - 1 for c in system.curves()}
        for _ in range(10):
            support = frozenset(c for c in system.curves() if rng.random() < 0.4)
            x = sum(1 << cids[c] for c in support)
            for j in range(g):
                assert _rotate(x, g, j) == sum(1 << cids[c] for c in support), (g, j)
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
                assert _closed(_rotate(x, g, j), g) == _rotate(_closed(x, g), g, j), (g, j)


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


def test_trace_matches_set_implementation():
    for g in range(2, 13):
        supports, certificates = oracle_trace(g)
        t = trace(g)
        assert t.supports == supports, g
        assert t.certificates == certificates, g
        assert [list(n) for n in t.sorted_names()] == [sorted(map(str, s)) for s in supports], g
    supports, certificates = oracle_trace(7, cap=11)
    t = trace(7, cap=11)
    assert len(supports) == 12
    assert (t.supports, t.certificates) == (supports, certificates)
    assert [list(n) for n in t.sorted_names()] == [sorted(map(str, s)) for s in supports]


def _assert_same_trace(genus, cap):
    t, ref = trace(genus, cap), step_trace(genus, cap)
    assert t.masks == ref.masks, (genus, cap)
    # `events` is S_0 and then (k, S_k) for exactly the steps k whose support
    # is not the rotation of the one before.
    changed = [
        (k, m) for k, m in enumerate(ref.masks) if k and m != _rotate(ref.masks[k - 1], genus, 1)
    ]
    assert t.events == ((0, ref.masks[0]), *changed), (genus, cap)
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
    assert trace(genus).best_k == step_trace(genus).best_k


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
    """`trace()` computes N[S] once per event, plus once for each of the
    three twist curves' neighbours, and never again after its loop."""
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
        assert calls <= len(t.events) + 3, (g, calls, len(t.events))


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
    """The certified iterate is the rotation-chain count, one more for even
    genus, and its bound 2/k never exceeds the closed form."""
    for g in [*range(2, 401), 1000, 2000]:
        k, bound = penner_upper_bound(g)
        assert k == k_star(g) + (g % 2 == 0), g
        assert k >= (g * g + g - 4) // 2
        assert bound <= translation_length_upper_bound(g)
