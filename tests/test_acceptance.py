"""Acceptance gate: one test per published criterion, each printing a
single `ACCEPTANCE n: PASS` / `FAIL` line on the terminal.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from curvebounds.penner import BaseCurve, penner_upper_bound, trace
from curvebounds.pfmatrix import (
    min_positive_diagonal_power,
    primitivity_exponent,
    product_lower_right,
    full_spread_power,
    wielandt_bound,
)
from curvebounds.reference import (
    reference_attachment,
    reference_spine,
    reference_track,
    spine_attachment,
)
from curvebounds.surfaces import (
    SurfaceSig,
    flm_upper_bound,
    translation_length_lower_bound,
    translation_length_upper_bound,
)
from curvebounds.traintrack import (
    FoldSchedule,
    PeriodicCuspError,
    RegionAttachment,
    add_diagonals,
    boundary_cycles,
    branch_count_report,
    check_measure,
    classify_regions,
    enumerate_diagonal_extensions,
    is_recurrent,
    max_fold_time,
    total_cusps,
)

from helpers import (
    block_product_oracle,
    brute_exponent,
    entrywise_positive,
    matrix_power,
    noncrossing_subsets_brute,
    random_block_sequence,
    random_fold_schedule,
    random_primitive,
    random_small_track,
    rng_for,
    route_recurrent,
    switch_balance,
    synthetic_block_transition,
)


@contextmanager
def criterion(capsys, n: int):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: PASS")


def test_criterion_01_certified_bounds_sweep(capsys):
    with criterion(capsys, 1):
        start = time.perf_counter()
        for g in range(2, 101):
            k, bound = penner_upper_bound(g)
            floor_k = (g * g + g - 4) // 2
            assert k >= floor_k, (g, k)
            if g == 2:
                assert k >= 2
            assert bound == Fraction(2, k)
            assert bound <= Fraction(4, g * g + g - 4), (g, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_criterion_02_orbit_checkpoints(capsys):
    with criterion(capsys, 2):
        for g in range(3, 51):
            sup = trace(g).supports
            assert sup[g - 1] == frozenset({BaseCurve("a", 1)}), g
            assert sup[g] == frozenset(
                {BaseCurve("a", g), BaseCurve("b", g), BaseCurve("c", g)}
            ), g
            for m in range(1, (g - 1) // 2 + 1):
                window = {BaseCurve("c", g)}
                for i in range(g - 2 * m + 1, g):
                    window |= {BaseCurve(f, i) for f in ("a", "b", "c")}
                assert sup[m * (g + 1)] <= window, (g, m)


def test_criterion_03_genus_two_exact(capsys):
    with criterion(capsys, 3):
        result = trace(2)
        assert result.supports[1] == frozenset({BaseCurve("a", 1)})
        assert result.supports[2] == frozenset(
            {BaseCurve("a", 2), BaseCurve("b", 2), BaseCurve("c", 2)}
        )
        assert result.best_k == 2
        assert (2, BaseCurve("a", 1)) in result.certificates
        assert result.bound == Fraction(1)


def test_criterion_04_closed_form_sandwich(capsys):
    with criterion(capsys, 4):
        start = time.perf_counter()
        for g in range(2, 10001):
            lower = translation_length_lower_bound(SurfaceSig(g, 0))
            upper = translation_length_upper_bound(g)
            assert lower < upper, g
            assert float(upper) < flm_upper_bound(g) + 1e-9, g
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"


def test_criterion_05_matrix_corpus(capsys):
    with criterion(capsys, 5):
        assert (wielandt_bound(3), wielandt_bound(4), wielandt_bound(5)) == (5, 10, 17)
        rng = rng_for("acceptance-5")
        checked = 0
        for _ in range(200):
            dim = rng.randint(1, 8)
            m = random_primitive(rng, dim)
            q = min_positive_diagonal_power(m)
            assert 1 <= q <= dim
            assert entrywise_positive(matrix_power(matrix_power(m, q), 2 * dim))
            assert primitivity_exponent(m) == brute_exponent(m, wielandt_bound(dim))
            checked += 1
        assert checked >= 200


def test_criterion_06_spread_power_bound(capsys):
    with criterion(capsys, 6):
        rng = rng_for("acceptance-6")
        for sig in (SurfaceSig(2, 0), SurfaceSig(2, 1), SurfaceSig(0, 5)):
            chi = abs(sig.chi)
            coeff = 162 if sig.punctures == 0 else 18
            k_bound = coeff * chi * chi
            for _ in range(40):
                bt = synthetic_block_transition(rng, sig)
                assert bt.r < 3 * chi - 3 or bt.r == 1
                assert bt.dim <= 9 * chi - 3 * sig.punctures
                k = full_spread_power(bt)
                assert k < k_bound, (sig, k)
                power = matrix_power(bt.matrix, k)
                for b in range(bt.dim):
                    for beta in bt.real_indices:
                        assert power.entries[b][beta] > 0, (sig, b, beta)


def test_criterion_07_block_products(capsys):
    with criterion(capsys, 7):
        rng = rng_for("acceptance-7")
        for _ in range(100):
            ms, r = random_block_sequence(rng)
            assert product_lower_right(ms, r) == block_product_oracle(ms, r)


def test_criterion_08_reference_tracks_and_extensions(capsys):
    with criterion(capsys, 8):
        # maximal reference tracks
        for genus in (2, 3):
            track = reference_track(genus)
            attachment = reference_attachment(genus)
            report = classify_regions(track, attachment)
            assert len(report.regions) == 4 * genus - 4
            assert all(r.label == "polygon(3)" for r in report.regions)
            assert report.is_large and report.is_maximal
            assert total_cusps(track) == 6 * abs(2 - 2 * genus)
            ok, witness = is_recurrent(track)
            assert ok and all(w >= 1 for w in witness.values())
            assert check_measure(track, witness)
            assert not any(switch_balance(track, witness).values())
            counts = branch_count_report(track, SurfaceSig(genus, 0))
            assert counts.total_ok and counts.real_ok

        # recurrence agrees with closed-route reachability
        rng = rng_for("acceptance-8")
        for _ in range(100):
            t = random_small_track(rng, max_branches=8)
            assert is_recurrent(t)[0] == route_recurrent(t)

        # diagonal extension enumeration matches the brute-force
        # non-crossing subset oracle
        spine = reference_spine(2)
        cases = [
            (spine, spine_attachment(2), 45),
            (
                add_diagonals(spine, boundary_cycles(spine), [(0, (0, 2))]),
                RegionAttachment(SurfaceSig(2, 0), ((0, 0),) * 2),
                11,
            ),
            (
                add_diagonals(
                    spine, boundary_cycles(spine), [(0, (0, 2)), (0, (0, 4))]
                ),
                RegionAttachment(SurfaceSig(2, 0), ((0, 0),) * 3),
                3,
            ),
        ]
        for base, attachment, expected in cases:
            exts = enumerate_diagonal_extensions(base, attachment)
            keys = {
                frozenset((b.ends, b.tag) for b in e.branches) for e in exts
            }
            assert len(exts) == len(keys) == expected
            report = classify_regions(base, attachment)
            cycles = boundary_cycles(base)
            per_region = [
                sorted(noncrossing_subsets_brute(r.cusp_count), key=sorted)
                for r in report.regions
            ]
            brute_keys = set()
            for combo in itertools.product(*per_region):
                sel = [
                    (ci, chord)
                    for ci, sub in enumerate(combo)
                    for chord in sorted(sub)
                ]
                ext = add_diagonals(base, cycles, sel)
                if is_recurrent(ext)[0]:
                    brute_keys.add(
                        frozenset((b.ends, b.tag) for b in ext.branches)
                    )
            assert keys == brute_keys


def test_criterion_09_fold_schedules(capsys):
    with criterion(capsys, 9):
        sig = SurfaceSig(3, 0)
        rng = rng_for("acceptance-9")
        folds = periodic = 0
        for _ in range(100):
            cusps, cmap, folded, ok = random_fold_schedule(rng, rng.randint(1, 10))
            fs = FoldSchedule(cusps, cmap, folded)
            if ok:
                t = max_fold_time(fs, sig)
                assert 1 <= t <= len(cusps)
                folds += 1
            else:
                with pytest.raises(PeriodicCuspError):
                    max_fold_time(fs, sig)
                periodic += 1
        assert folds and periodic
        two_cycle = FoldSchedule(("p", "q"), {"p": "q", "q": "p"}, frozenset())
        with pytest.raises(PeriodicCuspError):
            max_fold_time(two_cycle, sig)
