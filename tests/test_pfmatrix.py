from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import pytest

from curvebounds import pfmatrix
from curvebounds.pfmatrix import (
    BlockStructureError,
    BlockTransition,
    IntMatrix,
    NotBHStructureError,
    NotIrreducibleError,
    cover_time,
    full_spread_power,
    is_irreducible,
    min_positive_diagonal_power,
    perron_root_bracket,
    primitivity_exponent,
    product_lower_right,
    wielandt_bound,
    _bool_pow,
)
from curvebounds.surfaces import SurfaceSig

from helpers import (
    block_product_oracle,
    brute_cover_time,
    brute_exponent,
    brute_girth,
    brute_irreducible,
    chain_block_transition,
    char_root_counts,
    cyclic_class_matrix,
    entrywise_positive,
    identity,
    matrix_power,
    random_block_sequence,
    random_irreducible,
    random_matrix,
    rng_for,
    synthetic_block_transition,
    wielandt_matrix,
)


# --- IntMatrix --------------------------------------------------------------


def test_matrix_construction_errors():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, -2]])


@pytest.mark.parametrize(
    "entries, message",
    [
        # read as [[0, 1], [1, 0]], this would have no positive power
        ([[0.5, 1], [1, 0.9]], "entry 0.5 is not a nonnegative int"),
        ([[1, 1], [1, 0.9]], "entry 0.9 is not a nonnegative int"),
        ([["3"]], "entry '3' is not a nonnegative int"),
        ([[Fraction(2)]], "entry Fraction(2, 1) is not a nonnegative int"),
        ([[1, -2]], "entry -2 is not a nonnegative int"),
        # a bool is an int subclass, but no matrix entry
        ([[True, 1], [1, False]], "entry True is not a nonnegative int"),
    ],
)
def test_matrix_takes_nonnegative_ints_only(entries, message):
    with pytest.raises(ValueError) as info:
        IntMatrix(entries)
    assert str(info.value) == message


def test_matrix_immutable():
    m = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_matrix_algebra():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a @ b == IntMatrix([[2, 1], [4, 3]])
    assert matrix_power(a, 0) == identity(2)
    assert matrix_power(a, 1) == a
    assert matrix_power(a, 3) == a @ a @ a
    assert a.submatrix([1], [0, 1]) == IntMatrix([[3, 4]])
    assert entrywise_positive(a)
    assert entrywise_positive(IntMatrix([[1, 1], [1, 1]]))
    assert not entrywise_positive(IntMatrix([[1, 0], [1, 1]]))
    with pytest.raises(ValueError):
        a @ IntMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        matrix_power(a, -1)
    with pytest.raises(ValueError):
        matrix_power(IntMatrix([[1, 2]]), 2)


def test_power_matches_repeated_multiplication():
    rng = rng_for("pf-pow")
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5))
        k = rng.randint(0, 6)
        acc = identity(m.rows)
        for _ in range(k):
            acc = acc @ m
        assert matrix_power(m, k) == acc


def _support_of(m: IntMatrix) -> tuple[int, ...]:
    return tuple(sum(1 << j for j in range(m.cols) if m[(i, j)] > 0) for i in range(m.rows))


def test_support():
    m = IntMatrix([[0, 2, 0], [1, 0, 0], [0, 0, 3]])
    assert m.support == (0b010, 0b001, 0b100)
    assert IntMatrix([[0, 5, 0, 1]]).support == (0b1010,)
    with pytest.raises(AttributeError):
        m.support = (0, 0, 0)
    rng = rng_for("pf-support")
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 7), density=rng.uniform(0.0, 1.0))
        assert m.support == _support_of(m)
        assert (m @ m).support == _support_of(m @ m)
        flipped = m.submatrix(range(m.rows)[::-1], range(m.cols))
        assert flipped.support == m.support[::-1]


def test_bool_pow_is_support_of_integer_power():
    rng = rng_for("pf-bool-pow")
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), density=rng.uniform(0.1, 0.6))
        for k in range(0, 9):
            assert _bool_pow(m.support, k) == list(matrix_power(m, k).support), (m, k)


# --- irreducibility ---------------------------------------------------------


def test_irreducible_base_cases():
    assert not is_irreducible(IntMatrix([[0]]))
    assert is_irreducible(IntMatrix([[5]]))
    assert is_irreducible(IntMatrix([[0, 1], [1, 0]]))
    assert not is_irreducible(identity(2))
    assert not is_irreducible(IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        is_irreducible(IntMatrix([[1, 2]]))


def test_irreducible_matches_oracle():
    rng = rng_for("pf-irred")
    hits = 0
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 6), density=rng.uniform(0.2, 0.8))
        expect = brute_irreducible(m)
        assert is_irreducible(m) == expect
        hits += expect
    assert 0 < hits < 120  # the corpus exercises both answers


def test_min_positive_diagonal_power():
    assert min_positive_diagonal_power(IntMatrix([[1]])) == 1
    assert min_positive_diagonal_power(IntMatrix([[0, 1], [1, 0]])) == 2
    cycle3 = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert min_positive_diagonal_power(cycle3) == 3
    mixed = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert min_positive_diagonal_power(mixed) == 2
    with pytest.raises(NotIrreducibleError):
        min_positive_diagonal_power(IntMatrix([[1, 1], [0, 1]]))


def test_min_diagonal_power_is_girth():
    """q is realized: some diagonal entry of m^q is positive, none earlier."""
    rng = rng_for("pf-girth")
    for _ in range(60):
        m = random_irreducible(rng, rng.randint(1, 6))
        q = min_positive_diagonal_power(m)
        assert 1 <= q <= m.rows
        power = identity(m.rows)
        for s in range(1, q + 1):
            power = power @ m
            has_diag = any(power.entries[i][i] > 0 for i in range(m.rows))
            assert has_diag == (s == q)


# --- primitivity ------------------------------------------------------------


def test_wielandt_bound_values():
    assert wielandt_bound(1) == 1
    assert wielandt_bound(2) == 2
    assert wielandt_bound(3) == 5
    assert wielandt_bound(4) == 10
    assert wielandt_bound(5) == 17


def test_primitivity_exponent_cases():
    assert primitivity_exponent(IntMatrix([[7]])) == 1
    assert primitivity_exponent(IntMatrix([[1, 1], [1, 0]])) == 2
    assert primitivity_exponent(IntMatrix([[0, 1], [1, 0]])) is None
    assert primitivity_exponent(IntMatrix([[0]])) is None
    # the classic extremal matrix attains the dimension-3 bound
    w3 = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert primitivity_exponent(w3) == wielandt_bound(3) == 5


def test_primitivity_exponent_matches_oracle():
    rng = rng_for("pf-prim")
    primitive = imprimitive = 0
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 5), density=rng.uniform(0.2, 0.8))
        e = primitivity_exponent(m)
        assert e == brute_exponent(m, wielandt_bound(m.rows))
        if e is None:
            imprimitive += 1
        else:
            primitive += 1
    assert primitive and imprimitive


@pytest.mark.parametrize("n", range(2, 41))
def test_wielandt_matrix_attains_the_bound(n):
    m = wielandt_matrix(n)
    assert primitivity_exponent(m) == (n - 1) ** 2 + 1 == wielandt_bound(n)
    if n <= 10:
        assert brute_exponent(m, wielandt_bound(n)) == wielandt_bound(n)


def test_sparse_primitive_exponents_match_oracle():
    """Random sparse matrices up to n = 60, most of them primitive with a
    small exponent: the exponent is the first positive integer power, and a
    matrix with no positive power up to 12 gets None or an exponent past 12."""
    rng = rng_for("pf-prim-sparse")
    small = 0
    for n in range(4, 61, 4):
        for scale in (1.5, 3.0):
            m = random_matrix(rng, n, density=min(1.0, scale * math.log(n) / n))
            e = primitivity_exponent(m)
            assert brute_exponent(m, 12) == (e if e is not None and e <= 12 else None), n
            small += e is not None and e <= 12
    assert small >= 20


def test_exponent_search_stops_at_the_first_positive_square(monkeypatch):
    """At n = 40, a matrix of exponent s takes at most 2 ceil(log2 s) boolean
    products: squares up to the first all-ones one, then the descent below
    it.  The band I + P + ... + P^c of the 40-cycle P has exponent
    ceil(39 / c).  A matrix with no positive power takes the
    ceil(log2 W) squares that reach the Wielandt bound W, and no more."""
    calls = []
    real_mul = pfmatrix._bool_mul

    def counting_mul(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(pfmatrix, "_bool_mul", counting_mul)
    n = 40
    cases = [
        (IntMatrix([[int((j - i) % n <= c) for j in range(n)] for i in range(n)]), -(-39 // c))
        for c in range(1, n)
    ]
    cases.append((wielandt_matrix(n), wielandt_bound(n)))
    for m, s in cases:
        calls.clear()
        assert primitivity_exponent(m) == s
        assert len(calls) <= 2 * (s - 1).bit_length(), (s, len(calls))
    calls.clear()
    rng = rng_for("pf-prim-count")
    assert primitivity_exponent(cyclic_class_matrix(rng, n, 2)) is None
    assert len(calls) == (wielandt_bound(n) - 1).bit_length() == 11


@pytest.mark.parametrize("period", [2, 3, 4, 5])
def test_imprimitive_matrices_have_no_exponent(period):
    rng = rng_for(f"pf-period-{period}")
    for n in range(period, 31):
        m = cyclic_class_matrix(rng, n, period)
        assert is_irreducible(m)
        assert primitivity_exponent(m) is None
        if n <= 10:
            assert brute_exponent(m, wielandt_bound(n)) is None


def test_reducible_matrix_without_zero_rows_has_no_exponent():
    # upper triangular: every row and column is nonzero, no power is positive
    n = 30
    m = IntMatrix([[int(j >= i) for j in range(n)] for i in range(n)])
    assert not is_irreducible(m)
    assert primitivity_exponent(m) is None


# --- block products ---------------------------------------------------------


def test_product_lower_right_basic():
    a = IntMatrix([[1, 2], [0, 4]])
    b = IntMatrix([[3, 1], [0, 2]])
    assert product_lower_right([a, b], 1) == IntMatrix([[8]])
    assert product_lower_right([a, b], 2) == a @ b


def test_product_lower_right_errors():
    a = IntMatrix([[1, 2], [0, 4]])
    with pytest.raises(ValueError):
        product_lower_right([], 1)
    with pytest.raises(ValueError):
        product_lower_right([a], 0)
    with pytest.raises(ValueError):
        product_lower_right([a], 3)
    with pytest.raises(ValueError):
        product_lower_right([a, IntMatrix([[1]])], 1)
    with pytest.raises(BlockStructureError):
        product_lower_right([IntMatrix([[1, 2], [3, 4]])], 1)


def test_product_lower_right_matches_full_product():
    rng = rng_for("pf-block")
    for _ in range(60):
        ms, r = random_block_sequence(rng)
        assert product_lower_right(ms, r) == block_product_oracle(ms, r)


# --- block transitions ------------------------------------------------------

SIG = SurfaceSig(2, 0)
SIG4 = SurfaceSig(4, 0)  # 3|chi| - 3 = 15 real, 9|chi| = 54 branches


def _bt(entries, real, sig=SIG):
    return BlockTransition(IntMatrix(entries), frozenset(real), sig)


@pytest.mark.parametrize(
    "real, bad",
    [
        ([0.7, 1.2], "0.7"),
        ([1, "0"], "'0'"),
        ([Fraction(0)], "Fraction(0, 1)"),
        ([True], "True"),
    ],
)
def test_block_transition_takes_int_indices_only(real, bad):
    """A float index read as an int would name a different real set."""
    with pytest.raises(BlockStructureError) as info:
        BlockTransition(IntMatrix([[1, 1], [1, 1]]), real, SurfaceSig(2, 0))
    assert str(info.value) == f"real index {bad} is not an int"


def test_block_transition_structure_checks():
    with pytest.raises(BlockStructureError):
        _bt([[1]], [])
    with pytest.raises(BlockStructureError):
        _bt([[1]], [3])
    with pytest.raises(BlockStructureError):
        # real row 1 has support on the non-real column 0
        _bt([[1, 1], [1, 1]], [1])
    with pytest.raises(NotIrreducibleError):
        _bt([[0, 1], [0, 0]], [1])
    with pytest.raises(BlockStructureError):
        _bt([[1]], [0], SurfaceSig(1, 0))  # chi = 0
    with pytest.raises(BlockStructureError):
        # four real branches on genus 2 exceeds 3|chi| - 3 = 3
        _bt([[1] * 4 for _ in range(4)], [0, 1, 2, 3])
    with pytest.raises(BlockStructureError):
        n = 19  # exceeds 9|chi| - 3n = 18
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][max(i, n - 1)] = 1
        entries[n - 1][n - 1] = 1
        _bt(entries, [n - 1])


def test_block_transition_accessors():
    bt = _bt([[0, 1, 1], [0, 1, 1], [0, 1, 1]], [1, 2])
    assert bt.r == 2 and bt.dim == 3
    assert bt.real_indices == (1, 2)
    assert bt.restriction() == IntMatrix([[1, 1], [1, 1]])
    assert bt.q == 1
    assert _bt([[0, 1, 0], [0, 0, 1], [0, 1, 0]], [1, 2]).q == 2
    with pytest.raises(AttributeError):
        bt.q = 5


def test_cover_time_chain():
    bt = _bt([[0, 1, 0], [0, 0, 1], [0, 0, 1]], [2])
    assert cover_time(bt) == 2


def test_cover_time_all_real_is_zero():
    bt = _bt([[1, 1], [1, 1]], [0, 1])
    assert cover_time(bt) == 0


def test_cover_time_unreachable_branch():
    bt = _bt([[0, 0], [0, 1]], [1])
    with pytest.raises(NotBHStructureError, match=r"images of the real set: \[0\]$"):
        cover_time(bt)
    with pytest.raises(NotBHStructureError):
        full_spread_power(bt)


@pytest.mark.parametrize("depth", [1, 2, 5, 10, 20, 40])
@pytest.mark.parametrize("density", [0.0, 0.05, 0.2])
def test_cover_time_of_chains_matches_integer_powers(depth, density):
    """On a chain of `depth` non-real branches feeding a primitive real
    block, the cover time is the least j with every row of M^j positive in
    a real column; with no shortcuts it is the depth itself."""
    rng = rng_for(f"pf-cover-chain-{depth}-{density}")
    for r in (1, 3, 6):
        core = IntMatrix([[1]]) if r == 1 else wielandt_matrix(r)
        bt = chain_block_transition(rng, core, depth, SIG4, density)
        assert cover_time(bt) == brute_cover_time(bt)
        if density == 0.0:
            assert cover_time(bt) == depth


def test_full_spread_power_chain():
    bt = _bt([[0, 1, 0], [0, 0, 1], [0, 0, 1]], [2])
    # r = 1, q = 1, cover time 2
    assert full_spread_power(bt) == 4


def test_full_spread_power_postcondition():
    rng = rng_for("pf-spread")
    for sig in (SurfaceSig(2, 0), SurfaceSig(2, 1), SurfaceSig(0, 5)):
        for _ in range(8):
            bt = synthetic_block_transition(rng, sig)
            k = full_spread_power(bt)
            q = min_positive_diagonal_power(bt.restriction())
            assert k == 2 * bt.r * q + cover_time(bt)
            power = identity(bt.dim)
            for _ in range(k):
                power = power @ bt.matrix
            for b in range(bt.dim):
                for beta in bt.real_indices:
                    assert power.entries[b][beta] > 0


@pytest.mark.parametrize("r,depth", [(12, 8), (13, 12), (14, 20)])
def test_full_spread_power_large_matches_integer_power(r, depth):
    rng = rng_for(f"pf-spread-large-{r}")
    bt = chain_block_transition(rng, wielandt_matrix(r), depth, SIG4)
    assert bt.dim >= 20
    k = full_spread_power(bt)
    assert k == 2 * r * brute_girth(bt.restriction()) + brute_cover_time(bt)
    assert k >= 2 * r * (r - 1) >= 264
    power = matrix_power(bt.matrix, k)
    assert all(power[(b, beta)] > 0 for b in range(bt.dim) for beta in bt.real_set)


@pytest.mark.parametrize("period", [2, 3])
def test_full_spread_power_large_imprimitive_names_first_zero(period):
    """The boolean check reports the first zero of the integer power M^k."""
    rng = rng_for(f"pf-spread-imprim-{period}")
    core = cyclic_class_matrix(rng, 12, period, density=0.0)
    bt = chain_block_transition(rng, core, 10, SIG4)
    k = 2 * bt.r * brute_girth(bt.restriction()) + brute_cover_time(bt)
    assert k >= 100
    power = matrix_power(bt.matrix, k)
    b, beta = next(
        (b, beta)
        for b in range(bt.dim)
        for beta in bt.real_indices
        if power[(b, beta)] == 0
    )
    with pytest.raises(NotBHStructureError, match=rf"\(M\^{k}\)\[{b}\]\[{beta}\] = 0"):
        full_spread_power(bt)


def test_full_spread_power_imprimitive_restriction_fails():
    """An alternating two-cycle restriction never spreads; the verified
    iterate count reports it instead of returning a wrong answer."""
    bt = _bt([[0, 1], [1, 0]], [0, 1])
    with pytest.raises(NotBHStructureError):
        full_spread_power(bt)


# --- Perron root bracket ----------------------------------------------------


def test_perron_root_bracket_exact_cases():
    assert perron_root_bracket(IntMatrix([[2]])) == (2, 2)
    assert perron_root_bracket(IntMatrix([[0, 1], [1, 0]])) == (1, 1)
    fib = IntMatrix([[1, 1], [1, 0]])
    lo, hi = perron_root_bracket(fib)
    assert 0 < hi - lo < Fraction(1, 10**80)
    # The golden ratio is the root of x^2 - x - 1 above 1.
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
    # The oracle tells a bracket from one that misses the root.
    assert char_root_counts(fib, lo, hi) == (1, 0)
    assert char_root_counts(fib, Fraction(-1), Fraction(0)) == (1, 1)
    assert char_root_counts(fib, Fraction(2), Fraction(3)) == (0, 0)


def test_perron_root_bracket_contains_largest_root():
    """det(xI - m) has no root above hi and one in [lo, hi], on primitive,
    imprimitive and reducible matrices; only a reducible one has u_i = 0."""
    rng = rng_for("pf-perron")
    cases = [wielandt_matrix(n) for n in range(2, 8)]
    # Reducible, with the double root 2 exactly at lo.
    cases.append(IntMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]]))
    cases += [
        cyclic_class_matrix(rng, n, period)
        for period in (2, 3) for n in range(period, 8) for _ in range(3)
    ]
    cases += [
        random_matrix(rng, rng.randint(1, 7), density=rng.uniform(0.2, 0.8))
        for _ in range(300)
    ]
    kinds = Counter()
    for m in cases:
        if not is_irreducible(m):
            kind = "reducible"
        else:
            kind = "imprimitive" if primitivity_exponent(m) is None else "primitive"
        try:
            lo, hi = perron_root_bracket(m)
        except NotIrreducibleError:
            assert kind == "reducible", m
            kinds["vanishing"] += 1
            continue
        in_bracket, above = char_root_counts(m, lo, hi)
        assert lo <= hi and in_bracket >= 1 and above == 0, m
        kinds[kind] += 1
    for kind in ("primitive", "imprimitive", "reducible", "vanishing"):
        assert kinds[kind] >= 10, kinds


def test_perron_root_bracket_rejects():
    for entries in ([[0]], [[1, 1], [0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]]):
        with pytest.raises(NotIrreducibleError):
            perron_root_bracket(IntMatrix(entries))
    with pytest.raises(ValueError, match="square"):
        perron_root_bracket(IntMatrix([[1, 2]]))
