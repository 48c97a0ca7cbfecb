"""Transition-matrix analysis: irreducibility, primitivity, spread times.

Run as:  python3 demos/transition_matrix_tour.py
"""

from curvebounds import (
    BlockTransition,
    IntMatrix,
    SurfaceSig,
    cover_time,
    full_spread_power,
    is_irreducible,
    lower_bound_from_spread_time,
    min_positive_diagonal_power,
    perron_root_bracket,
    primitivity_exponent,
    wielandt_bound,
)

fib = IntMatrix([[1, 1], [1, 0]])
print("M =", fib)
print("  irreducible:", is_irreducible(fib))
print("  least power with positive diagonal entry q =", min_positive_diagonal_power(fib))
print("  primitivity exponent:", primitivity_exponent(fib))
lo, hi = perron_root_bracket(fib)
print(f"  Perron root in [lo, hi] ~ [{float(lo):.12f}, {float(hi):.12f}]"
      f" (exact Fractions, width {float(hi - lo):.1e})")
print()

swap = IntMatrix([[0, 1], [1, 0]])
print("M =", swap, "(a plain 2-cycle)")
print("  irreducible:", is_irreducible(swap))
print("  primitivity exponent:", primitivity_exponent(swap), "(no power is positive)")
print()

# The extremal dimension-3 example: a 3-cycle with one shortcut edge needs
# the full Wielandt bound 3^2 - 2*3 + 2 = 5 before every entry is positive.
extremal = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
print("M =", extremal)
print("  primitivity exponent:", primitivity_exponent(extremal))
print("  wielandt bound at dim 3:", wielandt_bound(3))
print()

# A transition matrix with one real branch (index 2) fed by a chain of two
# infinitesimal branches, on the closed genus-2 surface.
bt = BlockTransition(
    IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 1]]),
    frozenset({2}),
    SurfaceSig(2, 0),
)
print("block transition on genus 2, real set {2}")
print("  cover time i =", cover_time(bt))
k = full_spread_power(bt)
chi = bt.surface.chi
print(f"  verified spread power k = 2rq + i = {k}")
print(f"  bound for a lowest-stretch map: k < 162 chi^2 = {162 * chi * chi}")
print(f"  resulting length bound 1/(6|chi| + k) = {lower_bound_from_spread_time(bt.surface, k)}")
