"""Walk through the support trace that certifies curve-graph distance 2.

The genus-g system has 3g curves in three indexed families.  One iterate of
the map twists along the three index-1 curves and then rotates every index
down by one.  Tracking which curves the image of the starting curve can
meet, a step k where some curve is disjoint from both ends certifies
distance <= 2 and hence the exact upper bound 2/k.

Run as:  python3 demos/penner_walkthrough.py
"""

from curvebounds import k_star, trace

GENUS = 3

result = trace(GENUS)
curves = [f"{family}{i}" for family in "abc" for i in range(1, GENUS + 1)]
print(f"genus {GENUS}: curves {' '.join(curves)}")
print()

witnesses = dict(result.certificates)
for k, support in enumerate(result.supports[: 3 * GENUS + 1]):
    names = " ".join(map(str, sorted(support)))
    note = f"   witness {witnesses[k]}" if k in witnesses else ""
    print(f"S_{k:<2} = {{{names}}}{note}")

print()
print(f"best certified iterate: k = {result.best_k}, bound 2/k = {result.bound}")
print(f"closed-form guarantee:  k* = {k_star(GENUS)}")
print(f"supports saturate after {result.steps} iterates")
