"""Exact nonnegative integer matrices and Perron-Frobenius structure.

Every zero-pattern question (irreducibility, shortest cycles, cover times,
positivity of powers) runs on the boolean support digraph, which an
`IntMatrix` builds once, while it validates its entries, and keeps as
`support`, one int bitmask per row, and answers each question from those
rows alone.  Shortest cycles read the breadth-first walk of `_digraph`,
cover times grow the covered set row by row, and powers of the support are
taken by repeated squaring, only as far as the answer needs.  Only block
products and the Perron root bracket use integer entries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._digraph import components, image, layers
from .surfaces import SurfaceSig, branch_bound, real_branch_bound

__all__ = [
    "IntMatrix",
    "BlockTransition",
    "NotIrreducibleError",
    "BlockStructureError",
    "NotBHStructureError",
    "is_irreducible",
    "min_positive_diagonal_power",
    "primitivity_exponent",
    "wielandt_bound",
    "product_lower_right",
    "cover_time",
    "full_spread_power",
    "perron_root_bracket",
]


class NotIrreducibleError(ValueError):
    """Support digraph is not strongly connected."""


class BlockStructureError(ValueError):
    """Declared block structure is violated."""


class NotBHStructureError(ValueError):
    """Transition data does not behave like a real/infinitesimal splitting."""


class IntMatrix:
    """Immutable nonnegative integer matrix, row-major.  `support` holds the
    row bitmasks of its support digraph: bit j of row i is set iff entry
    (i, j) is positive."""

    __slots__ = ("rows", "cols", "entries", "support")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(map(int, row)) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        support = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            if min(row) < 0:
                raise ValueError(f"negative entry {next(x for x in row if x < 0)}")
            support.append(sum(1 << j for j, x in enumerate(row) if x))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "support", tuple(support))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        bt = tuple(zip(*other.entries))
        return IntMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.entries
            ]
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )


def _bool_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [image(b, row) for row in a]


def _bool_pow(adj: Sequence[int], k: int) -> list[int]:
    """Support of m^k from the support of m, by binary exponentiation."""
    result = [1 << i for i in range(len(adj))]
    while k:
        if k & 1:
            result = _bool_mul(result, adj)
        k >>= 1
        if k:
            adj = _bool_mul(adj, adj)
    return result


def _require_square(m: IntMatrix) -> None:
    if not m.is_square:
        raise ValueError(f"square matrix required, got {m.rows}x{m.cols}")


def is_irreducible(m: IntMatrix) -> bool:
    """Strong connectivity of the support digraph: an edge and one component.

    The 1x1 zero matrix is not irreducible (no power has a positive entry);
    a 1x1 positive matrix is.
    """
    _require_square(m)
    return any(m.support) and len(set(components(m.support))) == 1


def min_positive_diagonal_power(m: IntMatrix) -> int:
    """Smallest q >= 1 such that m^q has a positive diagonal entry.

    For an irreducible matrix this is the girth of the support digraph,
    so q <= dim always holds.
    """
    if not is_irreducible(m):
        raise NotIrreducibleError("min_positive_diagonal_power needs an irreducible matrix")
    return _girth(m.support)


def _girth(adj: Sequence[int]) -> int:
    """Length of the shortest directed cycle of a strongly connected support
    digraph (at most n): the least d with some node i in the layer d - 1
    edges beyond its own successors."""
    best = len(adj)
    for i, row in enumerate(adj):
        for dist, layer in zip(range(1, best), layers(adj, row)):
            if layer >> i & 1:
                best = dist
                break
    return best


def wielandt_bound(dim: int) -> int:
    """Largest possible primitivity exponent at the given dimension."""
    return dim * dim - 2 * dim + 2


def primitivity_exponent(m: IntMatrix) -> int | None:
    """Smallest s with m^s entrywise positive, or None when no power is.

    A positive power makes the support strongly connected and primitive, so
    the least one is at most the sharp Wielandt bound W = dim^2 - 2 dim + 2;
    it also rules out zero rows, so every later power is positive too.  The
    support is therefore squared until the first all-ones square m^(2^J),
    which bounds s by 2^J; if none comes by the square whose exponent reaches
    W, no power is positive.  A binary descent over the squares below m^(2^J)
    then finds the largest s' with m^s' not all-ones, and s = s' + 1: at
    most 2J - 1 boolean products in all.
    """
    _require_square(m)
    n = m.rows
    full = (1 << n) - 1
    last = (wielandt_bound(n) - 1).bit_length()  # 2^last >= W
    squares = [m.support]  # squares[j] is the support of m^(2^j)
    while any(row != full for row in squares[-1]):
        if len(squares) > last:
            return None
        squares.append(_bool_mul(squares[-1], squares[-1]))
    squares.pop()
    below, power = 0, None  # power is the support of m^below, None for m^0
    for j in reversed(range(len(squares))):
        step = squares[j] if power is None else _bool_mul(power, squares[j])
        if any(row != full for row in step):
            below, power = below + (1 << j), step
    return below + 1


def product_lower_right(matrices: Sequence[IntMatrix], block: int) -> IntMatrix:
    """Product of the lower-right `block` x `block` corners of a sequence of
    block-upper-triangular matrices (zero lower-left block), equal to the
    lower-right corner of the full product.
    """
    if not matrices:
        raise ValueError("empty matrix sequence")
    dim = matrices[0].rows
    if not 0 < block <= dim:
        raise ValueError(f"block size {block} out of range for dimension {dim}")
    for m in matrices:
        _require_square(m)
        if m.rows != dim:
            raise ValueError("matrices in the sequence have mixed dimensions")
        for i in range(dim - block, dim):
            for j in range(dim - block):
                if m.entries[i][j]:
                    raise BlockStructureError(
                        f"nonzero lower-left entry at ({i},{j})"
                    )
    idx = range(dim - block, dim)
    result = matrices[0].submatrix(idx, idx)
    for m in matrices[1:]:
        result = result @ m.submatrix(idx, idx)
    return result


class BlockTransition:
    """Square transition matrix with a distinguished set of real branches.

    Images of branches outside `real_set` never cross a real branch, so
    rows indexed by `real_set` vanish on the complementary columns and the
    restriction to the real indices is a genuine block of every power.
    `q` is the least power of that block with a positive diagonal entry.
    Immutable.
    """

    __slots__ = ("matrix", "real_set", "surface", "real_indices", "q")

    def __init__(self, matrix: IntMatrix, real_set: Iterable[int], surface: SurfaceSig):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "real_set", real_set)
        object.__setattr__(self, "surface", surface)
        # Looked up on the instance, so that a wrapper set on the class (as
        # perfbench's tracer sets one) sees every validation.
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError("BlockTransition is immutable")

    def __post_init__(self) -> None:
        """Validate the fields and derive `real_indices` and `q`."""
        m = self.matrix
        _require_square(m)
        n = m.rows
        real = frozenset(int(i) for i in self.real_set)
        object.__setattr__(self, "real_set", real)
        if not real:
            raise BlockStructureError("real branch set is empty")
        if any(i < 0 or i >= n for i in real):
            raise BlockStructureError(f"real index out of range 0..{n - 1}")
        object.__setattr__(self, "real_indices", tuple(sorted(real)))
        outside = ((1 << n) - 1) & ~sum(1 << i for i in real)
        for i in real:
            crossed = m.support[i] & outside
            if crossed:
                j = (crossed & -crossed).bit_length() - 1
                raise BlockStructureError(
                    f"image of non-real branch {j} crosses real branch {i}"
                )
        restriction = self.restriction()
        if not is_irreducible(restriction):
            raise NotIrreducibleError("real-branch block is not irreducible")
        object.__setattr__(self, "q", _girth(restriction.support))
        if self.surface.chi >= 0:
            raise BlockStructureError(f"surface must have chi < 0: {self.surface}")
        r, real_bound = len(real), real_branch_bound(self.surface)
        if r > real_bound:
            raise BlockStructureError(f"{r} real branches exceeds 3|chi|-3 = {real_bound}")
        total_bound = branch_bound(self.surface)
        if n > total_bound:
            raise BlockStructureError(f"{n} branches exceeds 9|chi|-3n = {total_bound}")

    @property
    def r(self) -> int:
        return len(self.real_set)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def restriction(self) -> IntMatrix:
        return self.matrix.submatrix(self.real_indices, self.real_indices)


def cover_time(bt: BlockTransition) -> int:
    """Smallest j >= 0 such that every branch carries the j-th image of some
    real branch; 0 exactly when every branch is real.

    The covered set grows out from the real set, one layer per step, read
    off the support rows: branch b joins at depth d+1 when its row has a
    positive entry in a column that joined at depth d.  Only the rows of
    branches not yet covered are read again.
    """
    support = bt.matrix.support
    layer = sum(1 << i for i in bt.real_set)
    rest = [b for b in range(bt.dim) if not layer >> b & 1]
    depth = 0
    while rest:
        layer = sum(1 << b for b in rest if support[b] & layer)
        if not layer:
            raise NotBHStructureError(
                "not a BH transition structure: branches never covered by "
                f"images of the real set: {rest}"
            )
        rest = [b for b in rest if not layer >> b & 1]
        depth += 1
    return depth


def full_spread_power(bt: BlockTransition) -> int:
    """Iterate count k = 2*r*q + i after which the image of every real branch
    crosses every branch of the track.

    q is the shortest-cycle power of the real block, i its cover time. The
    postcondition is verified on the support of M^k, which has the zero
    pattern of the integer power; failure (possible only for data no folding
    sequence could produce, e.g. an imprimitive real block) raises
    NotBHStructureError.
    """
    k = 2 * bt.r * bt.q + cover_time(bt)
    power = _bool_pow(bt.matrix.support, k)
    for b in range(bt.dim):
        for beta in bt.real_indices:
            if not (power[b] >> beta) & 1:
                raise NotBHStructureError(
                    f"not a BH transition structure: (M^{k})[{b}][{beta}] = 0, "
                    "iterated real images do not spread over the track"
                )
    return k


# Power-iteration steps behind the Perron root bracket; at 200 the Fibonacci
# bracket is 3.0e-84 wide.
_PERRON_STEPS = 200


def perron_root_bracket(m: IntMatrix) -> tuple[Fraction, Fraction]:
    """Exact Collatz-Wielandt bracket lo <= rho(m) <= hi on the Perron root.

    The power iterate u = m^200 1 is computed in exact integers, and lo and
    hi are the least and greatest ratio (m u)_i / u_i.  The certificate
    lo u <= m u <= hi u holds for every nonnegative matrix with u > 0 and
    re-checks in one mat-vec; for a primitive matrix the bracket narrows
    geometrically in the number of steps.  Some u_i = 0 means row i of
    m^200 vanishes, which only a reducible matrix allows.
    """
    # Imported here: no CLI path calls this, so `pf` never loads Fraction.
    from fractions import Fraction

    _require_square(m)

    def step(u: list[int]) -> list[int]:
        return [sum(a * x for a, x in zip(row, u)) for row in m.entries]

    u = [1] * m.rows
    for _ in range(_PERRON_STEPS):
        u = step(u)
    if not all(u):
        raise NotIrreducibleError(f"row {u.index(0)} of m^{_PERRON_STEPS} vanishes")
    ratios = [Fraction(y, x) for x, y in zip(u, step(u))]
    return min(ratios), max(ratios)
