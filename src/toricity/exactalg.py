"""Exact linear algebra over the rationals and integers.

Dense matrices with arbitrary-precision entries, integer echelon forms,
circuit-vector kernel bases, integer kernel lattices via Hermite normal
form, and deterministic seeded sampling of kernel vectors.  Everything is
exact: no floating point, no tolerances.

``RationalMatrix`` and ``IntegerMatrix`` share one body: storage, access,
transpose and elimination.  They differ only in how an entry is converted
and how a row becomes integers.  The arithmetic is fraction-free: a
matrix scales its rows to integers once and keeps them with their echelon
form, Gauss-Jordan keeps every row primitive, and determinants use
Bareiss elimination.  The kernels accept either class, so an integer
matrix never passes through ``Fraction``s on its way in.  A kernel vector
is an integer vector: the circuits are primitive integer vectors, and a
random combination of them is an integer numerator over one common
denominator.  A ``Fraction`` is formed only where a rational result is
read, such as a random kernel vector; a row basis or left kernel keeps its
integer echelon rows and builds its ``Fraction`` entries on their first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index


class TrivialKernelError(ValueError):
    """Raised when a kernel vector is requested from a matrix with kernel {0}."""


class InternalInconsistencyError(RuntimeError):
    """An exact result contradicts its own defining property: a bug upstream,
    never a property of the input."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class _Matrix:
    """Immutable dense matrix, stored row-major; the body both matrix
    classes share.  A subclass names its entry conversion ``_convert`` and
    how its rows become integer rows, ``_ints``.  What a matrix derives (its
    integer rows, its echelon form, its row basis and left kernel) is a
    ``cached_property``: built on first read and kept."""

    def __init__(self, entries, cols: int | None = None):
        """``cols`` gives the width of a matrix with no rows, and is checked
        against the rows otherwise."""
        rows = tuple(tuple(map(self._convert, row)) for row in entries)
        width = len(rows[0]) if rows else cols or 0
        if any(len(r) != width for r in rows) or cols not in (None, width):
            raise ValueError("ragged rows in matrix")
        self.rows = len(rows)
        self.cols = width
        self._e = rows

    @classmethod
    def _of(cls, rows, cols: int):
        """Wrap rows the library built itself: a sequence of tuples, each of
        ``cols`` entries already of this class's kind, such as the ints of
        its own integer arithmetic.  Nothing is converted or checked; input
        from outside goes through the constructor."""
        m = cls.__new__(cls)
        m._e, m.rows, m.cols = tuple(rows), len(rows), cols
        return m

    @cached_property
    def _e(self) -> tuple[tuple, ...]:
        """The entries of a matrix made from its echelon form
        (``_reduced_matrix``), built on their first read: the RREF rows are
        its integer echelon rows divided by their pivots.  A matrix made from
        its entries sets ``_e`` itself, which shadows this."""
        return _divide_by_pivots(*self._echelon)

    def entry(self, i: int, j: int):
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return self._e[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self._e)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self._e]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self):
        return self._of([self.col(j) for j in range(self.cols)], self.rows)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._e == other._e and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self._e, self.cols))

    def integer_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row as integers a and the least d > 0 with row = a / d, kept."""
        return self._ints

    @cached_property
    def _echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        rows, pivots = _integer_rref([a for a, _ in self.integer_rows()], self.cols)
        return tuple(map(tuple, rows)), tuple(pivots)

    def integer_echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``_integer_rref`` of the integer rows, kept: nonzero rows and pivots."""
        return self._echelon

    def rank(self) -> int:
        return len(self.integer_echelon()[1])

    def row_basis(self) -> "RationalMatrix":
        """Nonzero rows of the RREF: a canonical basis of the row space, from
        the elimination ``left_kernel_basis`` reads too."""
        return self._split[0]

    @cached_property
    def _split(self) -> tuple["RationalMatrix", "RationalMatrix"]:
        """The nonzero rows of RREF(self) and the RREF basis of its left
        kernel, with their integer rows and echelon forms, from one
        fraction-free pass over [self | I] (row i scaled by its least
        denominator).  The rows pivoting in the left block are the nonzero
        rows of RREF(self); the rest have a zero left block, so their right
        blocks v satisfy v self = 0, are rows - rank many, and are in RREF."""
        m, n = self.cols, self.rows
        aug = [list(ints) + [d if k == i else 0 for k in range(n)]
               for i, (ints, d) in enumerate(self.integer_rows())]
        rows, pivots = _integer_rref(aug, m + n)
        r = sum(1 for p in pivots if p < m)
        return (_reduced_matrix([row[:m] for row in rows[:r]], pivots[:r], m),
                _reduced_matrix([row[m:] for row in rows[r:]], [p - m for p in pivots[r:]], n))


def _reduced_matrix(rows, pivots, cols: int) -> "RationalMatrix":
    """The RREF matrix of echelon rows, kept as the integer rows and echelon
    form it would build: each row primitive with a positive pivot p, which
    is its least denominator and which ``_integer_rref`` leaves as it is.
    Its ``Fraction`` entries are built only when something reads them."""
    ints = [_primitive(row) for row in rows]
    ints = tuple(tuple(x if row[p] > 0 else -x for x in row) for row, p in zip(ints, pivots))
    red = RationalMatrix.__new__(RationalMatrix)
    red.rows, red.cols = len(ints), cols
    red._ints = tuple((row, row[p]) for row, p in zip(ints, pivots))
    red._echelon = ints, tuple(pivots)
    return red


class RationalMatrix(_Matrix):
    """Immutable dense matrix over Q, stored as Fractions."""

    _convert = staticmethod(_frac)

    @cached_property
    def _ints(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple((tuple(a), d) for a, d in map(_integer_scaling, self._e))

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in r] for r in self._e]})"


class IntegerMatrix(_Matrix):
    """Immutable dense matrix over Z.  Entries must be integers: a
    ``Fraction``, float or string is refused, not truncated."""

    _convert = staticmethod(index)

    @cached_property
    def _ints(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple((row, 1) for row in self._e)

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.to_lists()})"


@dataclass(frozen=True)
class CircuitBasis:
    """Kernel basis made of fundamental circuit vectors.

    ``vectors[k]`` is a primitive integer kernel vector whose support
    ``supports[k]`` is minimal among supports of nonzero kernel vectors,
    one vector per non-pivot column of the echelon form.  That column is
    ``max(supports[k])``, and the vector's entry there is positive: the
    least denominator of the circuit vector with 1 in that column, which
    is ``vectors[k]`` divided by it.
    """

    vectors: tuple[tuple[int, ...], ...]
    supports: tuple[frozenset[int], ...]
    ambient_dim: int

    def __len__(self) -> int:
        return len(self.vectors)

    def support_union(self) -> frozenset[int]:
        return frozenset().union(*self.supports)

    def combine(self, coeffs) -> tuple[tuple[int, ...], int]:
        """sum_k coeffs[k] vectors[k] / d_k, with d_k the entry of vectors[k]
        in its non-pivot column, as integers w over the lcm d of the d_k:
        the combination is w / d."""
        dens = [v[max(s)] for v, s in zip(self.vectors, self.supports)]
        den = lcm(*dens)
        weighted = [(c * (den // d), v) for c, v, d in zip(coeffs, self.vectors, dens) if c]
        return tuple(sum(f * v[i] for f, v in weighted) for i in range(self.ambient_dim)), den


def kernel_circuit_basis(m: RationalMatrix | IntegerMatrix) -> CircuitBasis:
    """Fundamental-circuit basis of ker(m), read off m's kept integer
    echelon form.

    Non-pivot column j yields the vector with 1 in position j and
    -row[j] / row[p] in the pivot column p of each echelon row, the negated
    RREF entry, scaled by the least common denominator d of those entries:
    d in position j and -row[j] d / row[p] at p, all integers.  Its support
    is a circuit of the column matroid.
    """
    rows, pivots = m.integer_echelon()
    vectors = []
    supports = []
    for j in (j for j in range(m.cols) if j not in pivots):
        hits = [(row[j], row[p], p) for row, p in zip(rows, pivots) if row[j]]
        d = lcm(*(b // gcd(a, b) for a, b, _ in hits))
        v = [0] * m.cols
        v[j] = d
        for a, b, p in hits:
            v[p] = -a * d // b
        vectors.append(tuple(v))
        supports.append(frozenset(k for k, x in enumerate(v) if x))
    return CircuitBasis(tuple(vectors), tuple(supports), m.cols)


def left_kernel_basis(m: RationalMatrix | IntegerMatrix) -> RationalMatrix:
    """RREF-normalized basis (as rows) of {v : v m = 0}.  It comes from the
    one elimination of [m | I] that also gives ``m.row_basis()``, kept on m,
    so a stoichiometric matrix is eliminated once for both."""
    return m._split[1]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row


def _integer_scaling(vec) -> tuple[list[int], int]:
    """Integers a and the least d > 0 with vec = a / d, for ints and Fractions."""
    ratios = [x.as_integer_ratio() for x in vec]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


_ZERO = Fraction(0)


def _divide_by_pivots(rows, pivots) -> tuple[tuple[Fraction, ...], ...]:
    """RREF rows, from echelon rows such as those of ``_integer_rref``."""
    return tuple(tuple(Fraction(x, row[p]) if x else _ZERO for x in row)
                 for row, p in zip(rows, pivots))


def _integer_rref(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns the nonzero rows of the echelon form and their pivot columns.
    Row i is a nonzero multiple of row i of the RREF, kept primitive: a
    row is combined with the pivot row as pv * row - f * pivot_row and
    then divided by the gcd of its entries.
    """
    m = [_primitive(list(r)) for r in rows]
    nr = len(m)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nr):
            f = m[i][c]
            if f and i != r:
                m[i] = _primitive([pv * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
    return m[: len(pivots)], pivots


def int_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every intermediate entry is a minor, so division is exact."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if a[r][i] != 0), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[k - 1][k - 1]


def _bezout_echelon(h: list[list[int]], ncols: int) -> list[int]:
    """Bring the integer rows ``h``, in place, to echelon form on their first
    ``ncols`` columns by unimodular row operations, and return the pivot
    columns, lowest first: row i < len(pivots) has its first nonzero entry
    at pivots[i], and the rows below vanish on the first ``ncols`` columns.

    An entry b below a pivot a is cleared in one step: a multiple of the
    pivot row when a divides b, else the unimodular 2 x 2 step
    (x, y; -b/g, a/g) with x a + y b = g = gcd(a, b), leaving g as pivot.
    No entry above a pivot is touched, and a pivot keeps its sign.
    """
    nr = len(h)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        i0 = next((i for i in range(r, nr) if h[i][c]), None)
        if i0 is None:
            continue
        h[r], h[i0] = h[i0], h[r]
        prow = h[r]
        for i in range(r + 1, nr):
            row, a, b = h[i], prow[c], h[i][c]
            if not b:
                continue
            if b % a == 0:
                q = b // a
                h[i] = [u - q * v for u, v in zip(row, prow)]
            else:
                g = gcd(a, b)
                a, b = a // g, b // g
                x = pow(a, -1, abs(b))  # Bezout: x a + y b = 1
                y = (1 - x * a) // b
                prow, h[i] = ([x * v + y * u for u, v in zip(row, prow)],
                              [a * u - b * v for u, v in zip(row, prow)])
        h[r] = prow
        pivots.append(c)
    return pivots


def hermite_normal_form(m: IntegerMatrix) -> IntegerMatrix:
    """Row-style Hermite normal form; zero rows dropped.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    the row lattice is preserved.  Pivot columns are chosen lowest-first.
    ``_bezout_echelon`` brings the rows to echelon form; then each pivot row
    in turn is made positive and reduces the rows above it.
    """
    h = [list(r) for r in m._e]
    pivots = _bezout_echelon(h, m.cols)
    for r, c in enumerate(pivots):
        prow = h[r]
        if prow[c] < 0:
            prow = h[r] = [-x for x in prow]
        for i in range(r):
            q = h[i][c] // prow[c]
            if q:
                h[i] = [u - q * v for u, v in zip(h[i], prow)]
    return IntegerMatrix._of([tuple(row) for row in h[:len(pivots)]], m.cols)


def integer_kernel_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Rows form a basis of {v in Z^rows(m) : v m = 0}, i.e. of ker(m^T), in
    Hermite normal form.

    ``_bezout_echelon`` brings [m | I] to echelon form on the m block by
    unimodular steps tracked in the identity block; the rows whose m-part
    vanished carry a lattice basis of the integer kernel in their identity
    block, and the Hermite normal form of that block alone is the answer
    (Cohen 1993, section 2.4).  It equals the kernel block of the Hermite
    form of [m | I], since that form is canonical and reducing above the m
    block's pivots touches only rows discarded here.
    """
    nr, nc = m.rows, m.cols
    h = [list(row) + [1 if k == i else 0 for k in range(nr)] for i, row in enumerate(m._e)]
    r = len(_bezout_echelon(h, nc))
    return hermite_normal_form(IntegerMatrix._of([tuple(row[nc:]) for row in h[r:]], nr))


def random_rng(seed: int) -> random.Random:
    """The deterministic generator used everywhere randomness is needed."""
    return random.Random(seed & 0xFFFFFFFFFFFFFFFF)


RANDOM_NUMERATOR_BOUND = 1 << 16


def random_kernel_vector(m: RationalMatrix, seed: int) -> RationalMatrix:
    """Deterministic random element of ker(m), returned as a column."""
    w, den = random_combination(kernel_circuit_basis(m), seed)
    return RationalMatrix([[Fraction(x, den)] for x in w])


def random_combination(basis: CircuitBasis, seed: int) -> tuple[tuple[int, ...], int]:
    """Deterministic random nonzero element of the span of a kernel basis,
    as integers w over a denominator d > 0 (``CircuitBasis.combine``).

    Integer coefficients uniform in [-2^16, 2^16] weigh the circuit vectors,
    each with 1 in its non-pivot column, so the residual is exactly zero.
    """
    if len(basis) == 0:
        raise TrivialKernelError("kernel is trivial")
    rng, bound = random_rng(seed), RANDOM_NUMERATOR_BOUND
    while True:
        w, den = basis.combine([rng.randint(-bound, bound) for _ in basis.vectors])
        if any(w):
            return w, den
