"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own code paths so that agreement is
meaningful: planar hulls by angle sorting, areas by the shoelace formula,
determinants by Laplace expansion, and real-root counts by Descartes-style
interval bisection.  Stacked determinants use the column-subset Laplace
sweep that the package's basis-enumerating kernel replaced.  Mixed volumes
use the inclusion-exclusion over LP-pruned Minkowski sums that the
package's Cayley triangulation replaced; it shares only the package's
integer determinant.  ``oracle_mixed_volume`` is the package's mixed
volume before it took out segments: the mixed cells of one placing
triangulation, the package's own, of the whole Cayley configuration.
``oracle_start_simplex`` is the incremental elimination that chose the
start simplex of a placing triangulation before the package read the
pivot columns of one echelon form, and ``_hyperplane`` the cofactor
normal its facets had before they became circuits.
Minimal siphons use the sweep over all species
subsets that the package's closure branching replaced, and reachability in
the reaction graph uses Warshall's transitive closure in place of the
package's depth-first walks.  ``oracle_group_is_chain`` is the chain test
of an intermediate group that checked a path first and oriented it
afterwards, where the package walks once from the group's head.  Siphon
support is decided two ways, each with its own LP where the package
applies Stiemke's lemma: by one LP over the whole row space in place of
the package's rank test, and by the
``Fraction`` RREF of the permuted matrix that the package's fraction-free
echelon form replaced.  ``oracle_siphon_boundary_check`` is the boundary
check before its two certificates: every minimal siphon searched and tested
by elimination, with no row read first.  The scaling
lattice of a column partition comes from the integer kernel of M with one
indicator row per block, projected to its first n coordinates and put in
Hermite form, where the package takes the kernel of a difference matrix.
The two nondegeneracy tests take one ``det_symbolic`` per column subset of
a Jacobian summed over Fractions, where the package runs one shared sweep
over an integer pencil; the kernel vectors they try are combinations of the
``Fraction`` circuits of ``oracle_circuits``, with the package's seeded
draws, where the package combines its integer circuits over one common
denominator.

The exact kernels that the package runs in integer arithmetic keep their
``Fraction`` versions here: the reduced row echelon form, the circuit
kernel basis read off it (the package reads its circuits off the integer
echelon form), the two-phase simplex with Bland's rule and the double
description of a nonnegative kernel.  The other oracles use these, never
the package's own kernels.  ``solve`` gives a particular solution of
A x = b from the RREF of [A | b]; the coset-count oracle counts on the
line through that solution along the circuit of ker A, by squarefree
Descartes bisection, where the package counts on the line through the
slice point along the integer kernel of A, with a Sturm chain of the
polynomial itself.  ``oracle_sturm_count`` is the package's count with the
``Fraction`` Sturm chain (``sturm_chain``) that its primitive integer
pseudo-remainder chain replaced.
The row basis and the left kernel come from separate reductions of the
matrix and of its transpose, where the package takes both from one
elimination of [N | I], and the Hermite normal form from the repeated
smallest-entry Euclid loop that the package's extended-gcd steps replaced.

The small matrix helpers (``zeros``, ``identity``, ``diagonal``,
``is_zero``, ``to_rational``, ``mul_vector`` and ``matmul``) build and read
test matrices; the package has no use for them.

The multistationarity test expands det[B diag(al); L], n x n with B the
integer kernel of A from ``oracle_integer_kernel_basis``, where the
package expands the d x d det(A diag(be) L^T) of the same sign class.

The package keeps polynomials as read-only values.  Their ring arithmetic
lives here, in ``RingPolynomial``: the polynomial determinant oracles expand
by cofactors with it, and the tests spell their polynomials with it.
``evaluate`` gives a polynomial's value at a point.

``oracle_parse_network`` is the reaction-network parser the package had
before its one-pass token loop: it collects the statements first, tokenizes
each with repeated ``match`` calls, and parses complexes through closures
over a shared token index.
``stacked_det`` and ``polynomial_rows`` are not oracles: they convert a
top block of ``SparsePolynomial``s to the integer rows ``det_stacked``
takes and back, so the tests can state their matrices as polynomials.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm

from toricity import crn
from toricity.core import (
    _ALLPOS_MINOR_CAP,
    _NONDEG_MINOR_CAP,
    AllPositiveResult,
    EmptyLocusError,
    NondegeneracyResult,
)
from toricity.crn import MultistationarityResult, NetworkParseError, ReactionNetwork
from toricity.exactalg import RationalMatrix, int_det, random_rng
from toricity.polyhedra import _placing_triangulation
from toricity.polyring import (
    DeterminantSizeError,
    SignVerdict,
    SparsePolynomial,
    VariableMismatchError,
    det_stacked,
    det_symbolic,
    sign_classify,
)


# --- Exact kernels over Fractions --------------------------------------------


def _fractions(vec):
    return [x if isinstance(x, Fraction) else Fraction(x) for x in vec]


def oracle_rref(rows, nc: int):
    """Reduced row echelon form of the rows of an nc-column matrix by
    Gauss-Jordan elimination over Fractions: (rows, pivot columns), zero
    rows trailing."""
    rows = [_fractions(r) for r in rows]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def oracle_row_basis(rows, nc: int):
    """Nonzero rows of ``oracle_rref``."""
    red, pivots = oracle_rref(rows, nc)
    return red[: len(pivots)]


def oracle_circuits(rows, nc: int):
    """Fundamental-circuit basis of the kernel of an nc-column matrix, read
    off ``oracle_rref``: for each non-pivot column f the vector with 1 at f
    and the negated RREF entries of column f at the pivots.  Returns the
    vectors and their supports."""
    red, pivots = oracle_rref(rows, nc)
    vectors = []
    for f in (j for j in range(nc) if j not in pivots):
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        vectors.append(tuple(v))
    return tuple(vectors), tuple(frozenset(k for k, x in enumerate(v) if x) for v in vectors)


def oracle_left_kernel_basis(rows, nc: int):
    """RREF basis of {v : v m = 0}: the circuit vectors of the transpose,
    then reduced by ``oracle_rref`` again."""
    nr = len(rows)
    circuits = oracle_circuits([[row[j] for row in rows] for j in range(nc)], nr)[0]
    return oracle_row_basis(circuits, nr)


def solve(a, b) -> tuple[Fraction, ...] | None:
    """One solution of a x = b, for a matrix of either kind, from the
    ``oracle_rref`` of [a | b]: the free coordinates are 0.  None if the
    system is inconsistent."""
    red, pivots = oracle_rref([[*row, x] for row, x in zip(a.to_lists(), b)], a.cols + 1)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for i, p in enumerate(pivots):
        x[p] = red[i][a.cols]
    return tuple(x)


def oracle_hermite_normal_form(rows, nc: int):
    """Row-style Hermite normal form, zero rows dropped, by the repeated
    smallest-entry Euclid loop: each column is cleared by reducing every
    other entry modulo the smallest until one remains."""
    h = [list(r) for r in rows]
    nr = len(h)
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        while True:
            nz = [i for i in range(r, nr) if h[i][c] != 0]
            if not nz:
                break
            if len(nz) == 1:
                i0 = nz[0]
                h[r], h[i0] = h[i0], h[r]
                break
            i0 = min(nz, key=lambda i: abs(h[i][c]))
            for i in nz:
                if i == i0:
                    continue
                q = h[i][c] // h[i0][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
        r += 1
    return h[:r]


def oracle_integer_kernel_basis(rows, nc: int):
    """Basis of {v in Z^rows : v m = 0} in Hermite normal form, from
    ``oracle_hermite_normal_form`` of [m | I]."""
    nr = len(rows)
    aug = [list(row) + [1 if k == i else 0 for k in range(nr)] for i, row in enumerate(rows)]
    kernel = [row[nc:] for row in oracle_hermite_normal_form(aug, nc + nr) if not any(row[:nc])]
    return oracle_hermite_normal_form(kernel, nr)


def same_row_lattice(a, b) -> bool:
    """Whether two integer matrices generate the same row lattice over Z:
    equal ``oracle_hermite_normal_form``s."""
    return a.cols == b.cols and (oracle_hermite_normal_form(a.to_lists(), a.cols)
                                 == oracle_hermite_normal_form(b.to_lists(), b.cols))


def zeros(rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix([[0] * cols for _ in range(rows)], cols)


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def diagonal(values) -> RationalMatrix:
    n = len(values)
    return RationalMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)], n)


def is_zero(m) -> bool:
    return not any(x for row in m.to_lists() for x in row)


def to_rational(m) -> RationalMatrix:
    return RationalMatrix(m.to_lists(), m.cols)


def mul_vector(m, v) -> tuple:
    """The product m v, for a matrix of either kind and a vector of its width."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m.to_lists())


def matmul(a, b) -> RationalMatrix:
    """The product of two matrices, entry by entry over Fractions."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    return RationalMatrix([[sum(x * y for x, y in zip(row, b.col(j))) for j in range(b.cols)]
                           for row in a.to_lists()], b.cols)


def _oracle_pivot(tab, basis, pr, pc):
    pv = tab[pr][pc]
    tab[pr] = [x / pv for x in tab[pr]]
    for i in range(len(basis)):
        if i != pr and tab[i][pc] != 0:
            f = tab[i][pc]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[pr])]
    basis[pr] = pc


def _oracle_run_phase(tab, basis, obj, allowed) -> bool:
    """Bland's-rule pivots on the tableau rows until no column in
    ``allowed`` improves obj (True) or one improves it without bound."""
    m = len(basis)
    while True:
        y = [obj[basis[i]] for i in range(m)]
        entering = None
        for j in allowed:
            if j in basis:
                continue
            if obj[j] - sum(y[i] * tab[i][j] for i in range(m)) > 0:
                entering = j
                break
        if entering is None:
            return True
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return False
        _oracle_pivot(tab, basis, leaving, entering)


def oracle_feasible_start(a_rows, b):
    """Phase 1 of the tableau simplex over Fractions: maximize minus the
    sum of one artificial column per row, rows with a negative right-hand
    side negated, then drive the artificials out of the basis.  Returns
    (rows, rhs, basis): a_rows x = b in canonical form for the feasible
    basis phase 1 ends in, each row holding 1 in its basic column and 0 in
    the others, with the rows found redundant dropped; None when
    a_rows x = b has no solution x >= 0."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = [_fractions(row) for row in a_rows]
    rhs = _fractions(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    _oracle_run_phase(tab, basis, [Fraction(0)] * n + [Fraction(-1)] * m, range(n + m))
    if any(tab[i][-1] != 0 and basis[i] >= n for i in range(m)):
        return None
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j] != 0), None)
            if pc is not None:
                _oracle_pivot(tab, basis, i, pc)
    # a row still basic in an artificial is zero in every original column
    kept = [i for i in range(m) if basis[i] < n]
    return [tab[i][:n] for i in kept], [tab[i][-1] for i in kept], [basis[i] for i in kept]


def oracle_simplex_maximize(a_rows, b, c, basis=None):
    """Maximize c.x subject to a_rows x = b, x >= 0 over Fractions: a dense
    two-phase tableau simplex with Bland's rule.  Returns (status, value, x)
    with the statuses "optimal", "infeasible" and "unbounded".  With no
    ``basis`` phase 1 (``oracle_feasible_start``) finds one; a given one
    (the column basic in each row) is pivoted in, row i on column basis[i]
    in turn, and must give a nonnegative basic solution.  Phase 2 runs
    from that basis."""
    n = len(c)
    cost = _fractions(c)
    if basis is None:
        start = oracle_feasible_start(a_rows, b)
        if start is None:
            return "infeasible", None, None
        a_rows, b, basis = start
    tab = [_fractions(row) + [beta] for row, beta in zip(a_rows, _fractions(b))]
    basis = list(basis)
    for i, j in enumerate(basis):
        _oracle_pivot(tab, basis, i, j)
    assert all(row[-1] >= 0 for row in tab), "not a feasible basis"
    bounded = _oracle_run_phase(tab, basis, cost, range(n))
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        x[j] = tab[i][-1]
    if not bounded:
        return "unbounded", None, x
    return "optimal", sum(ci * xi for ci, xi in zip(cost, x)), x


def _oracle_primitive(vec) -> tuple[int, ...]:
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def oracle_extreme_rays(m):
    """Extreme rays of ker(m) in the nonnegative orthant, as the sorted tuple
    of primitive integer rays: the double description over Fractions with
    the combinatorial adjacency test."""
    n = m.cols
    rays = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]
    for c in m.to_lists():
        c = _fractions(c)
        vals = [sum(a * b for a, b in zip(c, r)) for r in rays]
        zsets = {r: frozenset(i for i in range(n) if r[i] == 0) for r in rays}
        new = [r for r, v in zip(rays, vals) if v == 0]
        for rp, vp in zip(rays, vals):
            if vp <= 0:
                continue
            for rn, vn in zip(rays, vals):
                if vn >= 0:
                    continue
                meet = zsets[rp] & zsets[rn]
                if any(meet <= zsets[o] for o in rays if o is not rp and o is not rn):
                    continue
                combo = [vp * bn - vn * bp for bp, bn in zip(rp, rn)]
                new.append(tuple(Fraction(x) for x in _oracle_primitive(combo)))
        rays = list({_oracle_primitive(r): None for r in new})
        rays = [tuple(Fraction(x) for x in r) for r in rays]
    return tuple(sorted(_oracle_primitive(r) for r in rays))


def oracle_hull2(points):
    """Planar convex hull by polar-angle sort around the centroid (exact)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    cx = Fraction(sum(p[0] for p in pts), len(pts))
    cy = Fraction(sum(p[1] for p in pts), len(pts))

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp_key(p):
        return (half(p), )

    # sort by angle via pairwise cross products within half-planes
    import functools

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        dp = (p[0] - cx) ** 2 + (p[1] - cy) ** 2
        dq = (q[0] - cx) ** 2 + (q[1] - cy) ** 2
        return -1 if dp < dq else (1 if dp > dq else 0)

    ordered = sorted(pts, key=functools.cmp_to_key(cmp))
    hull = []
    for p in ordered:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    # final sweep to remove a possibly collinear wrap
    changed = True
    while changed and len(hull) > 2:
        changed = False
        for i in range(len(hull)):
            o = hull[i - 1]
            a = hull[i]
            p = hull[(i + 1) % len(hull)]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                hull.pop(i)
                changed = True
                break
    return hull


def oracle_shoelace(points) -> Fraction:
    hull = oracle_hull2(points)
    if len(hull) < 3:
        return Fraction(0)
    s = 0
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        s += x1 * y2 - x2 * y1
    return Fraction(abs(s), 2)


def oracle_minkowski(a, b):
    return sorted({(p[0] + q[0], p[1] + q[1]) for p in a for q in b})


def oracle_det(rows):
    """Rational determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * Fraction(rows[0][j]) * oracle_det(minor)
    return total


# --- The polynomial ring ------------------------------------------------------


class RingPolynomial(SparsePolynomial):
    """A ``SparsePolynomial`` with ring arithmetic.  The right operand is a
    rational or any ``SparsePolynomial`` over the same variables, and every
    result is a ``RingPolynomial``."""

    __slots__ = ()

    @classmethod
    def of(cls, p) -> "RingPolynomial":
        return p if isinstance(p, cls) else cls(p.variables, p.terms)

    @classmethod
    def constant(cls, variables, value) -> "RingPolynomial":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, name) -> "RingPolynomial":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    def _operand(self, other) -> "RingPolynomial":
        if not isinstance(other, SparsePolynomial):
            return RingPolynomial.constant(self.variables, other)
        if other.variables != self.variables:
            raise VariableMismatchError(f"variables {self.variables} vs {other.variables}")
        return RingPolynomial.of(other)

    def __add__(self, other) -> "RingPolynomial":
        terms = dict(self.terms)
        for e, c in self._operand(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return RingPolynomial(self.variables, terms)

    def __neg__(self) -> "RingPolynomial":
        return self.scale(-1)

    def __sub__(self, other) -> "RingPolynomial":
        return self + -self._operand(other)

    def __mul__(self, other) -> "RingPolynomial":
        other, terms = self._operand(other), {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return RingPolynomial(self.variables, terms)

    def scale(self, scalar) -> "RingPolynomial":
        factor = Fraction(scalar)
        return RingPolynomial(self.variables, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "RingPolynomial":
        if n < 0:
            raise ValueError("negative power")
        acc = RingPolynomial.constant(self.variables, 1)
        for _ in range(n):
            acc = acc * self
        return acc

    def substitute(self, name: str, replacement) -> "RingPolynomial":
        """Replace a variable by a polynomial over the same variables."""
        replacement = self._operand(replacement)
        idx = self.variables.index(name)
        out = RingPolynomial(self.variables)
        for e, c in self.terms.items():
            rest = RingPolynomial(self.variables, {e[:idx] + (0,) + e[idx + 1:]: c})
            out = out + rest * replacement ** e[idx]
        return out


def evaluate(p: SparsePolynomial, values: dict) -> Fraction:
    """The value of ``p`` with each variable set to ``values[name]``."""
    vals = [Fraction(values[v]) for v in p.variables]
    total = Fraction(0)
    for e, c in p.terms.items():
        acc = c
        for base, k in zip(vals, e):
            if k:
                acc *= base ** k
        total += acc
    return total


def _oracle_poly_det(rows):
    """Polynomial determinant by cofactor expansion along the first row,
    using only the ring operations of ``RingPolynomial``."""
    if len(rows) == 1:
        return RingPolynomial.of(rows[0][0])
    total = RingPolynomial(rows[0][0].variables)
    for j, a in enumerate(rows[0]):
        if a.is_zero():
            continue
        term = RingPolynomial.of(a) * _oracle_poly_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def stacked_det(top, bottom):
    """``det_stacked`` of a top block of ``SparsePolynomial``s, as the
    package's callers hand it over: each row in integers over the least
    common denominator of its coefficients, each exponent vector as the
    tuple of its variable indices, an index repeated for a power."""
    rows, scales = [], []
    for row in top:
        scale = lcm(*(c.denominator for p in row for c in p.terms.values()))
        rows.append([{tuple(v for v, k in enumerate(e) for _ in range(k)): int(c * scale)
                      for e, c in p.terms.items()} for p in row])
        scales.append(scale)
    return det_stacked(rows, scales, top[0][0].variables, bottom)


def polynomial_rows(rows, scales, variables):
    """The top block ``det_stacked`` takes in integers, as rows of
    ``SparsePolynomial``s: the inverse of ``stacked_det``'s conversion."""
    out = []
    for row, scale in zip(rows, scales):
        polys = []
        for entry in row:
            terms = {}
            for mono, c in entry.items():
                e = tuple(mono.count(v) for v in range(len(variables)))
                terms[e] = terms.get(e, 0) + Fraction(c, scale)
            polys.append(RingPolynomial(variables, terms))
        out.append(polys)
    return out


def oracle_det_stacked(top, bottom):
    """Determinant of [top; bottom] (polynomial top rows, rational bottom
    rows) by the Laplace sweep over every column subset of the top block."""
    s, n = len(top), len(top[0])
    total = RingPolynomial(top[0][0].variables)
    for cols in combinations(range(n), s):
        comp = [j for j in range(n) if j not in cols]
        const = oracle_det([[row[j] for j in comp] for row in bottom])
        if const == 0:
            continue
        minor = _oracle_poly_det([[row[j] for j in cols] for row in top])
        sign = -1 if (sum(cols) - s * (s - 1) // 2) % 2 else 1
        total = total + minor.scale(sign * const)
    return total


# --- Multistationarity by the n x n stacked determinant -----------------------


def oracle_pack(rows, nvars: int):
    """``polyring._pack`` as it was: each row's degrees from ``mono.count``
    on every index of every distinct monomial."""
    bounds = [0] * nvars
    for row in rows:
        degree = {}
        for mono in {mono for entry in row for mono in entry}:
            for v in mono:
                degree[v] = max(degree.get(v, 0), mono.count(v))
        if degree and (min(degree) < 0 or max(degree) >= nvars):
            raise ValueError(f"a monomial names a variable outside 0..{nvars - 1}")
        for v, k in degree.items():
            bounds[v] += k
    fields, bits, shift = [], [], 0
    for b in bounds:
        fields.append((shift, (1 << b.bit_length()) - 1))
        bits.append(1 << shift)
        shift += b.bit_length()

    def pack(entry):
        acc = {}
        for mono, c in entry.items():
            key = sum(bits[v] for v in mono)
            acc[key] = acc.get(key, 0) + c
        return {k: c for k, c in acc.items() if c}
    return [[pack(entry) for entry in row] for row in rows], fields


def oracle_multistationarity_det(A, laws):
    """det[B diag(al); L] for B the integer kernel of A, from
    ``oracle_integer_kernel_basis`` of A^T, and L the conservation laws:
    the n x n determinant that the package's d x d one replaced."""
    kernel = oracle_integer_kernel_basis([list(A.col(j)) for j in range(A.cols)], A.rows)
    al = tuple(f"al{k+1}" for k in range(A.cols))
    top = [[{(k,): v} if v else {} for k, v in enumerate(row)] for row in kernel]
    return det_stacked(top, [1] * len(top), al, laws)


def oracle_multistationarity(sys_, inv, laws, toric: bool = False) -> MultistationarityResult:
    """The multistationarity test on ``oracle_multistationarity_det``, which
    ``det_stacked`` refuses unless the kernel of A and the laws together
    have n rows."""
    if laws.rows == 0:
        return MultistationarityResult("inconclusive", reason="no conservation laws")
    try:
        det = oracle_multistationarity_det(inv.A, laws)
    except DeterminantSizeError as exc:
        return MultistationarityResult("inconclusive", reason=str(exc))
    except ValueError:
        return MultistationarityResult("inconclusive", reason="matrix is not square "
                                       "(only the determinant criterion is implemented)")
    if sign_classify(det) in (SignVerdict.MIXED_SIGNS, SignVerdict.ZERO_POLYNOMIAL):
        return MultistationarityResult("multistationary")
    if toric:
        return MultistationarityResult("monostationary")
    return MultistationarityResult("inconclusive", reason="determinant sign-definite; "
                                   "monostationarity needs the toric verdict")


# --- Nondegeneracy by one determinant per minor -------------------------------


def oracle_scaled_jacobian(sys_, generators, lam):
    """Entries of C diag(w) M^T with w = sum_k lam_k generators[k], each
    coefficient summed over Fractions."""
    entries = []
    for i in range(sys_.s):
        row = []
        for k in range(sys_.n):
            terms = {}
            for idx, g in enumerate(generators):
                coeff = sum(sys_.C.entry(i, j) * g[j] * sys_.M.entry(k, j) for j in range(sys_.m))
                if coeff:
                    e = [0] * len(lam)
                    e[idx] = 1
                    terms[tuple(e)] = coeff
            row.append(RingPolynomial(lam, terms))
        entries.append(row)
    return entries


def oracle_combination(vectors, seed: int) -> tuple[Fraction, ...]:
    """A seeded random nonzero combination of the circuit vectors over
    Fractions: one coefficient in [-2^16, 2^16] per vector, drawn again
    while the sum is zero."""
    rng = random_rng(seed)
    while True:
        coeffs = [rng.randint(-(1 << 16), 1 << 16) for _ in vectors]
        w = tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(len(vectors[0])))
        if any(w):
            return w


def oracle_nondegeneracy(sys_, seed: int) -> NondegeneracyResult:
    """Eleven random combinations of ``oracle_circuits``, each Jacobian
    ranked by Gauss-Jordan over Fractions; then one ``det_symbolic`` per
    s x s minor, and a witness drawn from the first nonzero one."""
    vectors = oracle_circuits(sys_.C.to_lists(), sys_.m)[0]
    if not vectors:
        return NondegeneracyResult("no" if sys_.s > 0 else "yes")
    for attempt in range(11):
        vec = oracle_combination(vectors, seed + 7919 * attempt)
        jac = [[sum(sys_.C.entry(i, j) * vec[j] * sys_.M.entry(k, j) for j in range(sys_.m))
                for k in range(sys_.n)] for i in range(sys_.s)]
        if len(oracle_rref(jac, sys_.n)[1]) == sys_.s:
            return NondegeneracyResult("yes", vec)
    if comb(sys_.n, sys_.s) > _NONDEG_MINOR_CAP:
        return NondegeneracyResult("undetermined")
    lam = tuple(f"l{k+1}" for k in range(len(vectors)))
    top = oracle_scaled_jacobian(sys_, vectors, lam)
    for cols in combinations(range(sys_.n), sys_.s):
        try:
            minor = det_symbolic([[row[j] for j in cols] for row in top])
        except DeterminantSizeError:
            return NondegeneracyResult("undetermined")
        if minor.is_zero():
            continue
        rng = random_rng(seed ^ 0x5EED)
        for _ in range(64):
            point = {name: Fraction(rng.randint(-(1 << 16), 1 << 16)) for name in lam}
            if evaluate(minor, point) != 0:
                w = [sum(point[name] * g[j] for name, g in zip(lam, vectors))
                     for j in range(sys_.m)]
                return NondegeneracyResult("yes", tuple(w))
        return NondegeneracyResult("yes")
    return NondegeneracyResult("no")


def oracle_all_positive(sys_) -> AllPositiveResult:
    """The first sign-definite s x s minor of the Jacobian over the extreme
    rays, by one ``det_symbolic`` per column subset."""
    if sys_.positive_kernel.is_empty:
        raise EmptyLocusError("positive kernel is empty")
    if sys_.s == 0:
        return AllPositiveResult("yes")
    rays = sys_.rays.rays
    if not rays:
        raise EmptyLocusError("positive kernel is empty")
    if sys_.s > 12 or comb(sys_.n, sys_.s) > _ALLPOS_MINOR_CAP:
        return AllPositiveResult("unknown", reason="minor sweep too large")
    lam = tuple(f"l{k+1}" for k in range(len(rays)))
    top = oracle_scaled_jacobian(sys_, rays, lam)
    for cols in combinations(range(sys_.n), sys_.s):
        try:
            minor = det_symbolic([[row[j] for j in cols] for row in top])
        except DeterminantSizeError as exc:
            return AllPositiveResult("unknown", reason=str(exc))
        if sign_classify(minor) in (SignVerdict.ALL_POSITIVE, SignVerdict.ALL_NEGATIVE):
            return AllPositiveResult("yes", cols, minor)
    return AllPositiveResult("unknown", reason="no sign-definite minor")


# --- Mixed volume by inclusion-exclusion over Minkowski sums -----------------
# Vertices are found by one exact LP per point, facets by a search over all
# vertex k-subsets, volumes by a recursive triangulation of the facets.


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return len(oracle_rref([[p[i] - p0[i] for i in range(len(p0))] for p in points[1:]], len(p0))[1])


def _is_vertex(p, others) -> bool:
    # p is a vertex iff it is not a convex combination of the other points
    if not others:
        return True
    n = len(p)
    a_rows = [[q[i] for q in others] for i in range(n)]
    a_rows.append([1] * len(others))
    b = list(p) + [1]
    status, _, _ = oracle_simplex_maximize(a_rows, b, [0] * len(others))
    return status == "infeasible"


def _vertices(points):
    if len(points) <= len(points[0]) + 1:
        return list(points)
    pts = list(points)
    return [p for i, p in enumerate(pts) if _is_vertex(p, pts[:i] + pts[i + 1:])]


def _hyperplane(points_subset):
    """Primitive integer (normal, offset) through k points in R^k, or None."""
    k = len(points_subset[0])
    p0 = points_subset[0]
    diffs = [[p[i] - p0[i] for i in range(k)] for p in points_subset[1:]]
    normal = [(-1) ** i * int_det([[row[j] for j in range(k) if j != i] for row in diffs])
              for i in range(k)]
    if all(x == 0 for x in normal):
        return None
    g = 0
    for x in normal:
        g = gcd(g, abs(x))
    normal = [x // g for x in normal]
    return tuple(normal), sum(a * b for a, b in zip(normal, p0))



def oracle_start_simplex(points):
    """The start simplex of ``_placing_triangulation`` as the package chose
    it before it read pivot columns: the sorted points in turn, each kept
    when its difference to the first survives fraction-free reduction by
    the differences kept so far.  Returns the k + 1 points, or None."""
    pts = sorted(set(points))
    k = len(pts[0])
    start, echelon = [pts[0]], []
    for p in pts[1:]:
        if len(start) == k + 1:
            break
        v = [a - b for a, b in zip(p, pts[0])]
        for col, row in echelon:
            if v[col]:
                v = [row[col] * x - v[col] * y for x, y in zip(v, row)]
        col = next((c for c, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            start.append(p)
    return tuple(start) if len(start) == k + 1 else None

def _facets(verts):
    """All facets of a full-dimensional hull, by brute-force hyperplane search."""
    k = len(verts[0])
    facets = {}
    for subset in combinations(range(len(verts)), k):
        hp = _hyperplane([verts[i] for i in subset])
        if hp is None:
            continue
        normal, offset = hp
        values = [sum(a * b for a, b in zip(normal, p)) for p in verts]
        below, above = min(values) < offset, max(values) > offset
        if below and above:
            continue
        if below:  # orient outward
            normal, offset = tuple(-x for x in normal), -offset
        if (normal, offset) not in facets:
            facets[(normal, offset)] = [
                p for p in verts if sum(a * b for a, b in zip(normal, p)) == offset]
    return [(n, o, pts) for (n, o), pts in facets.items()]


def _hull_simplices(points):
    """Triangulation of a full-dimensional hull: planar fans of the angle-sorted
    hull in dimension 2, cones from the lowest vertex over the triangulated
    facets above that."""
    k = len(points[0])
    if k == 1:
        return [(min(points), max(points))]
    if k == 2:
        hull = oracle_hull2(points)
        return [(hull[0], hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    verts = _vertices(points)
    p0 = min(verts)
    simplices = []
    for normal, offset, fpts in _facets(verts):
        if sum(a * b for a, b in zip(normal, p0)) == offset:
            continue
        drop = next(i for i in range(k) if normal[i] != 0)
        proj = {tuple(p[:drop] + p[drop + 1:]): p for p in fpts}
        for sub in _hull_simplices(list(proj)):
            simplices.append(tuple(proj[q] for q in sub) + (p0,))
    return simplices


def oracle_polytope_volume(points) -> Fraction:
    """Euclidean volume of the convex hull of lattice points; 0 if lower-dimensional."""
    pts = sorted(set(map(tuple, points)))
    n = len(pts[0]) if pts else 0
    if n == 0 or _affine_rank(pts) < n:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _hull_simplices(pts):
        base = simplex[-1]
        rows = [[p[i] - base[i] for i in range(n)] for p in simplex[:-1]]
        total += Fraction(abs(oracle_det(rows)), factorial(n))
    return total


def oracle_minkowski_hull(a, b):
    """Vertices of conv(a + b), pruned by one exact LP per point of the sum."""
    pts = sorted({tuple(x + y for x, y in zip(p, q)) for p in a for q in b})
    return _vertices(pts)


def oracle_inclusion_exclusion_mixed_volume(supports) -> int:
    """n! times the mixed volume of n supports in Z^n, by inclusion-exclusion:
    the sum over nonempty subsets S of (-1)^(n-|S|) vol(sum of P_i, i in S)."""
    supports = [sorted(set(map(tuple, s))) for s in supports]
    n = len(supports)
    total = Fraction(0)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            acc = supports[subset[0]]
            for i in subset[1:]:
                acc = oracle_minkowski_hull(acc, supports[i])
            total += (-1) ** (n - size) * oracle_polytope_volume(acc)
    assert total.denominator == 1 and total >= 0, total
    return int(total)


def oracle_mixed_volume(supports) -> int:
    """n! times the mixed volume of n supports in Z^n from the mixed cells
    of one placing triangulation of their whole Cayley configuration, with
    no segment taken out first: the package's mixed volume before its
    segment reduction."""
    supports = [sorted(set(map(tuple, s))) for s in supports]
    n = len(supports)
    lifts = [tuple(int(j == i) for j in range(1, n)) for i in range(n)]
    cayley = [p + lift for pts, lift in zip(supports, lifts) for p in pts]
    total = 0
    for simplex in _placing_triangulation(cayley) or ():
        pairs = {}
        for q in simplex:
            pairs.setdefault(q[n:], []).append(q[:n])
        if all(len(pair) == 2 for pair in pairs.values()):
            total += abs(int_det([[a - b for a, b in zip(*pair)] for pair in pairs.values()]))
    return total


# --- Descartes-style interval bisection root counting (exact) ---------------


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b and any(c != 0 for c in b):
        a, b = b, _poly_mod(a, b)
    return a


def _poly_mod(a, b):
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and any(c != 0 for c in a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / b[-1]
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[i + shift] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _squarefree(coeffs):
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    g = _poly_gcd(coeffs, deriv)
    while g and g[-1] == 0:
        g.pop()
    if len(g) <= 1:
        return list(coeffs)
    q, r = _poly_divmod(coeffs, g)
    assert all(c == 0 for c in r)
    return q


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db = len(b) - 1
    while len(a) - 1 >= db and any(c != 0 for c in a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / b[-1]
        shift = len(a) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            a[i + shift] -= f * c
    return q, a


def _descartes_bound(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Upper bound on the number of roots in (lo, hi) by sign variations.

    In integers: with lo = a/d and hi = b/d over one denominator d and the
    coefficients' denominators cleared, x = (a + (b - a) z) / d turns the
    polynomial into a positive multiple of an integer one whose roots in
    (lo, hi) sit at z in (0, 1); z -> 1/z and a shift by 1 map those to
    (0, inf).  A positive factor changes no sign variation."""
    n = len(coeffs) - 1
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) * d ** (n - i) for i, c in enumerate(coeffs)]
    shifted = _taylor_shift(ints, a)              # p((a + u) / d): roots in (0, b - a)
    scaled = [c * (b - a) ** i for i, c in enumerate(shifted)]  # roots in (0, 1)
    mapped = _taylor_shift(scaled[::-1], 1)       # z -> 1/(1 + y): roots in (0, inf)
    signs = [c for c in mapped if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))


def _taylor_shift(coeffs, a: int):
    out = list(coeffs)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def oracle_roots_between(coeffs, lo=None, hi=None) -> int:
    """Distinct roots in the open interval (lo, hi), None for an infinite
    end, by squarefree Descartes bisection; an infinite end is replaced by
    the Cauchy bound on the roots, and a root at a finite end divided out."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return 0
    coeffs = _squarefree(coeffs)
    bound = Fraction(1) + max(abs(c) for c in coeffs) / abs(coeffs[-1])
    lo = -bound if lo is None else Fraction(lo)
    hi = bound if hi is None else Fraction(hi)
    if lo >= hi:
        return 0
    for end in (lo, hi):
        if len(coeffs) > 1 and _poly_eval(coeffs, end) == 0:
            coeffs, _ = _poly_divmod(coeffs, [-end, Fraction(1)])
    if len(coeffs) <= 1:
        return 0

    def count(lo, hi):
        b = _descartes_bound(coeffs, lo, hi)
        if b == 0:
            return 0
        flo = _poly_eval(coeffs, lo)
        fhi = _poly_eval(coeffs, hi)
        if b == 1 and flo != 0 and fhi != 0 and (flo > 0) != (fhi > 0):
            return 1
        mid = (lo + hi) / 2
        extra = 1 if _poly_eval(coeffs, mid) == 0 else 0
        return count(lo, mid) + extra + count(mid, hi)

    return count(lo, hi)


def oracle_positive_roots(coeffs) -> int:
    """Distinct roots in (0, inf)."""
    return oracle_roots_between(coeffs, 0)


# --- the Fraction Sturm chain that the package's integer chain replaced ------


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def sturm_chain(coeffs):
    """p, p' and each negated remainder after them, over Fractions, until a
    remainder is zero or a member is constant."""
    p0 = _trim(Fraction(c) for c in coeffs)
    p1 = _trim(i * c for i, c in enumerate(p0))[1:]
    chain = [p0]
    if p1:
        chain.append(p1)
    while len(chain[-1]) > 1:
        rem = _trim(_poly_divmod(chain[-2], chain[-1])[1])
        if not rem:
            break
        chain.append([-x for x in rem])
    return chain


def _sturm_sign(coeffs, point) -> int:
    if point == "+inf":
        value = coeffs[-1]
    elif point == "-inf":
        value = coeffs[-1] * (-1) ** (len(coeffs) - 1)
    else:
        value = _poly_eval(coeffs, point)
    return (value > 0) - (value < 0)


def oracle_sturm_count(coeffs, lower=None, upper=None) -> int:
    """``count_distinct_roots`` with its Sturm chain in Fractions: distinct
    roots in the open interval, None for an infinite end, a root at a
    finite end divided out first."""
    c = _trim(Fraction(x) for x in coeffs)
    if not c:
        raise ValueError("zero polynomial")
    if len(c) == 1 or (lower is not None and upper is not None
                       and Fraction(lower) >= Fraction(upper)):
        return 0
    for end in (lower, upper):
        while end is not None and len(c) > 1 and _poly_eval(c, Fraction(end)) == 0:
            c = _poly_divmod(c, [-Fraction(end), Fraction(1)])[0]
    if len(c) <= 1:
        return 0
    chain = sturm_chain(c)

    def variations(point):
        signs = [s for s in (_sturm_sign(p, point) for p in chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return (variations("-inf" if lower is None else Fraction(lower))
            - variations("+inf" if upper is None else Fraction(upper)))


def oracle_count_cosets(h) -> int | None:
    """Positive zeros of a one-equation coset counting system h, counted on
    the line x0 + t v: x0 a solution of A x = b from ``solve``, v the
    circuit vector of ker A with its denominators cleared (for n = 1, no
    slice: x0 = 0 and v = 1), the equation built from C, M and kappa with
    each variable's negative exponents cleared, expanded along the line by
    repeated products, and its roots on the stretch where x0 + t v > 0
    counted by ``oracle_roots_between``.  None if the equation vanishes on
    the line."""
    sys_ = h.base
    n, m = sys_.n, sys_.m
    if h.A.rows:
        x0 = solve(h.A, h.b)
        (circuit,), _ = oracle_circuits(h.A.to_lists(), n)
        den = lcm(*(x.denominator for x in circuit))
        v = [int(x * den) for x in circuit]
    else:
        x0, v = [Fraction(0)] * n, [1] * n
    if any(b == 0 and a <= 0 for a, b in zip(x0, v)):
        return 0
    lo = max((-a / b for a, b in zip(x0, v) if b > 0), default=None)
    hi = min((-a / b for a, b in zip(x0, v) if b < 0), default=None)
    exps = [sys_.M.col(j) for j in range(m)]
    shift = [max(0, *(-e[k] for e in exps)) for k in range(n)]
    line = [Fraction(0)]
    for j in range(m):
        term = [Fraction(sys_.C.entry(0, j)) * Fraction(h.kappa[j])]
        for k in range(n):
            for _ in range(exps[j][k] + shift[k]):
                term = _poly_mul(term, [x0[k], v[k]])
        line += [Fraction(0)] * (len(term) - len(line))
        for i, x in enumerate(term):
            line[i] += x
    if not any(line):
        return None
    return oracle_roots_between(line, lo, hi)


def oracle_minimal_siphons(net):
    """Minimal siphons by testing every species subset in order of size."""
    n = net.n
    masks = []
    for src, tgt, _ in net.reactions:
        src_mask = sum(1 << i for i in range(n) if net.complexes[src][i] > 0)
        tgt_mask = sum(1 << i for i in range(n) if net.complexes[tgt][i] > 0)
        masks.append((src_mask, tgt_mask))
    found = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            z = sum(1 << i for i in combo)
            if any((f & z) == f for f in found):
                continue
            if all((src & z) or not (tgt & z) for src, tgt in masks):
                found.append(z)
    return [frozenset(i for i in range(n) if z >> i & 1) for z in found]


def oracle_is_siphon(net, species) -> bool:
    """Every reaction producing a member of the species set consumes one."""
    return all(any(net.complexes[src][i] > 0 for i in species)
               or not any(net.complexes[tgt][i] > 0 for i in species)
               for src, tgt, _ in net.reactions)


def oracle_siphon_boundary_check(net, A=None, laws=None) -> str:
    """The package's boundary check before its certificates: the minimal
    siphons from ``crn.minimal_siphons``, each tested by
    ``crn._siphon_supported_in_rowspace`` on A's row space, or on the laws'
    when A is absent or empty."""
    mat = A if A is not None and A.rows else laws
    if mat is None or mat.rows == 0:
        return "unknown"
    try:
        siphons = crn.minimal_siphons(net)
    except crn.SearchBudgetExceededError:
        return crn._BudgetUnknown("unknown")
    for z in siphons:
        if not crn._siphon_supported_in_rowspace(mat, z):
            return "unknown"
    return "yes"


def oracle_closure(edges) -> dict:
    """Warshall's transitive closure of a digraph given as successor sets:
    each node maps to the nodes it reaches by a path of one or more edges."""
    reach = {a: set(bs) for a, bs in edges.items()}
    for k in edges:
        for a in edges:
            if k in reach[a]:
                reach[a] |= reach[k]
    return reach


def oracle_walk(start, edges, inside):
    """``crn._walk`` from the closure of the digraph restricted to inside:
    start with the inside nodes it reaches, and the outside successors of
    those."""
    reached = {start} | oracle_closure({a: edges[a] & inside for a in inside})[start]
    return reached, {b for a in reached for b in edges[a] if b not in inside}


def oracle_group_is_chain(group, inter_complexes, out_edges, in_edges) -> bool:
    """``crn._group_is_chain`` as the package had it before its one walk
    from the head: the group's undirected adjacency is checked to be a path
    first, walked from its least end, and oriented afterwards."""
    # interior adjacency must be a path
    adj = {g: ((out_edges[g] | in_edges[g]) & group) for g in group}
    ends = [g for g in group if len(adj[g]) <= 1]
    if len(group) == 1:
        order = list(group)
    else:
        if len(ends) != 2 or any(len(adj[g]) > 2 for g in group):
            return False
        order = [min(ends)]
        prev = None
        while len(order) < len(group):
            nxt = [g for g in adj[order[-1]] if g != prev]
            if len(nxt) != 1:
                return False
            prev = order[-1]
            order.append(nxt[0])
    # orient so the head receives the outside input
    heads = [g for g in order if any(c not in inter_complexes for c in in_edges[g])]
    if len(heads) != 1:
        return False
    if heads[0] == order[-1]:
        order.reverse()
    if heads[0] != order[0]:
        return False
    head, tail = order[0], order[-1]
    outside_in = [c for c in in_edges[head] if c not in inter_complexes]
    if len(outside_in) != 1:
        return False
    c_in = outside_in[0]
    # forward arrows along the chain must exist
    for a, b in zip(order, order[1:]):
        if b not in out_edges[a]:
            return False
    # outside out-edges: only from the head back to the input, or from the tail
    for g in order:
        for tgt in out_edges[g]:
            if tgt in inter_complexes:
                continue
            if g == tail:
                continue
            if g == head and tgt == c_in:
                continue
            return False
    tail_outs = [t for t in out_edges[tail] if t not in inter_complexes and t != c_in]
    return len(tail_outs) >= 1


def oracle_lattice(m_rows, n: int, blocks):
    """Scaling lattice of a column partition of the n x m exponent matrix:
    the integer kernel of M stacked on one indicator row per block (a.M_j
    plus the block's coordinate vanishes), its first n coordinates, in
    Hermite normal form."""
    m = len(m_rows[0]) if m_rows else 0
    rows = [list(r) for r in m_rows] + [[int(j in block) for j in range(m)] for block in blocks]
    kernel = oracle_integer_kernel_basis(rows, m)
    return oracle_hermite_normal_form([r[:n] for r in kernel], n)


def oracle_siphon_supported(mat, siphon) -> bool:
    """Nonzero v >= 0 in the row space of mat with support inside the siphon,
    from the ``Fraction`` RREF of mat with its columns ordered [outside |
    siphon]: the rows pivoting in the siphon block span the vectors that
    vanish outside it.  None: no v; one, with pivot entry 1: v is a
    positive multiple of it; more: an LP over their span."""
    inside = sorted(siphon)
    first = mat.cols - len(inside)
    order = [i for i in range(mat.cols) if i not in siphon] + inside
    red, pivots = oracle_rref([[row[i] for i in order] for row in mat.to_lists()], mat.cols)
    span = [red[r][first:] for r, p in enumerate(pivots) if p >= first]
    if len(span) <= 1:
        return bool(span) and min(span[0]) >= 0
    # variables: y+ (k), y- (k), u (|inside|); y.span = u >= 0 with sum(u) = 1
    k = len(span)
    rows = []
    for pos in range(len(inside)):
        row = [r[pos] for r in span] + [-r[pos] for r in span] + [0] * len(inside)
        row[2 * k + pos] = -1
        rows.append(row)
    rows.append([0] * (2 * k) + [1] * len(inside))
    status, _, _ = oracle_simplex_maximize(rows, [0] * len(inside) + [1], [0] * len(rows[0]))
    return status == "optimal"


def oracle_siphon_supported_lp(mat, siphon) -> bool:
    """Nonzero v >= 0 in the row space of mat with support inside the siphon,
    by one LP over all rows: v = y.mat vanishes outside, sums to 1 inside."""
    d = mat.rows
    n = mat.cols
    if d == 0:
        return False
    inside = sorted(siphon)
    outside = [i for i in range(n) if i not in siphon]
    # variables: y+ (d), y- (d), u (|inside|)
    nvars = 2 * d + len(inside)
    rows = []
    rhs = []
    for i in outside:
        row = [mat.entry(k, i) for k in range(d)] + [-mat.entry(k, i) for k in range(d)] \
            + [0] * len(inside)
        rows.append(row)
        rhs.append(0)
    for pos, i in enumerate(inside):
        row = [mat.entry(k, i) for k in range(d)] + [-mat.entry(k, i) for k in range(d)] \
            + [0] * len(inside)
        row[2 * d + pos] = Fraction(-1)
        rows.append(row)
        rhs.append(0)
    rows.append([0] * (2 * d) + [1] * len(inside))
    rhs.append(1)
    status, _, _ = oracle_simplex_maximize(rows, rhs, [0] * nvars)
    return status == "optimal"


# --- The reaction-network parser before its one-pass token loop --------------


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<rev><=>)|(?P<fwd>->)|(?P<plus>\+)|(?P<colon>:))")


def _tokenize(stmt: str, line_no: int, offset: int):
    tokens = []
    pos = 0
    while pos < len(stmt):
        m = _TOKEN.match(stmt, pos)
        if m is None:
            if stmt[pos:].strip() == "":
                break
            col = offset + pos + 1
            raise NetworkParseError(f"unexpected character {stmt[pos:].strip()[0]!r}",
                                    line_no, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), offset + m.start(kind) + 1))
        pos = m.end()
    return tokens


def oracle_parse_network(text: str) -> ReactionNetwork:
    """Parse the one-statement-per-line / ';'-separated reaction grammar.

    A statement is a chain ``complex (->|<=>) complex [...]``; a complex is
    ``0`` or terms ``[coefficient] name`` joined by '+'.  '#' starts a
    comment.  Species are ordered by first appearance unless an initial
    ``species: A B C`` header fixes the order.  Reversible arrows expand to
    two reactions, forward first, with labels k1, k2, ... in parse order.
    """
    species: list[str] = []
    species_index: dict[str, int] = {}
    fixed_order = False
    complexes: list[dict[str, int]] = []
    complex_index: dict[tuple, int] = {}
    raw_reactions: list[tuple[int, int]] = []

    def intern_species(name, line_no, col):
        if name not in species_index:
            if fixed_order:
                raise NetworkParseError(f"species {name!r} not in the species header",
                                        line_no, col)
            species_index[name] = len(species)
            species.append(name)
        return species_index[name]

    def intern_complex(content: dict[str, int]):
        key = tuple(sorted(content.items()))
        if key not in complex_index:
            complex_index[key] = len(complexes)
            complexes.append(content)
        return complex_index[key]

    statements = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        col = 0
        for chunk in body.split(";"):
            if chunk.strip():
                statements.append((chunk, line_no, col))
            col += len(chunk) + 1

    first = True
    for stmt, line_no, offset in statements:
        tokens = _tokenize(stmt, line_no, offset)
        if not tokens:
            continue
        if first and len(tokens) >= 2 and tokens[0][0] == "name" \
                and tokens[0][1] == "species" and tokens[1][0] == "colon":
            for kind, value, col in tokens[2:]:
                if kind != "name":
                    raise NetworkParseError("species header takes names only", line_no, col)
                if value in species_index:
                    raise NetworkParseError(f"duplicate species {value!r}", line_no, col)
                species_index[value] = len(species)
                species.append(value)
            fixed_order = True
            first = False
            continue
        first = False

        # parse: complex (arrow complex)+
        idx = 0

        def parse_complex():
            nonlocal idx
            content: dict[str, int] = {}
            if idx < len(tokens) and tokens[idx][0] == "int" and tokens[idx][1] == "0" \
                    and (idx + 1 >= len(tokens) or tokens[idx + 1][0] in ("fwd", "rev")):
                idx += 1
                return content
            while True:
                coeff = 1
                if idx < len(tokens) and tokens[idx][0] == "int":
                    coeff = int(tokens[idx][1])
                    if coeff == 0:
                        raise NetworkParseError("zero coefficient", line_no, tokens[idx][2])
                    idx += 1
                if idx >= len(tokens) or tokens[idx][0] != "name":
                    where = tokens[idx][2] if idx < len(tokens) else offset + len(stmt)
                    raise NetworkParseError("expected a species name", line_no, where)
                name = tokens[idx][1]
                intern_species(name, line_no, tokens[idx][2])
                content[name] = content.get(name, 0) + coeff
                idx += 1
                if idx < len(tokens) and tokens[idx][0] == "plus":
                    idx += 1
                    continue
                return content

        left = intern_complex(parse_complex())
        arrows = 0
        while idx < len(tokens):
            kind, _, col = tokens[idx]
            if kind not in ("fwd", "rev"):
                raise NetworkParseError("expected '->' or '<=>'", line_no, col)
            idx += 1
            right = intern_complex(parse_complex())
            if right == left:
                raise NetworkParseError("reaction endpoints must differ", line_no, col)
            raw_reactions.append((left, right))
            if kind == "rev":
                raw_reactions.append((right, left))
            left = right
            arrows += 1
        if arrows == 0:
            raise NetworkParseError("statement has no reaction arrow", line_no,
                                    tokens[0][2])

    if not raw_reactions:
        raise NetworkParseError("no reactions found", 1, 1)
    vecs = tuple(tuple(c.get(name, 0) for name in species) for c in complexes)
    reactions = tuple((s, t, f"k{i+1}") for i, (s, t) in enumerate(raw_reactions))
    return ReactionNetwork(tuple(species), vecs, reactions)
