"""Exact polyhedral computations, all in integer arithmetic.

Strict positivity of kernels by an exact LP whose simplex tableau keeps
integer rows, extreme rays of pointed cones by the double description
method on primitive integer rays, exact volumes of lattice polytopes, and
mixed volumes of Newton polytopes, both from exact placing triangulations:
a polytope's volume from a triangulation of its points, the mixed volume
from the mixed cells of one triangulation of the Cayley configuration of
the supports.  Before that triangulation the mixed volume takes out every
support that spans a segment, as a factor of its lattice length and a
unimodular projection of the others along it, so only what is left is
triangulated.  Every input arrives in integers: a matrix's rows are read as
the integers it keeps for them, the LP takes integer rows, right-hand side
and costs, and circuits are integer vectors.  The positive-kernel LP is
built on a matrix's kept integer echelon rows, whose pivot columns give it
a feasible starting basis, so the simplex runs from there with no phase 1.
Fractions appear only in the results handed out, and the LP's vertex is
scaled back to integers once, to form the witness and check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from .exactalg import (
    IntegerMatrix,
    InternalInconsistencyError,
    RationalMatrix,
    _integer_scaling,
    _primitive,
    int_det,
)


class DimensionMismatchError(ValueError):
    """Mixed volume needs exactly n supports in ambient dimension n."""


class VolumeBudgetError(RuntimeError):
    """A triangulation would exceed the simplex budget."""


# ---------------------------------------------------------------------------
# Exact LP on integer tableau rows (dense simplex, Bland's rule, from a given
# feasible basis)


class LPStatus:
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


def simplex_maximize(a_rows, b, c, basis):
    """Maximize c.x subject to a_rows x = b, x >= 0, exactly over Q, from the
    feasible ``basis``, the column basic in each row.

    The entries are integers; a rational LP is scaled to integers row by
    row by its caller.  The caller hands the LP in canonical form for its
    basis, as RREF rows plus a slack row are: column basis[i] is nonzero in
    row i and zero in every other row, and b[i] is zero or has that
    entry's sign.  Returns (status, value, x); Bland's rule guarantees
    termination.  Each tableau row is a primitive integer vector, a
    positive multiple of the rational row whose factor is the row's entry
    in its basic column (where the rational row holds 1); a row is negated
    first to make that entry positive.  Pivoting on entry p > 0 of row r
    replaces every other row T by p T - T[pc] T_r, divided by its gcd.
    Reduced costs are read by sign and ratios compared by
    cross-multiplication, so the pivots are those of the rational tableau;
    Fractions are formed only for the returned vertex and value, the value
    from the nonzero costs alone.
    """
    m = len(a_rows)
    n = len(c)
    basis = list(basis)
    tab = []
    for row, beta, j in zip(a_rows, b, basis):
        t = _primitive([*row, beta])
        tab.append(t if t[j] > 0 else [-x for x in t])
    assert all(t[j] > 0 and t[-1] >= 0 for t, j in zip(tab, basis)), "not a feasible basis"
    # the reduced costs c_j - c_B . B^-1 column_j ride along as a last
    # tableau row, scaled by a positive factor
    den = lcm(*(tab[i][basis[i]] for i in range(m) if c[basis[i]]))
    z = [den * x for x in c] + [0]
    for i in range(m):
        if c[basis[i]]:
            f = c[basis[i]] * (den // tab[i][basis[i]])
            z = [a - f * x for a, x in zip(z, tab[i])]
    tab.append(_primitive(z))
    bounded = True
    while True:
        z = tab[m]
        entering = next((j for j in range(n) if z[j] > 0), None)  # Bland: smallest index
        if entering is None:
            break
        leaving = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                # rhs_i / a against rhs_l / a_l, both denominators positive
                lrow = tab[leaving]
                d = tab[i][-1] * lrow[entering] - lrow[-1] * a
                if d < 0 or (d == 0 and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            bounded = False
            break
        prow = tab[leaving]
        p = prow[entering]
        for i, row in enumerate(tab):
            f = row[entering]
            if f and i != leaving:
                tab[i] = _primitive([p * x - f * y for x, y in zip(row, prow)])
        basis[leaving] = entering
    x = [Fraction(0)] * n
    for i in range(m):
        x[basis[i]] = Fraction(tab[i][-1], tab[i][basis[i]])
    if not bounded:
        return LPStatus.UNBOUNDED, None, x
    value = sum((ci * x[j] for j, ci in enumerate(c) if ci), Fraction(0))
    return LPStatus.OPTIMAL, value, x


# ---------------------------------------------------------------------------
# Strictly positive kernel / row space


@dataclass(frozen=True)
class PositiveKernelResult:
    witness: tuple[int, ...] | None

    @property
    def is_empty(self) -> bool:
        return self.witness is None


def strictly_positive_kernel(m: RationalMatrix) -> PositiveKernelResult:
    """Witness of ker(m) intersected with the open positive orthant, or Empty.

    Decided by the exact LP: maximize t subject to m(u + t 1) = 0, u >= 0,
    t + s = 1; the witness w = u + t 1 is strictly positive iff the optimum
    is > 0.  The LP reads m's kept integer echelon rows, whose pivot
    columns, with s, are a feasible basis (u = t = 0, s = 1): it starts
    there, in one phase.  The witness is a primitive integer vector, formed
    and checked against m's integer rows in integers.
    """
    ncols = m.cols
    if ncols == 0:
        return PositiveKernelResult(())
    rows, pivots = m.integer_echelon()
    # variables: u_1..u_n, t, s
    a_rows = [[*row, sum(row), 0] for row in rows]
    a_rows.append([0] * ncols + [1, 1])
    b = [0] * len(rows) + [1]
    c = [0] * ncols + [1, 0]
    status, value, x = simplex_maximize(a_rows, b, c, [*pivots, ncols + 1])
    if status != LPStatus.OPTIMAL or value is None or value <= 0:
        return PositiveKernelResult(None)
    point = _integer_scaling(x[:ncols + 1])[0]
    t = point[ncols]
    w = tuple(_primitive([u + t for u in point[:ncols]]))
    if any(v <= 0 for v in w) or any(sum(map(mul, row, w)) for row, _ in m.integer_rows()):
        raise InternalInconsistencyError("LP optimum is not a strictly positive kernel vector")
    return PositiveKernelResult(w)


def positive_row_space(a: IntegerMatrix, kernel: IntegerMatrix) -> bool:
    """Whether the row space of a meets the open positive orthant.

    A vector is in row(a) iff it is orthogonal to ker(a), so the question
    reduces to a strictly positive kernel of ``kernel``, whose rows span
    ker(a): a system passes the integer kernel of its scaling lattice.
    """
    if kernel.rows == 0:
        return a.cols > 0
    return not strictly_positive_kernel(kernel).is_empty


# ---------------------------------------------------------------------------
# Extreme rays (double description)


@dataclass(frozen=True)
class ConeRays:
    """Extreme rays of ker(m) intersected with the nonnegative orthant."""

    rays: tuple[tuple[int, ...], ...]
    ambient_dim: int

    def __len__(self) -> int:
        return len(self.rays)


def extreme_rays(m: RationalMatrix) -> ConeRays:
    """Double description: start from the orthant, impose kernel equations.

    Each equation is one of m's integer rows, and the rays are
    primitive integer tuples.  A ray on the positive side of an equation
    and one on the negative side combine into a new ray when they are
    adjacent: no third ray vanishes wherever both do (Fukuda & Prodon
    1996).  Every returned ray is checked to be nonzero, nonnegative,
    primitive and in ker(m).
    """
    n = m.cols
    equations = [row for row, _ in m.integer_rows()]
    rays = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    for c in equations:
        vals = [sum(a * x for a, x in zip(c, r) if a) for r in rays]
        # bit k of a ray's zero mask is set when its coordinate k is zero
        masks = [sum(1 << k for k, x in enumerate(r) if not x) for r in rays]
        new = [r for r, v in zip(rays, vals) if v == 0]
        for rp, vp, zp in zip(rays, vals, masks):
            if vp <= 0:
                continue
            for rn, vn, zn in zip(rays, vals, masks):
                if vn >= 0:
                    continue
                meet = zp & zn
                # rp and rn themselves vanish on meet; a third ray must not
                if sum(1 for z in masks if meet & z == meet) == 2:
                    new.append(tuple(_primitive([vp * y - vn * x for x, y in zip(rp, rn)])))
        rays = list(dict.fromkeys(new))
    for r in rays:
        if (not any(r) or min(r) < 0 or gcd(*r) != 1
                or any(sum(a * x for a, x in zip(c, r)) for c in equations)):
            raise InternalInconsistencyError(f"double description returned {r}, not a primitive "
                                             "nonnegative kernel ray")
    return ConeRays(tuple(sorted(rays)), n)


# ---------------------------------------------------------------------------
# Polytope volumes and mixed volumes


@dataclass(frozen=True)
class SupportSet:
    """Finite set of lattice points in Z^n (a Newton polytope's generators)."""

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pts = tuple(sorted(set(tuple(int(x) for x in p) for p in self.points)))
        object.__setattr__(self, "points", pts)
        if pts:
            dim = len(pts[0])
            if any(len(p) != dim for p in pts):
                raise ValueError("points of mixed dimension")

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0


def _hyperplane(points_subset):
    """Primitive integer (normal, offset) through a full list of k points in R^k, or None."""
    k = len(points_subset[0])
    p0 = points_subset[0]
    diffs = [[p[i] - p0[i] for i in range(k)] for p in points_subset[1:]]
    # normal via cofactor expansion: normal_i = (-1)^i det(diffs without column i)
    normal = []
    for i in range(k):
        sub = [[row[j] for j in range(k) if j != i] for row in diffs]
        normal.append((-1) ** i * int_det(sub))
    if all(x == 0 for x in normal):
        return None
    g = 0
    for x in normal:
        g = gcd(g, abs(x))
    normal = [x // g for x in normal]
    offset = sum(a * b for a, b in zip(normal, p0))
    return tuple(normal), offset


_SIMPLEX_BUDGET = 20_000


def _placing_triangulation(points):
    """Placing (beneath-beyond) triangulation of a finite point set in Z^k.

    The points are taken in sorted order.  The first k + 1 affinely
    independent ones span the start simplex.  Every later point is coned over
    each boundary facet it lies strictly beyond, and skipped when no facet
    sees it.  Boundary facets carry primitive integer outward normals, so
    every test is exact: the start simplex's come from cofactors, and each
    later facet's from the two facets that met at its horizon ridge.
    Returns the simplices as tuples of k + 1 points, or None when the points
    span fewer than k dimensions; raises VolumeBudgetError once more than
    _SIMPLEX_BUDGET simplices are placed.
    """
    pts = sorted(set(points))
    k = len(pts[0])
    # start simplex: keep a point when its difference to pts[0] survives
    # fraction-free reduction by the differences kept so far
    start, echelon = [0], []
    for idx in range(1, len(pts)):
        if len(start) == k + 1:
            break
        v = [a - b for a, b in zip(pts[idx], pts[0])]
        for col, row in echelon:
            if v[col]:
                v = [row[col] * x - v[col] * y for x, y in zip(v, row)]
        col = next((c for c, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            start.append(idx)
    if len(start) < k + 1:
        return None

    # facet vertices -> [primitive outward normal, offset, neighbours], where
    # neighbours[j] is the facet across the ridge that omits vertex j
    boundary = {}
    # (k + 1) times the start barycentre lies strictly inside the start simplex
    centre = [sum(c) for c in zip(*(pts[i] for i in start))]
    facets = [tuple(i for i in start if i != drop) for drop in start]
    for verts in facets:
        normal, offset = _hyperplane([pts[i] for i in verts])
        if sum(a * b for a, b in zip(normal, centre)) > (k + 1) * offset:
            normal, offset = tuple(-a for a in normal), -offset
        boundary[verts] = [normal, offset, [facets[start.index(v)] for v in verts]]

    simplices = [tuple(start)]
    placed = set(start)
    for idx, p in enumerate(pts):
        if idx in placed:
            continue
        heights = {verts: h for verts, (normal, offset, _) in boundary.items()
                   if (h := sum(a * b for a, b in zip(normal, p)) - offset) > 0}
        created = {}
        for verts, h1 in heights.items():
            a1, b1, neighbours = boundary.pop(verts)
            for j, other in enumerate(neighbours):
                if other in heights:
                    continue
                # a horizon ridge: of the hyperplanes through it, the one
                # through p is h1 (a2.x - b2) - h2 (a1.x - b1), outward
                # because h1 > 0 >= h2
                a2, b2, across = boundary[other]
                h2 = sum(a * b for a, b in zip(a2, p)) - b2
                normal = [h1 * y - h2 * x for x, y in zip(a1, a2)]
                g = gcd(*normal)
                new = tuple(sorted(verts[:j] + verts[j + 1:] + (idx,)))
                across[across.index(verts)] = new
                created[new] = [tuple(x // g for x in normal), (h1 * b2 - h2 * b1) // g,
                                [other if v == idx else None for v in new]]
            simplices.append(verts + (idx,))
        # new facets meet each other across the ridges through p
        open_ridges = {}
        for new, (_, _, neighbours) in created.items():
            for j, v in enumerate(new):
                if v != idx:
                    ridge = new[:j] + new[j + 1:]
                    if ridge in open_ridges:
                        mate, i = open_ridges.pop(ridge)
                        neighbours[j], created[mate][2][i] = mate, new
                    else:
                        open_ridges[ridge] = new, j
        boundary.update(created)
        if len(simplices) > _SIMPLEX_BUDGET:
            raise VolumeBudgetError(
                f"placing triangulation of {len(pts)} points in dim {k} "
                f"exceeds {_SIMPLEX_BUDGET} simplices")
    return [tuple(pts[i] for i in s) for s in simplices]


def polytope_volume(support) -> Fraction:
    """Exact Euclidean volume of the convex hull; 0 if lower-dimensional."""
    pts = support.points if isinstance(support, SupportSet) else SupportSet(tuple(support)).points
    if not pts or not pts[0]:
        return Fraction(0)
    simplices = _placing_triangulation(pts) or ()
    total = sum(abs(int_det([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
                for s in simplices)
    return Fraction(total, factorial(len(pts[0])))


def _quotient_rows(u):
    """Rows 2..n of a unimodular integer matrix U with U u = e_1, for a
    primitive u: they map Z^n onto Z^n / Z u, identified with Z^(n-1).
    Each unimodular 2 x 2 step (x, y; -b/g, a/g), x a + y b = g = gcd(a, b),
    clears one entry of u from the last one up."""
    n = len(u)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    v = list(u)
    for i in range(n - 1, 0, -1):
        a, b = v[i - 1], v[i]
        if b:
            g = gcd(a, b)
            a, b = a // g, b // g
            x = pow(a, -1, abs(b))  # Bezout: x a + y b = 1
            y = (1 - x * a) // b
            r, t = rows[i - 1], rows[i]
            rows[i - 1] = [x * p + y * q for p, q in zip(r, t)]
            rows[i] = [a * q - b * p for p, q in zip(r, t)]
            v[i - 1], v[i] = g, 0
    return rows[1:]


def _segment(points):
    """(lattice length, primitive direction) when the sorted points, two or
    more, lie on one line, else None.  Points on a line sort along it, so
    the first and the last are the segment's ends."""
    first, last = points[0], points[-1]
    d = [b - a for a, b in zip(first, last)]
    g = gcd(*d)
    u = [x // g for x in d]
    k = next(i for i, x in enumerate(u) if x)
    for p in points[1:-1]:
        t = (p[k] - first[k]) // u[k]
        if any(x - a != t * y for x, a, y in zip(p, first, u)):
            return None
    return g, u


def mixed_volume(supports) -> int:
    """Normalized mixed volume of n lattice supports in Z^n.

    Segments go first.  A support with one point gives 0.  A support whose
    points lie on one line, a segment of lattice length g along the
    primitive u, contributes the factor g: the mixed volume is g times that
    of the other supports projected to Z^n / Z u, by a unimodular matrix
    mapping u to e_1 and dropping the first coordinate.  In the monomial
    coordinates of that matrix the segment's binomial has g roots in y_1,
    and each leaves a system in y_2..y_n with the projected supports, so
    the root counts multiply (Bernstein 1975).  A single support left in
    dimension 1 gives its lattice length.

    What is left is summed over the mixed cells of one placing
    triangulation of the Cayley configuration {(p, e_i) : p in P_i} in
    Z^(2n-1), with e_0 = 0 and unit vectors e_1..e_(n-1).  Every
    triangulation of it induces a fine mixed subdivision of
    P_1 + ... + P_n (Huber, Rambau & Santos 2000), whose mixed cells are
    its simplices with exactly two points from every support; a cell with
    edges b_i1 - b_i0 has volume |det(b_i1 - b_i0)|, and the cells add up
    to the mixed volume (Huber & Sturmfels 1995).  The normalization is the
    root-count convention, i.e. n! times the classical mixed volume, an
    integer for lattice polytopes.
    """
    supports = [s if isinstance(s, SupportSet) else SupportSet(tuple(s)) for s in supports]
    if not supports:
        raise DimensionMismatchError("no supports given")
    n = supports[0].ambient_dim
    if len(supports) != n or any(s.ambient_dim != n for s in supports):
        raise DimensionMismatchError(
            f"need exactly {n} supports in ambient dimension {n}"
        )
    factor = 1
    supports = [s.points for s in supports]
    while True:
        if any(len(pts) == 1 for pts in supports):
            return 0
        if n == 1:
            return factor * (supports[0][-1][0] - supports[0][0][0])
        segment = next(((i, seg) for i, pts in enumerate(supports)
                        if (seg := _segment(pts))), None)
        if segment is None:
            break
        i, (g, u) = segment
        factor *= g
        rows = _quotient_rows(u)
        supports = [sorted({tuple(sum(map(mul, r, p)) for r in rows) for p in pts})
                    for k, pts in enumerate(supports) if k != i]
        n -= 1
    lifts = [tuple(int(j == i) for j in range(1, n)) for i in range(n)]
    cayley = [p + lift for pts, lift in zip(supports, lifts) for p in pts]
    total = 0
    for simplex in _placing_triangulation(cayley) or ():
        # group the vertices by their support, read off the lift coordinates
        pairs = {}
        for q in simplex:
            pairs.setdefault(q[n:], []).append(q[:n])
        if all(len(pair) == 2 for pair in pairs.values()):
            total += abs(int_det([[a - b for a, b in zip(*pair)] for pair in pairs.values()]))
    if total.denominator != 1 or total < 0:
        raise InternalInconsistencyError(f"mixed volume {total} is not a nonnegative integer")
    return factor * int(total)
