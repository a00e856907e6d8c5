"""Exact polyhedral computations.

Strict positivity of kernels by exact rational LP, extreme rays of pointed
cones by the double description method, exact volumes of lattice polytopes,
and mixed volumes of Newton polytopes, all from exact placing triangulations
in integer arithmetic: a polytope's volume from a triangulation of its
points, the mixed volume from the mixed cells of one triangulation of the
Cayley configuration of the supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .exactalg import (
    IntegerMatrix,
    InternalInconsistencyError,
    RationalMatrix,
    _frac,
    clear_denominators,
    int_det,
    kernel_circuit_basis,
)


class DimensionMismatchError(ValueError):
    """Mixed volume needs exactly n supports in ambient dimension n."""


class VolumeBudgetError(RuntimeError):
    """A triangulation would exceed the simplex budget."""


# ---------------------------------------------------------------------------
# Exact rational LP (dense simplex, Bland's rule, two phases)


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def simplex_maximize(a_rows, b, c):
    """Maximize c.x subject to a_rows x = b, x >= 0, exactly over Q.

    Returns (status, value, x).  Bland's rule guarantees termination.
    """
    m = len(a_rows)
    n = len(c)
    rows = [[_frac(x) for x in row] for row in a_rows]
    rhs = [_frac(x) for x in b]
    cost = [_frac(x) for x in c]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # tableau over columns [original | artificial], one artificial per row
    total = n + m
    tab = [rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(pr, pc):
        pv = tab[pr][pc]
        tab[pr] = [x / pv for x in tab[pr]]
        for i in range(m):
            if i != pr and tab[i][pc] != 0:
                f = tab[i][pc]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pr])]
        basis[pr] = pc

    def run_phase(obj, allowed):
        # obj: cost per column (maximization); allowed: columns eligible to enter
        while True:
            # reduced costs: obj_j - obj_B . column_j
            y = [obj[basis[i]] for i in range(m)]
            entering = None
            for j in allowed:
                if j in basis:
                    continue
                red = obj[j] - sum(y[i] * tab[i][j] for i in range(m))
                if red > 0:
                    entering = j
                    break  # Bland: smallest index
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
                return False  # unbounded
            pivot(leaving, entering)

    # phase 1: maximize -(sum of artificials)
    obj1 = [Fraction(0)] * n + [Fraction(-1)] * m
    run_phase(obj1, range(total))
    if any(tab[i][-1] != 0 and basis[i] >= n for i in range(m)):
        return LPStatus.INFEASIBLE, None, None
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j] != 0), None)
            if pc is not None:
                pivot(i, pc)
    # rows still basic in an artificial are redundant; freeze them at zero
    obj2 = list(cost) + [Fraction(-1)] * m  # artificials must stay zero
    bounded = run_phase(obj2, range(n))
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    if not bounded:
        return LPStatus.UNBOUNDED, None, x
    value = sum(ci * xi for ci, xi in zip(cost, x))
    return LPStatus.OPTIMAL, value, x


# ---------------------------------------------------------------------------
# Strictly positive kernel / row space


@dataclass(frozen=True)
class PositiveKernelResult:
    witness: tuple[Fraction, ...] | None

    @property
    def is_empty(self) -> bool:
        return self.witness is None


def strictly_positive_kernel(m: RationalMatrix) -> PositiveKernelResult:
    """Witness of ker(m) intersected with the open positive orthant, or Empty.

    Decided by the exact LP: maximize t subject to m(u + t 1) = 0, u >= 0,
    t + s = 1; the witness w = u + t 1 is strictly positive iff the optimum
    is > 0.
    """
    ncols = m.cols
    if ncols == 0:
        return PositiveKernelResult(())
    # variables: u_1..u_n, t, s
    a_rows = []
    b = []
    for i in range(m.rows):
        row = list(m.row(i)) + [sum(m.row(i)), Fraction(0)]
        a_rows.append(row)
        b.append(Fraction(0))
    a_rows.append([Fraction(0)] * ncols + [Fraction(1), Fraction(1)])
    b.append(Fraction(1))
    c = [Fraction(0)] * ncols + [Fraction(1), Fraction(0)]
    status, value, x = simplex_maximize(a_rows, b, c)
    if status != LPStatus.OPTIMAL or value is None or value <= 0:
        return PositiveKernelResult(None)
    t = x[ncols]
    w = tuple(x[j] + t for j in range(ncols))
    if any(wi <= 0 for wi in w) or any(v != 0 for v in m.mul_vector(w)):
        raise InternalInconsistencyError("LP optimum is not a strictly positive kernel vector")
    return PositiveKernelResult(w)


def positive_row_space(a: IntegerMatrix) -> bool:
    """Whether the row space of a meets the open positive orthant.

    A vector is in row(a) iff it is orthogonal to ker(a), so the question
    reduces to a strictly positive kernel of a kernel basis of a.
    """
    ker = kernel_circuit_basis(a.to_rational())
    if len(ker) == 0:
        return a.cols > 0
    constraints = RationalMatrix([list(v) for v in ker.vectors])
    constraints.cols = a.cols
    return not strictly_positive_kernel(constraints).is_empty


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
    """Double description: start from the orthant, impose kernel equations."""
    n = m.cols
    rays = [tuple(Fraction(1) if k == i else Fraction(0) for k in range(n)) for i in range(n)]

    def zeroset(r):
        return frozenset(i for i in range(n) if r[i] == 0)

    for ri in range(m.rows):
        c = m.row(ri)
        vals = [sum(a * b for a, b in zip(c, r)) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v == 0]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        zsets = {r: zeroset(r) for r in rays}
        new = list(keep)
        for rp, vp in pos:
            for rn, vn in neg:
                meet = zsets[rp] & zsets[rn]
                adjacent = True
                for other in rays:
                    if other is rp or other is rn:
                        continue
                    if meet <= zsets[other]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(vp * bn - vn * bp for bp, bn in zip(rp, rn))
                prim = clear_denominators(combo)
                new.append(tuple(Fraction(x) for x in prim))
        # dedupe proportional rays (all primitive and nonnegative after clearing)
        seen = {}
        for r in new:
            seen[clear_denominators(r)] = r
        rays = [tuple(Fraction(x) for x in key) for key in seen]
    out = tuple(sorted(clear_denominators(r) for r in rays))
    return ConeRays(out, n)


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


def _abs_det(rows) -> int:
    """Volume of the lattice parallelotope spanned by the integer rows."""
    return abs(int_det(rows))


def polytope_volume(support) -> Fraction:
    """Exact Euclidean volume of the convex hull; 0 if lower-dimensional."""
    pts = support.points if isinstance(support, SupportSet) else SupportSet(tuple(support)).points
    if not pts or not pts[0]:
        return Fraction(0)
    simplices = _placing_triangulation(pts) or ()
    total = sum(_abs_det([[a - b for a, b in zip(p, s[0])] for p in s[1:]]) for s in simplices)
    return Fraction(total, factorial(len(pts[0])))


def mixed_volume(supports) -> int:
    """Normalized mixed volume of n lattice supports in Z^n.

    Sums the mixed cells of one placing triangulation of the Cayley
    configuration {(p, e_i) : p in P_i} in Z^(2n-1), with e_0 = 0 and unit
    vectors e_1..e_(n-1).  Every triangulation of it induces a fine mixed
    subdivision of P_1 + ... + P_n (Huber, Rambau & Santos 2000), whose mixed
    cells are its simplices with exactly two points from every support; a
    cell with edges b_i1 - b_i0 has volume |det(b_i1 - b_i0)|, and the cells
    add up to the mixed volume (Huber & Sturmfels 1995).  The normalization
    is the root-count convention, i.e. n! times the classical mixed volume,
    an integer for lattice polytopes.
    """
    supports = [s if isinstance(s, SupportSet) else SupportSet(tuple(s)) for s in supports]
    if not supports:
        raise DimensionMismatchError("no supports given")
    n = supports[0].ambient_dim
    if len(supports) != n or any(s.ambient_dim != n for s in supports):
        raise DimensionMismatchError(
            f"need exactly {n} supports in ambient dimension {n}"
        )
    lifts = [tuple(int(j == i) for j in range(1, n)) for i in range(n)]
    cayley = [p + lift for s, lift in zip(supports, lifts) for p in s.points]
    total = 0
    for simplex in _placing_triangulation(cayley) or ():
        # group the vertices by their support, read off the lift coordinates
        pairs = {}
        for q in simplex:
            pairs.setdefault(q[n:], []).append(q[:n])
        if all(len(pair) == 2 for pair in pairs.values()):
            total += _abs_det([[a - b for a, b in zip(*pair)] for pair in pairs.values()])
    if total.denominator != 1 or total < 0:
        raise InternalInconsistencyError(f"mixed volume {total} is not a nonnegative integer")
    return int(total)
