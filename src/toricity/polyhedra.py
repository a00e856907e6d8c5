"""Exact polyhedral computations.

Strict positivity of kernels by exact rational LP, extreme rays of pointed
cones by the double description method, exact volumes of lattice polytopes,
and mixed volumes of Newton polytopes by inclusion-exclusion over Minkowski
sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

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
    """Facet enumeration would exceed the configured budget."""


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
# Polytope volumes


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


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    diffs = [[p[i] - p0[i] for i in range(len(p0))] for p in points[1:]]
    return RationalMatrix(diffs).rank()


def _planar_hull(points):
    """Convex hull in Z^2, counterclockwise (monotone chain, exact)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _shoelace2(hull) -> Fraction:
    s = 0
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        s += x1 * y2 - x2 * y1
    return Fraction(abs(s), 2)


def _is_vertex(p, others) -> bool:
    # p is a vertex iff it is not a convex combination of the other points
    if not others:
        return True
    n = len(p)
    a_rows = [[q[i] for q in others] for i in range(n)]
    a_rows.append([1] * len(others))
    b = list(p) + [1]
    status, _, _ = simplex_maximize(a_rows, b, [0] * len(others))
    return status == LPStatus.INFEASIBLE


def _vertices(points):
    if len(points) <= len(points[0]) + 1:
        return list(points)
    pts = list(points)
    keep = []
    for i, p in enumerate(pts):
        if _is_vertex(p, pts[:i] + pts[i + 1 :]):
            keep.append(p)
    return keep


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


_FACET_BUDGET = 2_000_000


def _facets(verts):
    """All facets of a full-dimensional hull, by brute-force hyperplane search."""
    k = len(verts[0])
    if comb(len(verts), k) > _FACET_BUDGET:
        raise VolumeBudgetError(f"too many candidate facets for {len(verts)} points in dim {k}")
    facets = {}
    for subset in combinations(range(len(verts)), k):
        hp = _hyperplane([verts[i] for i in subset])
        if hp is None:
            continue
        normal, offset = hp
        lo = hi = False
        for p in verts:
            v = sum(a * b for a, b in zip(normal, p))
            if v < offset:
                lo = True
            elif v > offset:
                hi = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if lo:  # orient outward
            normal = tuple(-x for x in normal)
            offset = -offset
        key = (normal, offset)
        if key not in facets:
            on = [p for p in verts if sum(a * b for a, b in zip(normal, p)) == offset]
            facets[key] = on
    return [(n, o, pts) for (n, o), pts in facets.items()]


def _hull_simplices(points):
    """Triangulation of a full-dimensional hull into simplices (vertex tuples)."""
    k = len(points[0])
    if k == 1:
        return [(min(points), max(points))]
    if k == 2:
        hull = _planar_hull(points)
        return [(hull[0], hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    verts = _vertices(points)
    p0 = min(verts)
    simplices = []
    for normal, offset, fpts in _facets(verts):
        if sum(a * b for a, b in zip(normal, p0)) == offset:
            continue
        drop = next(i for i in range(k) if normal[i] != 0)
        proj = {tuple(p[:drop] + p[drop + 1 :]): p for p in fpts}
        for sub in _hull_simplices(list(proj)):
            simplices.append(tuple(proj[q] for q in sub) + (p0,))
    return simplices


def polytope_volume(support) -> Fraction:
    """Exact Euclidean volume of the convex hull; 0 if lower-dimensional."""
    pts = support.points if isinstance(support, SupportSet) else SupportSet(tuple(support)).points
    if not pts:
        return Fraction(0)
    n = len(pts[0])
    if n == 0 or _affine_rank(pts) < n:
        return Fraction(0)
    if n == 1:
        return Fraction(max(p[0] for p in pts) - min(p[0] for p in pts))
    if n == 2:
        return _shoelace2(_planar_hull(pts))
    total = Fraction(0)
    for simplex in _hull_simplices(list(pts)):
        base = simplex[-1]
        rows = [[p[i] - base[i] for i in range(n)] for p in simplex[:-1]]
        total += Fraction(abs(int_det(rows)), factorial(n))
    return total


def minkowski_sum(a: SupportSet, b: SupportSet) -> SupportSet:
    if not a.points:
        return b
    if not b.points:
        return a
    pts = {tuple(x + y for x, y in zip(p, q)) for p in a.points for q in b.points}
    pts = _reduce_to_vertices(pts)
    return SupportSet(tuple(pts))


def _reduce_to_vertices(pts):
    pts = sorted(pts)
    if not pts:
        return pts
    n = len(pts[0])
    if len(pts) <= n + 1:
        return pts
    if n == 2:
        return _planar_hull(pts)
    if len(pts) > 400:  # keep the LP filter affordable
        return pts
    return _vertices(pts)


def mixed_volume(supports) -> int:
    """Normalized mixed volume of n lattice supports in Z^n.

    Inclusion-exclusion over Minkowski sums of subsets; the normalization is
    the root-count convention, i.e. n! times the classical mixed volume, an
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
    total = Fraction(0)
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for subset in combinations(range(n), size):
            acc = supports[subset[0]]
            for i in subset[1:]:
                acc = minkowski_sum(acc, supports[i])
            total += sign * polytope_volume(acc)
    if total.denominator != 1 or total < 0:
        raise InternalInconsistencyError(f"mixed volume {total} is not a nonnegative integer")
    return int(total)
