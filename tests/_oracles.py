"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own code paths so that agreement is
meaningful: planar hulls by angle sorting, areas by the shoelace formula,
determinants by Laplace expansion, and real-root counts by Descartes-style
interval bisection.  Stacked determinants use the column-subset Laplace
sweep that the package's basis-enumerating kernel replaced.  Mixed volumes
use the inclusion-exclusion over LP-pruned Minkowski sums that the
package's Cayley triangulation replaced; it shares only the package's exact
LP and integer determinant.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from toricity.exactalg import RationalMatrix, int_det
from toricity.polyhedra import LPStatus, simplex_maximize


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


def _oracle_poly_det(rows):
    """Polynomial determinant by cofactor expansion along the first row,
    using only the ring operations of the entries."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].scale(0)
    for j, a in enumerate(rows[0]):
        if a.is_zero():
            continue
        term = a * _oracle_poly_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def oracle_det_stacked(top, bottom):
    """Determinant of [top; bottom] (polynomial top rows, rational bottom
    rows) by the Laplace sweep over every column subset of the top block."""
    s, n = len(top), len(top[0])
    total = top[0][0].scale(0)
    for cols in combinations(range(n), s):
        comp = [j for j in range(n) if j not in cols]
        const = oracle_det([[row[j] for j in comp] for row in bottom])
        if const == 0:
            continue
        minor = _oracle_poly_det([[row[j] for j in cols] for row in top])
        sign = -1 if (sum(cols) - s * (s - 1) // 2) % 2 else 1
        total = total + minor.scale(sign * const)
    return total


# --- Mixed volume by inclusion-exclusion over Minkowski sums -----------------
# Vertices are found by one exact LP per point, facets by a search over all
# vertex k-subsets, volumes by a recursive triangulation of the facets.


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    diffs = [[p[i] - p0[i] for i in range(len(p0))] for p in points[1:]]
    return RationalMatrix(diffs).rank()


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


def oracle_mixed_volume(supports) -> int:
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
    """Upper bound on the number of roots in (lo, hi) by sign variations."""
    # shift to (lo, hi) -> (0, 1) -> (0, inf) via x = (lo + hi*y) / (1 + y)
    n = len(coeffs) - 1
    width = hi - lo
    shifted = _taylor_shift(coeffs, lo)           # roots in (0, width)
    scaled = [c * width ** i for i, c in enumerate(shifted)]  # roots in (0, 1)
    rev = list(reversed(scaled))                  # x -> 1/x : roots in (1, inf)
    mapped = _taylor_shift(rev, Fraction(1))      # roots in (0, inf)
    signs = [c for c in mapped if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _taylor_shift(coeffs, a: Fraction):
    out = list(coeffs)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def oracle_positive_roots(coeffs) -> int:
    """Distinct roots in (0, inf) by squarefree Descartes bisection."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    # strip x^k
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return 0
    coeffs = _squarefree(coeffs)
    # Cauchy bound on positive roots
    lead = abs(coeffs[-1])
    bound = Fraction(1) + max(abs(c) for c in coeffs) / lead

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

    return count(Fraction(0), bound)
