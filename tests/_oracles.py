"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own code paths so that agreement is
meaningful: planar hulls by angle sorting, areas by the shoelace formula,
determinants by Laplace expansion, and real-root counts by Descartes-style
interval bisection.  Stacked determinants use the column-subset Laplace
sweep that the package's basis-enumerating kernel replaced.
"""

from fractions import Fraction
from itertools import combinations


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
