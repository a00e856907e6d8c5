import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricity import GroupMode, analyze_network, parse_network, polyhedra
from toricity.exactalg import IntegerMatrix, InternalInconsistencyError, RationalMatrix
from toricity.polyhedra import (
    DimensionMismatchError,
    SupportSet,
    extreme_rays,
    mixed_volume,
    polytope_volume,
    positive_row_space,
    simplex_maximize,
    strictly_positive_kernel,
)

from _oracles import (
    oracle_minkowski,
    oracle_minkowski_hull,
    oracle_mixed_volume,
    oracle_polytope_volume,
    oracle_shoelace,
)

IDH_C = RationalMatrix([
    [-1, 1, 1, 0, 0, 0],
    [-1, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, -1, -1],
])

TRIANGLE_C = RationalMatrix([[1, -1, 1, -2]])


def test_simplex_basic():
    # max x + y st x + y <= 4 (as equality with slack), x,y >= 0
    status, value, x = simplex_maximize([[1, 1, 1]], [4], [1, 1, 0])
    assert status == "optimal"
    assert value == 4


def test_simplex_infeasible():
    status, _, _ = simplex_maximize([[1, 0], [1, 0]], [1, 2], [0, 0])
    assert status == "infeasible"


def test_strictly_positive_kernel_witness():
    res = strictly_positive_kernel(RationalMatrix([[1, -1]]))
    assert not res.is_empty
    assert res.witness[0] == res.witness[1] > 0


def test_strictly_positive_kernel_empty():
    assert strictly_positive_kernel(RationalMatrix([[1, 1]])).is_empty


def test_strictly_positive_kernel_idh():
    res = strictly_positive_kernel(IDH_C)
    assert not res.is_empty
    assert all(x > 0 for x in res.witness)
    assert all(v == 0 for v in IDH_C.mul_vector(res.witness))


def test_strictly_positive_kernel_rejects_bad_optimum(monkeypatch):
    # an LP optimum whose witness is not strictly positive is a bug, reported
    # as one even when asserts are stripped
    monkeypatch.setattr(polyhedra, "simplex_maximize",
                        lambda a, b, c: (polyhedra.LPStatus.OPTIMAL, Fraction(1), [Fraction(0)] * len(c)))
    with pytest.raises(InternalInconsistencyError):
        strictly_positive_kernel(RationalMatrix([[1, -1]]))


def test_extreme_rays_line():
    rays = extreme_rays(RationalMatrix([[1, -1]]))
    assert rays.rays == ((1, 1),)


def _in_nonneg_span(vector, rays):
    # vector = sum lambda_i rays_i with lambda >= 0  (LP feasibility)
    a_rows = [[r[i] for r in rays] for i in range(len(vector))]
    status, _, _ = simplex_maximize(a_rows, list(vector), [0] * len(rays))
    return status == "optimal"


def test_extreme_rays_idh_span():
    rays = extreme_rays(IDH_C)
    assert set(rays.rays) == {(1, 0, 1, 1, 0, 1), (0, 0, 0, 1, 1, 0), (1, 1, 0, 0, 0, 0)}
    for v in rays.rays:
        assert _in_nonneg_span(v, rays.rays)
        assert all(x == 0 for x in IDH_C.mul_vector(v))
        assert all(x >= 0 for x in v)


def test_extreme_rays_triangle():
    rays = extreme_rays(TRIANGLE_C)
    assert set(rays.rays) == {(2, 0, 0, 1), (1, 1, 0, 0), (0, 0, 2, 1), (0, 1, 1, 0)}


def test_extreme_rays_are_extreme():
    # no ray is a nonnegative combination of the others
    rng = random.Random(17)
    cases = [IDH_C, TRIANGLE_C]
    for _ in range(10):
        nr, nc = rng.randint(1, 3), rng.randint(2, 6)
        cases.append(RationalMatrix([[rng.randint(-3, 3) for _ in range(nc)]
                                     for _ in range(nr)]))
    for m in cases:
        rays = extreme_rays(m).rays
        for i, r in enumerate(rays):
            others = rays[:i] + rays[i + 1:]
            if others:
                assert not _in_nonneg_span(r, others), (m, r)


def test_extreme_rays_positive_consistency():
    rng = random.Random(5)
    for _ in range(25):
        nr, nc = rng.randint(1, 3), rng.randint(2, 6)
        m = RationalMatrix([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        rays = extreme_rays(m)
        summed = [sum(r[i] for r in rays.rays) for i in range(nc)] if rays.rays else [0] * nc
        has_positive = all(x > 0 for x in summed) and rays.rays
        assert bool(has_positive) == (not strictly_positive_kernel(m).is_empty)


def test_extreme_rays_against_support_minimality_oracle():
    # for cones {x >= 0 : Cx = 0} the extreme rays are exactly the
    # support-minimal nonzero cone elements; enumerate those supports
    rng = random.Random(29)
    for _ in range(20):
        nr, nc = rng.randint(1, 2), rng.randint(2, 6)
        m = RationalMatrix([[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)])
        from itertools import combinations

        admissible = []
        for size in range(1, nc + 1):
            for cols in combinations(range(nc), size):
                if any(set(t) <= set(cols) for t in admissible):
                    continue
                sub = RationalMatrix([[m.entry(i, j) for j in cols] for i in range(nr)])
                sub.cols = size
                if not strictly_positive_kernel(sub).is_empty:
                    admissible.append(cols)
        expected_supports = {frozenset(t) for t in admissible}
        rays = extreme_rays(m).rays
        got_supports = {frozenset(i for i, x in enumerate(r) if x) for r in rays}
        assert got_supports == expected_supports, (m, rays)


def test_simplex_against_scipy_oracle():
    # random bounded feasible LPs: exact optimum must match the float solver
    import numpy as np
    from scipy.optimize import linprog

    rng = random.Random(31)
    done = 0
    while done < 25:
        nvars = rng.randint(2, 5)
        ncons = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(nvars)] + [0] for _ in range(ncons)]
        x_feas = [rng.randint(0, 3) for _ in range(nvars)]
        b = [sum(r[j] * x_feas[j] for j in range(nvars)) for r in a]
        c = [rng.randint(-3, 3) for _ in range(nvars)] + [0]
        # cap the total mass through a slack column so the optimum is finite
        a.append([1] * nvars + [1])
        b.append(sum(x_feas) + rng.randint(1, 5))
        status, value, x = simplex_maximize(a, b, c)
        ref = linprog([-ci for ci in c], A_eq=np.array(a, dtype=float),
                      b_eq=np.array(b, dtype=float), bounds=[(0, None)] * (nvars + 1),
                      method="highs")
        assert status == "optimal"
        assert ref.status == 0
        assert abs(float(value) + ref.fun) < 1e-7, (a, b, c)
        done += 1


def test_positive_row_space_examples():
    assert positive_row_space(IntegerMatrix([[2, 3]])) is True
    assert positive_row_space(IntegerMatrix([[1, -1]])) is False
    # the zero column blocks strict positivity here
    idh_a = IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]])
    assert positive_row_space(idh_a) is False


def test_polytope_volume_square():
    assert polytope_volume(SupportSet(((0, 0), (1, 0), (0, 1), (1, 1)))) == 1


def test_polytope_volume_segment():
    assert polytope_volume(SupportSet(((0,), (7,)))) == 7


def test_polytope_volume_shoelace_oracle():
    pts = ((0, 0), (6, 0), (3, 2), (0, 4))
    vol = polytope_volume(SupportSet(pts))
    assert vol == oracle_shoelace(pts)
    assert vol > 0


def test_polytope_volume_lower_dimensional():
    assert polytope_volume(SupportSet(((0, 0), (1, 1), (2, 2)))) == 0


def test_polytope_volume_3d():
    cube = SupportSet(tuple((i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)))
    assert polytope_volume(cube) == 8
    simplex = SupportSet(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert polytope_volume(simplex) == Fraction(1, 6)


def test_mixed_volume_two_simplices():
    s = SupportSet(((0, 0), (1, 0), (0, 1)))
    assert mixed_volume([s, s]) == 1


def test_mixed_volume_univariate():
    assert mixed_volume([SupportSet(tuple((i,) for i in range(6)))]) == 5


def test_mixed_volume_triangle_slice_system():
    poly_support = SupportSet(((3, 2), (0, 4), (6, 0)))
    linear_support = SupportSet(((1, 0), (0, 1), (0, 0)))
    assert mixed_volume([poly_support, linear_support]) == 6


def test_mixed_volume_rejects_fractional_total(monkeypatch):
    # the mixed cells' volumes must add up to a nonnegative integer
    s = SupportSet(((0, 0), (1, 0), (0, 1)))
    for bad in (Fraction(1, 3), -1):
        monkeypatch.setattr(polyhedra, "_abs_det", lambda rows, bad=bad: bad)
        with pytest.raises(InternalInconsistencyError):
            mixed_volume([s, s])


def test_mixed_volume_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mixed_volume([SupportSet(((0, 0), (1, 0)))])


def test_mixed_volume_symmetry_and_diagonal():
    rng = random.Random(9)
    for _ in range(15):
        p = SupportSet(tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(4)))
        q = SupportSet(tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(4)))
        assert mixed_volume([p, q]) == mixed_volume([q, p])
        assert mixed_volume([p, p]) == 2 * polytope_volume(p)


def test_mixed_volume_diagonal_3d():
    p = SupportSet(((0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    assert mixed_volume([p, p, p]) == 6 * polytope_volume(p)


def test_mixed_volume_monotone():
    p = SupportSet(((0, 0), (2, 0), (0, 2)))
    q = SupportSet(((0, 0), (1, 0), (0, 1)))
    bigger = SupportSet(p.points + ((3, 3),))
    assert mixed_volume([bigger, q]) >= mixed_volume([p, q])


def test_mixed_volume_two_polytope_identity_oracle():
    rng = random.Random(13)
    for _ in range(20):
        p = tuple((rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(3, 6)))
        q = tuple((rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(3, 6)))
        expect = oracle_shoelace(oracle_minkowski(p, q)) - oracle_shoelace(p) - oracle_shoelace(q)
        assert mixed_volume([SupportSet(p), SupportSet(q)]) == expect


def test_minkowski_sum_matches_oracle():
    p = SupportSet(((0, 0), (2, 1)))
    q = SupportSet(((0, 0), (1, 0), (0, 1)))
    s = SupportSet(tuple(oracle_minkowski_hull(p.points, q.points)))
    assert set(s.points) <= set(oracle_minkowski(p.points, q.points))
    assert polytope_volume(s) == oracle_shoelace(oracle_minkowski(p.points, q.points))


def _points(dim, max_points):
    return st.lists(st.tuples(*[st.integers(0, 3)] * dim), min_size=1, max_size=max_points)


# a fixed set of examples: the oracle runs one exact LP per point of every
# Minkowski sum, and one random draw of 60 cases took 20 s
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(_points(n, 5), min_size=n, max_size=n)))
def test_mixed_volume_matches_inclusion_exclusion(supports):
    assert mixed_volume(supports) == oracle_mixed_volume(supports)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: _points(k, 9)))
def test_polytope_volume_matches_facet_triangulation(points):
    # includes repeated, collinear and coplanar point sets of volume 0
    assert polytope_volume(points) == oracle_polytope_volume(points)


@pytest.mark.parametrize("degrees", [(3,), (2, 3), (1, 2, 2), (2, 1, 3, 2)])
def test_mixed_volume_bezout(degrees):
    n = len(degrees)
    supports = [[tuple(d * int(j == i) for j in range(n)) for i in range(-1, n)]
                for d in degrees]
    assert mixed_volume(supports) == prod(degrees)


@pytest.mark.parametrize("lengths", [(4,), (2, 3), (1, 5, 2), (3, 1, 2, 2)])
def test_mixed_volume_axis_segments(lengths):
    n = len(lengths)
    supports = [[(0,) * n, tuple(a * int(j == i) for j in range(n))]
                for i, a in enumerate(lengths)]
    assert mixed_volume(supports) == prod(lengths)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_volume_unit_cubes(n):
    cube = list(product((0, 1), repeat=n))
    assert mixed_volume([cube] * n) == factorial(n)


@pytest.mark.parametrize("text, expected", [
    ("X1 + X2 <=> X3\n0 <=> X1\nX5 + X4 <=> I3a -> X2 + X4\n"
     "X2 + X3 <=> I3b -> X5 + X3\nX1 + X2 <=> X4", 1),
    ("X1 + X3 <=> I1a -> X5 + X3\nX5 + X4 <=> I1b -> X1 + X4\nX4 + X1 <=> X5\n"
     "X4 + X5 <=> I3a -> X2 + X5\nX2 + X1 <=> I3b -> X4 + X1\n"
     "X4 + X2 <=> I4a -> X1 + X2\nX1 + X3 <=> I4b -> X4 + X3", 2),
    ("X1 + X2 <=> I1a -> X3 + X2\nX3 + X5 <=> I1b -> X1 + X5\nX5 + X1 <=> X4\n"
     "X2 + X4 -> 2 X4\nX4 -> X2\nX5 + X4 <=> X3", 3),
])
def test_mixed_volume_of_five_species_coset_systems(text, expected):
    # reduced to n = 5 species, these spent over 40 s each in the
    # inclusion-exclusion over Minkowski sums
    analysis = analyze_network(parse_network(text), GroupMode.POSITIVE, 0)
    assert analysis.reduced_report.n == 5
    assert analysis.reduced_report.mixed_volume_bound == expected
