import random
import sys
import zlib
from fractions import Fraction
from pathlib import Path
from itertools import product
from math import factorial, gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricity import GroupMode, analyze_network, core, crn, parse_network, polyhedra
from toricity.exactalg import (
    IntegerMatrix,
    InternalInconsistencyError,
    RationalMatrix,
    integer_kernel_basis,
)
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

from test_bench_contract import _load_bench
from _oracles import (
    _hyperplane as oracle_hyperplane,
    mul_vector,
    oracle_det,
    oracle_extreme_rays,
    oracle_feasible_start,
    oracle_minkowski,
    oracle_minkowski_hull,
    oracle_inclusion_exclusion_mixed_volume,
    oracle_mixed_volume,
    oracle_polytope_volume,
    oracle_shoelace,
    oracle_simplex_maximize,
    oracle_start_simplex,
)

IDH_C = RationalMatrix([
    [-1, 1, 1, 0, 0, 0],
    [-1, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, -1, -1],
])

TRIANGLE_C = RationalMatrix([[1, -1, 1, -2]])


def test_simplex_basic():
    # max x + y st x + y <= 4 (as equality with slack), x,y >= 0, from the slack
    status, value, x = simplex_maximize([[1, 1, 1]], [4], [1, 1, 0], [2])
    assert status == "optimal"
    assert value == 4


def _phase_one_lp(a, b):
    """Phase 1 of a x = b, x >= 0 as an LP with its starting basis: one
    artificial column per row, rows with a negative right-hand side
    negated, maximize minus the artificials' sum from the artificial basis.
    Its optimum is 0 iff a x = b has a solution x >= 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[(-1 if beta < 0 else 1) * x for x in row] + [int(k == i) for k in range(m)]
            for i, (row, beta) in enumerate(zip(a, b))]
    return rows, [abs(beta) for beta in b], [0] * n + [-1] * m, [n + i for i in range(m)]


def _started_lp(a, b):
    """a x = b in canonical form for the feasible basis the Fraction phase 1
    ends in, each row with its right-hand side scaled to integers, and that
    basis; None when a x = b has no solution x >= 0."""
    start = oracle_feasible_start(a, b)
    if start is None:
        return None
    rows, rhs, basis = start
    scaled = []
    for row in ([*row, beta] for row, beta in zip(rows, rhs)):
        d = lcm(*(x.denominator for x in row))
        scaled.append([int(x * d) for x in row])
    return [row[:-1] for row in scaled], [row[-1] for row in scaled], basis


def test_simplex_infeasible():
    # x1 = 1 and x1 = 2: the phase-1 LP stops short of 0
    status, value, _ = simplex_maximize(*_phase_one_lp([[1, 0], [1, 0]], [1, 2]))
    assert status == "optimal"
    assert value == -1


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
    assert all(v == 0 for v in mul_vector(IDH_C, res.witness))


def test_strictly_positive_kernel_rejects_bad_optimum(monkeypatch):
    # an LP optimum whose witness is not strictly positive is a bug, reported
    # as one even when asserts are stripped
    monkeypatch.setattr(polyhedra, "simplex_maximize",
                        lambda a, b, c, basis: (polyhedra.LPStatus.OPTIMAL, Fraction(1),
                                                [Fraction(0)] * len(c)))
    with pytest.raises(InternalInconsistencyError):
        strictly_positive_kernel(RationalMatrix([[1, -1]]))


def test_extreme_rays_check_their_output(monkeypatch):
    # a ray that is not primitive is a bug, reported as one
    monkeypatch.setattr(polyhedra, "_primitive", lambda row: [2 * x for x in row])
    with pytest.raises(InternalInconsistencyError):
        extreme_rays(TRIANGLE_C)


def test_extreme_rays_line():
    rays = extreme_rays(RationalMatrix([[1, -1]]))
    assert rays.rays == ((1, 1),)


def _in_nonneg_span(vector, rays):
    # vector = sum lambda_i rays_i with lambda >= 0  (LP feasibility)
    a_rows = [[r[i] for r in rays] for i in range(len(vector))]
    status, _, _ = oracle_simplex_maximize(a_rows, list(vector), [0] * len(rays))
    return status == "optimal"


def test_extreme_rays_idh_span():
    rays = extreme_rays(IDH_C)
    assert set(rays.rays) == {(1, 0, 1, 1, 0, 1), (0, 0, 0, 1, 1, 0), (1, 1, 0, 0, 0, 0)}
    for v in rays.rays:
        assert _in_nonneg_span(v, rays.rays)
        assert all(x == 0 for x in mul_vector(IDH_C, v))
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
        rows, rhs, basis = _started_lp(a, b)
        status, value, x = simplex_maximize(rows, rhs, c, basis)
        ref = linprog([-ci for ci in c], A_eq=np.array(a, dtype=float),
                      b_eq=np.array(b, dtype=float), bounds=[(0, None)] * (nvars + 1),
                      method="highs")
        assert status == "optimal"
        assert ref.status == 0
        assert abs(float(value) + ref.fun) < 1e-7, (a, b, c)
        done += 1


def test_positive_row_space_examples():
    def positive(a):
        return positive_row_space(a, kernel=integer_kernel_basis(a.transpose()))
    assert positive(IntegerMatrix([[2, 3]])) is True
    assert positive(IntegerMatrix([[1, -1]])) is False
    # the zero column blocks strict positivity here
    idh_a = IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]])
    assert positive(idh_a) is False


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
    assert mixed_volume(supports) == oracle_inclusion_exclusion_mixed_volume(supports)


@st.composite
def _segment_heavy_supports(draw):
    """1-5 supports in Z^n, n their number, with negative coordinates: one
    point, points on one line (two ends of lattice length up to 6, often
    with a point between), a copy of an earlier support, or a few points
    anywhere.  Small coordinates make the projections merge points."""
    n = draw(st.integers(1, 5))
    coordinate = st.integers(-3, 3)
    supports = []
    for _ in range(n):
        kind = draw(st.sampled_from(["point", "line", "copy", "cloud", "cloud"]))
        if kind == "copy" and supports:
            supports.append(draw(st.sampled_from(supports)))
        elif kind == "point":
            supports.append([tuple(draw(coordinate) for _ in range(n))])
        elif kind == "line":
            start = [draw(coordinate) for _ in range(n)]
            step = [draw(st.integers(-2, 2)) for _ in range(n)]
            steps = draw(st.sets(st.integers(-2, 3), min_size=1, max_size=3)) | {0}
            supports.append([tuple(a + t * d for a, d in zip(start, step)) for t in steps])
        else:
            supports.append(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                                          min_size=2, max_size=4)))
    return supports


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_segment_heavy_supports())
# a segment of lattice length 2 whose projection merges the other
# support's points into a segment of length 3
@example([[(0, 0), (2, 2)], [(0, 0), (1, 1), (3, 0)]])
# a single point, and a collinear support with a point between its ends
@example([[(1, -1)], [(0, 0), (1, 1)]])
@example([[(0, 0, 0), (-2, 2, 4), (-1, 1, 2)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
          [(0, 0, 0), (0, 0, 1), (1, 1, 1)]])
# the same segment twice: the second projects to a point
@example([[(0, 0), (3, 6)], [(0, 0), (3, 6)]])
# a single support in dimension 1, and one of a single point
@example([[(-2,), (4,), (1,)]])
@example([[(5,)]])
def test_mixed_volume_matches_cayley_oracle(supports):
    """Taking out segments first gives the mixed volume of the whole
    Cayley configuration's triangulation."""
    assert mixed_volume(supports) == oracle_mixed_volume(supports)


def _screen_pass():
    """The 117 networks a ``screen`` benchmark pass runs, with the analysis
    seeds it derives from their names."""
    generators = _load_bench("generators")
    for index, text in enumerate(generators.screen(20241122, 120)):
        if index not in (6, 21, 78):
            seed = zlib.crc32(f"screen_{index}".encode("utf-8"))
            analyze_network(parse_network(text), GroupMode.POSITIVE, seed)


def test_screen_pass_triangulates_what_segments_leave(monkeypatch):
    """A screen pass computes 10 mixed volumes (binomial systems settle
    before the stage); 5 of them reduce to one support in dimension 1 or
    hold a single point, so only 5 reach the placing triangulation."""
    calls = {"mixed_volume": 0, "triangulation": 0}
    volume, triangulation = polyhedra.mixed_volume, polyhedra._placing_triangulation

    def counting_volume(supports):
        calls["mixed_volume"] += 1
        return volume(supports)

    def counting_triangulation(points):
        if sys._getframe(1).f_code.co_name == "mixed_volume":
            calls["triangulation"] += 1
        return triangulation(points)
    monkeypatch.setattr(core, "mixed_volume", counting_volume)
    monkeypatch.setattr(polyhedra, "_placing_triangulation", counting_triangulation)
    _screen_pass()
    assert calls == {"mixed_volume": 10, "triangulation": 5}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: _points(k, 9)))
def test_polytope_volume_matches_facet_triangulation(points):
    # includes repeated, collinear and coplanar point sets of volume 0
    assert polytope_volume(points) == oracle_polytope_volume(points)
    # the pivot columns of the differences pick the start simplex that the
    # incremental elimination picked
    simplices = polyhedra._placing_triangulation(points)
    assert (simplices[0] if simplices else None) == oracle_start_simplex(points)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=k, max_size=k)))
@example([(1, 2), (1, 2)])
@example([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
def test_hyperplane_is_the_cofactor_normal(points):
    """The circuit of the difference rows is the primitive cofactor normal
    up to sign, and there is none exactly when that normal is zero."""
    expected = oracle_hyperplane(points)
    got = polyhedra._hyperplane(points)
    if expected is None:
        assert got is None
    else:
        normal, offset = expected
        assert got in (expected, (tuple(-x for x in normal), -offset))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6).filter(any))
@example([0, 0, 0, 0, 0, 1])
@example([6, 10, 15])
def test_quotient_rows_map_onto_the_quotient(u):
    """The rows are orthogonal to u, and their maximal minors have gcd 1, so
    they extend to a unimodular matrix: they map Z^n onto Z^n / Z u."""
    g = gcd(*u)
    u = [x // g for x in u]
    rows = polyhedra._quotient_rows(u)
    assert len(rows) == len(u) - 1
    assert all(sum(map(mul, row, u)) == 0 for row in rows)
    minors = [int(oracle_det([row[:j] + row[j + 1:] for row in rows])) for j in range(len(u))]
    assert gcd(*minors) == 1


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
    # inclusion-exclusion over Minkowski sums; they are binomial, so
    # ``analyze`` settles them before the mixed volume, which is called here
    _, system = crn._reduced_system(parse_network(text))
    assert system.n == 5 and core.binomial_quickcheck(system)
    supports = core._coset_supports(system, core.invariance_group(system))
    assert mixed_volume(supports) == expected


# -- integer kernels against their Fraction oracles ---------------------------


@pytest.mark.parametrize("a, b, c", [
    # rows tie in a ratio test of phase 1; Bland breaks the tie by basis
    # index, and the basis phase 1 ends in decides the point returned with
    # "unbounded"
    ([[2, -1], [0, -1], [0, -1]], [1, -2, -2], [1, 0]),
    ([[0, 0, 2, 1], [-2, 0, -2, 0]], [1, -1], [1, 1, 1, 1]),
    # the last two rows are redundant: an artificial stays basic at zero
    ([[1, 1, 0], [1, 1, 0], [2, 2, 0]], [3, 3, 6], [1, 2, 0]),
    # after phase 1 an artificial is driven out on a negative pivot
    ([[-1, -1], [2, -1]], [0, 0], [1, 1]),
    ([[-1, -2], [-1, 0]], [-1, -1], [1, 1]),
    # no constraints at all, and infeasible ones
    ([], [], [0, -1]),
    ([[1, 1]], [-1], [0, 0]),
    ([[1, 0], [1, 0]], [1, 2], [0, 0]),
    # unbounded, also without constraints
    ([[1, -1]], [0], [1, 0]),
    ([], [], [0, 1]),
    ([[1, -1, 0], [0, 0, 1]], [Fraction(1, 2), 3], [0, 1, -1]),
    # rational entries and negative right-hand sides
    ([[Fraction(1, 2), -1, 0], [1, 1, 1]], [Fraction(-1, 3), 2], [Fraction(-2, 3), 1, 0]),
    ([[Fraction(3, 4), Fraction(-5, 6)], [Fraction(1, 7), 1]], [Fraction(-2, 9), Fraction(5, 3)],
     [Fraction(1, 2), Fraction(1, 3)]),
])
def test_simplex_matches_fraction_tableau(a, b, c):
    _assert_simplex_matches_oracle(a, b, c)


def _integer_lp(a, b, c):
    """The LP with each constraint row, right-hand side included, and the
    costs scaled by the lcm of their denominators, and that cost factor."""
    rows, rhs = [], []
    for row, beta in zip(a, b):
        d = lcm(*(Fraction(x).denominator for x in [*row, beta]))
        rows.append([int(x * d) for x in row])
        rhs.append(int(beta * d))
    scale = lcm(*(Fraction(x).denominator for x in c))
    return rows, rhs, [int(x * scale) for x in c], scale


def _assert_simplex_matches_oracle(a, b, c):
    """On the LP scaled to integers, the integer simplex run as phase 1 from
    the artificial basis, and run from the basis the Fraction phase 1 ends
    in, gives the two-phase Fraction tableau's infeasibility, status,
    vertex and value; these are, unscaled, the original LP's."""
    rows, rhs, cost, scale = _integer_lp(a, b, c)
    status, value, x = oracle_simplex_maximize(rows, rhs, cost)
    phase_one = _phase_one_lp(rows, rhs)
    result = simplex_maximize(*phase_one)
    assert result == oracle_simplex_maximize(*phase_one)
    assert (result[1] < 0) == (status == "infeasible")
    start = _started_lp(rows, rhs)
    if start is not None:
        started_rows, started_rhs, basis = start
        assert simplex_maximize(started_rows, started_rhs, cost, basis) == (status, value, x)
    unscaled = value if value is None else value / scale
    assert (status, unscaled, x) == oracle_simplex_maximize(a, b, c)


_RATIONALS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _linear_programs(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=1, max_size=3))
    if draw(st.booleans()):  # a redundant row
        rows.append([2 * x for x in draw(st.sampled_from(rows))])
    b = draw(st.lists(_RATIONALS, min_size=len(rows), max_size=len(rows)))
    return rows, b, draw(st.lists(_RATIONALS, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_linear_programs())
def test_simplex_matches_fraction_tableau_random(lp):
    _assert_simplex_matches_oracle(*lp)


@st.composite
def _started_lps(draw):
    """The positive-kernel LP of a random integer matrix on its echelon rows,
    with its starting basis: the pivot columns and the slack.  Each row is
    scaled by a nonzero integer, negative ones included, so a basic entry
    can be negative.  The cost is the LP's own or a random one, which can
    leave the LP unbounded."""
    n = draw(st.integers(1, 6))
    m = IntegerMatrix(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                    min_size=1, max_size=4)))
    echelon, pivots = m.integer_echelon()
    rows = [[*row, sum(row), 0, 0] for row in echelon] + [[0] * n + [1, 1, 1]]
    for i in range(len(rows)):
        f = draw(st.sampled_from([-2, -1, 1, 3]))
        rows[i] = [f * x for x in rows[i]]
    c = draw(st.one_of(st.just([0] * n + [1, 0]),
                       st.lists(st.integers(-3, 3), min_size=n + 2, max_size=n + 2)))
    return [row[:-1] for row in rows], [row[-1] for row in rows], c, [*pivots, n + 1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_started_lps())
def test_started_simplex_matches_fraction_tableau_random(lp):
    """From a feasible starting basis the integer simplex gives the Fraction
    tableau's status, vertex and value from that basis, and the two-phase
    LP's status and optimal value."""
    a, b, c, basis = lp
    status, value, x = simplex_maximize(a, b, c, basis)
    assert (status, value, x) == oracle_simplex_maximize(a, b, c, basis)
    assert (status, value) == oracle_simplex_maximize(a, b, c)[:2]


@pytest.mark.parametrize("a, b, c, basis", [
    # rows tie in a ratio test; Bland breaks the tie by basis index, not by
    # row, which here decides the point returned with "unbounded"
    ([[2, 1, 0, 0, 1], [2, 0, -1, 1, 0]], [1, 1], [1, 1, 1, 0, 0], [4, 3]),
    # a tie that decides the optimal vertex
    ([[1, 2, -2, 1, 0], [1, 0, 1, 0, 1]], [1, 1], [1, 0, 2, 0, 0], [3, 4]),
])
def test_started_simplex_matches_fraction_tableau(a, b, c, basis):
    assert simplex_maximize(a, b, c, basis) == oracle_simplex_maximize(a, b, c, basis)


@st.composite
def _cone_equations(draw):
    """ker(m) in the nonnegative orthant is pointed; duplicated and scaled
    rows, and small entries, make the double description meet the same
    candidate ray several times over and proportional candidates."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
        rows.insert(draw(st.integers(0, len(rows))), [f * x for x in draw(st.sampled_from(rows))])
    return RationalMatrix(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cone_equations())
def test_extreme_rays_match_fraction_double_description(m):
    assert extreme_rays(m).rays == oracle_extreme_rays(m)


def test_corpus_kernel_calls_match_fraction_oracles(monkeypatch):
    # every LP, from the basis it is given, double description and circuit
    # basis the corpus analyses make
    from toricity import cli, core
    from _oracles import oracle_circuits

    calls = {"simplex": 0, "rays": 0, "circuits": 0}
    mismatches = []
    lp, rays = polyhedra.simplex_maximize, polyhedra.extreme_rays
    circuits = core.kernel_circuit_basis

    def checked_lp(a, b, c, basis):
        calls["simplex"] += 1
        result = lp(a, b, c, basis)
        if result != oracle_simplex_maximize(a, b, c, basis):
            mismatches.append(("simplex", a, b, c, basis))
        return result

    def checked_rays(m):
        calls["rays"] += 1
        result = rays(m)
        if result.rays != oracle_extreme_rays(m):
            mismatches.append(("rays", m))
        return result

    def checked_circuits(m):
        calls["circuits"] += 1
        result = circuits(m)
        vectors = tuple(tuple(Fraction(x, v[max(s)]) for x in v)
                        for v, s in zip(result.vectors, result.supports))
        if (vectors, result.supports) != oracle_circuits(m.to_lists(), m.cols):
            mismatches.append(("circuits", m))
        return result

    monkeypatch.setattr(polyhedra, "simplex_maximize", checked_lp)
    for module in (polyhedra, core):
        monkeypatch.setattr(module, "extreme_rays", checked_rays)
    monkeypatch.setattr(core, "kernel_circuit_basis", checked_circuits)
    models = sorted((Path(cli.__file__).parent / "data" / "models").iterdir())
    assert len(models) == 8
    for path in models:
        row = cli.run_batch_model(str(path), 0, 60)
        assert row["verdict"] not in ("error", "timeout"), row
    assert all(calls.values()), calls
    assert not mismatches, mismatches[:3]
