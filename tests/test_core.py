import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricity import core, crn, exactalg, polyhedra
from toricity.crn import analyze_network
from toricity.fileio import load_matrix_model, read_model
from toricity.exactalg import IntegerMatrix, RationalMatrix, _Matrix
from toricity.core import (
    AnalyzeOptions,
    DegenerateSliceError,
    EmptyLocusError,
    GroupMode,
    InternalInconsistencyError,
    InvarianceResult,
    MatroidPartition,
    Verdict,
    VerticalSystem,
    analyze,
    binomial_quickcheck,
    constant_coset_conditions,
    coset_counting_system,
    count_positive_cosets,
    injectivity_test,
    invariance_group,
    local_toricity,
    matroid_partition,
    nondegeneracy,
    nondegeneracy_all_positive,
    positive_locus_nonempty,
    quasihomogeneity_weights,
    render_exchange,
)
from toricity.polyring import SignVerdict, render

from _oracles import (
    RingPolynomial,
    mul_vector,
    oracle_circuits,
    oracle_count_cosets,
    oracle_lattice,
    oracle_rref,
    oracle_scaled_jacobian,
    oracle_simplex_maximize,
    polynomial_rows,
    same_row_lattice,
    solve,
    stacked_det,
    to_rational,
    zeros,
)
from test_families import cascade, multisite

MODELS = Path(__file__).resolve().parents[1] / "src" / "toricity" / "data" / "models"


def idh_system() -> VerticalSystem:
    return VerticalSystem(
        RationalMatrix([
            [-1, 1, 1, 0, 0, 0],
            [-1, 1, 0, 0, 0, 1],
            [0, 0, 0, 1, -1, -1],
        ]),
        IntegerMatrix([
            [1, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
        ]),
    )


def fig_system() -> VerticalSystem:
    return VerticalSystem(
        RationalMatrix([[-3, 3, 3, -1, 1], [1, -1, -1, 1, -1]]),
        IntegerMatrix([[6, 3, 0, 1, 0], [0, 2, 4, 0, 0], [0, 0, 0, 0, 5]]),
    )


def fig_free_system() -> VerticalSystem:
    # same support, every coefficient its own parameter
    return VerticalSystem(
        RationalMatrix([
            [-1, 1, 1, -1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, -1, -1, 1, -1],
        ]),
        IntegerMatrix([
            [6, 3, 0, 1, 0, 6, 3, 0, 1, 0],
            [0, 2, 4, 0, 0, 0, 2, 4, 0, 0],
            [0, 0, 0, 0, 5, 0, 0, 0, 0, 5],
        ]),
    )


def homogeneous_surface_system() -> VerticalSystem:
    return VerticalSystem(
        RationalMatrix([[-1, 1, 1]]),
        IntegerMatrix([[2, 1, 0], [0, 2, 2], [1, 0, 1]]),
    )


def square_system() -> VerticalSystem:
    # coefficients as realized by the four-cycle network 9X1 -> 3X1+4X2 ->
    # 6X2 -> 6X1+2X2 -> 9X1, which is the form with varying coset counts
    return VerticalSystem(
        RationalMatrix([[-2, -1, 2, 1]]),
        IntegerMatrix([[9, 3, 0, 6], [0, 4, 6, 2]]),
    )


def triangle_system() -> VerticalSystem:
    return VerticalSystem(
        RationalMatrix([[1, -1, 1, -2]]),
        IntegerMatrix([[3, 3, 0, 6], [2, 2, 4, 0]]),
    )


IDH_A = IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]])


# -- matroid partition --------------------------------------------------------


def test_matroid_partition_fig():
    part = matroid_partition(fig_system())
    assert set(part.blocks) == {frozenset({0, 1, 2}), frozenset({3, 4})}


def test_matroid_partition_idh_trivial():
    part = matroid_partition(idh_system())
    assert part.blocks == (frozenset(range(6)),)


def test_matroid_partition_direct_sum():
    sys_ = VerticalSystem(
        RationalMatrix([[1, -1, 0, 0], [0, 0, 1, -1]]),
        IntegerMatrix([[1, 0, 0, 1], [0, 1, 1, 0]]),
    )
    part = matroid_partition(sys_)
    assert set(part.blocks) == {frozenset({0, 1}), frozenset({2, 3})}


# -- positive locus -----------------------------------------------------------


def test_positive_locus_sign_blocked():
    sys_ = VerticalSystem(RationalMatrix([[1, 1]]), IntegerMatrix([[1, 0], [0, 1]]))
    assert positive_locus_nonempty(sys_, GroupMode.POSITIVE) is False
    assert positive_locus_nonempty(sys_, GroupMode.REAL_STAR) is True


def test_positive_locus_idh():
    assert positive_locus_nonempty(idh_system(), GroupMode.POSITIVE) is True


def test_positive_locus_trivial_kernel():
    sys_ = VerticalSystem(RationalMatrix([[1, 0], [0, 1]]), IntegerMatrix([[1, 0], [0, 1]]))
    for mode in GroupMode:
        assert positive_locus_nonempty(sys_, mode) is False


# -- invariance ---------------------------------------------------------------


def test_invariance_group_idh():
    inv = invariance_group(idh_system())
    assert inv.d == 2
    assert same_row_lattice(inv.A, IDH_A)


def test_invariance_group_fig():
    inv = invariance_group(fig_system())
    assert inv.d == 1
    assert same_row_lattice(inv.A, IntegerMatrix([[10, 15, 2]]))


def test_invariance_group_homogeneous():
    inv = invariance_group(homogeneous_surface_system())
    assert same_row_lattice(inv.A, IntegerMatrix([[1, 1, 1]]))


def test_invariance_group_free_parametrization_trivial():
    inv = invariance_group(fig_free_system())
    assert inv.d == 0


def test_invariance_group_empty_locus():
    sys_ = VerticalSystem(RationalMatrix([[1, 1]]), IntegerMatrix([[1, 0], [0, 1]]))
    with pytest.raises(EmptyLocusError):
        invariance_group(sys_, GroupMode.POSITIVE)


def test_invariance_lattice_stable_under_column_permutation():
    rng = random.Random(19)
    base = idh_system()
    perm = list(range(base.m))
    rng.shuffle(perm)
    permuted = VerticalSystem(
        RationalMatrix([[base.C.entry(i, j) for j in perm] for i in range(base.s)]),
        IntegerMatrix([[base.M.entry(i, j) for j in perm] for i in range(base.n)]),
    )
    assert same_row_lattice(invariance_group(base).A, invariance_group(permuted).A)


def test_invariance_blocks_orthogonality_random():
    rng = random.Random(4)
    checked = 0
    while checked < 30:
        s, m, n = rng.randint(1, 3), rng.randint(2, 6), rng.randint(1, 4)
        try:
            sys_ = VerticalSystem(
                RationalMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(s)]),
                IntegerMatrix([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]),
            )
        except ValueError:
            continue
        if sys_.s == 0 or not positive_locus_nonempty(sys_, GroupMode.COMPLEX_STAR):
            continue
        part = matroid_partition(sys_)
        inv = invariance_group(sys_, GroupMode.COMPLEX_STAR)
        for block in part.blocks:
            cols = sorted(block)
            for a, b in zip(cols, cols[1:]):
                diff = [sys_.M.entry(k, a) - sys_.M.entry(k, b) for k in range(sys_.n)]
                assert all(v == 0 for v in mul_vector(inv.A, diff))
        checked += 1


def test_quasihomogeneity_idh_agrees():
    weights = quasihomogeneity_weights(idh_system())
    assert same_row_lattice(weights, IDH_A)


def test_quasihomogeneity_fig_trivial():
    assert quasihomogeneity_weights(fig_system()).rows == 0


def test_quasihomogeneity_single_row():
    sys_ = square_system()
    assert same_row_lattice(quasihomogeneity_weights(sys_), invariance_group(sys_).A)


def test_quasihomogeneity_sublattice_property():
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        s, m, n = rng.randint(1, 3), rng.randint(2, 5), rng.randint(1, 4)
        try:
            sys_ = VerticalSystem(
                RationalMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(s)]),
                IntegerMatrix([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]),
            )
        except ValueError:
            continue
        if sys_.s == 0 or not positive_locus_nonempty(sys_, GroupMode.COMPLEX_STAR):
            continue
        inv = invariance_group(sys_, GroupMode.COMPLEX_STAR)
        weights = quasihomogeneity_weights(sys_)
        # every weight row lies in the invariance lattice
        stacked = IntegerMatrix.with_width(inv.A.to_lists() + weights.to_lists(), sys_.n)
        assert same_row_lattice(stacked, inv.A)
        checked += 1


# -- nondegeneracy ------------------------------------------------------------


def test_nondegeneracy_idh():
    nd = nondegeneracy(idh_system(), seed=0)
    assert nd.status == "yes"
    assert all(v == 0 for v in mul_vector(idh_system().C, nd.witness))


def test_nondegeneracy_refuted():
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 1]]))
    assert nondegeneracy(sys_, seed=0).status == "no"


def test_nondegeneracy_homogeneous():
    assert nondegeneracy(homogeneous_surface_system(), seed=0).status == "yes"


def test_all_positive_idh():
    res = nondegeneracy_all_positive(idh_system())
    assert res.status == "yes"


def test_all_positive_idh_certificate_matches_reference():
    # the certificate minor on variable columns 1, 3, 4 factors as
    # (u_a + u_c) * u_a * (u_a + u_b), with u_a the coefficient of the ray
    # (1,0,1,1,0,1), u_b of (0,0,0,1,1,0), u_c of (1,1,0,0,0,0)
    from toricity.polyhedra import extreme_rays
    from toricity.polyring import det_symbolic

    sys_ = idh_system()
    rays = extreme_rays(sys_.C).rays
    lam = tuple(f"l{k+1}" for k in range(len(rays)))
    var_of = {ray: RingPolynomial.variable(lam, lam[i]) for i, ray in enumerate(rays)}
    ua = var_of[(1, 0, 1, 1, 0, 1)]
    ub = var_of[(0, 0, 0, 1, 1, 0)]
    uc = var_of[(1, 1, 0, 0, 0, 0)]
    expected = (ua + uc) * ua * (ua + ub)
    top = oracle_scaled_jacobian(sys_, rays, lam)
    minor = det_symbolic([[top[i][j] for j in (0, 2, 3)] for i in range(3)])
    assert minor == expected
    res = nondegeneracy_all_positive(sys_)
    assert res.status == "yes"
    assert res.minor_columns == (0, 2, 3)
    assert res.certificate == expected


def test_all_positive_triangle():
    assert nondegeneracy_all_positive(triangle_system()).status == "yes"


def test_triangle_augmented_determinant_matches_reference(monkeypatch):
    # determinant of [C diag(w) M^T diag(h); A] with w on the positive kernel
    # rays: equals -(9 h1 + 4 h2)(2 u_a + 4 u_b + u_c) with u_a the
    # coefficient of ray (2,0,0,1), u_b of (0,0,2,1), u_c of (0,1,1,0);
    # condition (ii) takes the same determinant
    from toricity.polyhedra import extreme_rays
    from toricity.polyring import det_stacked

    sys_ = triangle_system()
    inv = invariance_group(sys_)
    rays = extreme_rays(sys_.C).rays
    lam = tuple(f"l{k+1}" for k in range(len(rays)))
    hv = ("h1", "h2")
    vs = lam + hv
    base = oracle_scaled_jacobian(sys_, rays, vs)  # in the ring of the l and h variables
    top = [[base[0][k] * RingPolynomial.variable(vs, hv[k]) for k in range(2)]]
    det = stacked_det(top, to_rational(inv.A))
    var_of = {ray: RingPolynomial.variable(vs, lam[i]) for i, ray in enumerate(rays)}
    h1 = RingPolynomial.variable(vs, "h1")
    h2 = RingPolynomial.variable(vs, "h2")
    expected = -(h1.scale(9) + h2.scale(4)) * (
        var_of[(2, 0, 0, 1)].scale(2) + var_of[(0, 0, 2, 1)].scale(4)
        + var_of[(0, 1, 1, 0)]
    )
    assert det == expected
    taken = []

    def recording(rows, scales, variables, bottom):
        assert variables == vs and bottom == inv.A
        assert polynomial_rows(rows, scales, variables) == top
        taken.append(det_stacked(rows, scales, variables, bottom))
        return taken[-1]
    monkeypatch.setattr(core, "det_stacked", recording)
    assert core._augmented_all_positive(sys_, inv) == "yes"
    assert taken == [expected]


def test_all_positive_one_row():
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 0], [0, 1]]))
    assert nondegeneracy_all_positive(sys_).status == "yes"


def test_all_positive_square_unknown():
    assert nondegeneracy_all_positive(square_system()).status == "unknown"


def test_all_positive_empty_locus():
    sys_ = VerticalSystem(RationalMatrix([[1, 1]]), IntegerMatrix([[1, 0], [0, 1]]))
    with pytest.raises(EmptyLocusError):
        nondegeneracy_all_positive(sys_)


# -- local toricity -----------------------------------------------------------


def test_local_toricity_dimension_gap():
    sys_ = homogeneous_surface_system()
    inv = invariance_group(sys_)
    nd = nondegeneracy(sys_, 0)
    assert local_toricity(sys_, inv, nd) == Verdict.NOT_LOCALLY_TORIC


def test_local_toricity_all_positive():
    sys_ = idh_system()
    inv = invariance_group(sys_)
    nd = nondegeneracy(sys_, 0)
    # all-positive nondegeneracy holds, but the upgrade to locally_toric is
    # analyze's, not the dimension test's
    assert nondegeneracy_all_positive(sys_).status == "yes"
    assert local_toricity(sys_, inv, nd) == Verdict.GENERICALLY_LOCALLY_TORIC


def test_local_toricity_point_fibers():
    # zero-dimensional lattice, square nondegenerate system: generic fibers
    # are points
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 0]]))
    inv = invariance_group(sys_)
    assert inv.d == 0
    nd = nondegeneracy(sys_, 0)
    assert local_toricity(sys_, inv, nd) == Verdict.GENERICALLY_LOCALLY_TORIC


def test_local_toricity_inconsistency_guard():
    sys_ = idh_system()
    nd = nondegeneracy(sys_, 0)
    fake = InvarianceResult(IntegerMatrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]),
                            3, GroupMode.POSITIVE)
    with pytest.raises(InternalInconsistencyError):
        local_toricity(sys_, fake, nd)


# -- injectivity --------------------------------------------------------------


def test_injectivity_idh_toric():
    sys_ = idh_system()
    res = injectivity_test(sys_, invariance_group(sys_))
    assert res.toric
    assert res.sign == SignVerdict.ALL_NEGATIVE
    assert len(res.determinant.terms) == 6


def test_injectivity_square_inconclusive():
    sys_ = square_system()
    res = injectivity_test(sys_, invariance_group(sys_))
    assert not res.toric
    assert res.sign == SignVerdict.MIXED_SIGNS


def test_injectivity_triangle_inconclusive():
    sys_ = triangle_system()
    assert not injectivity_test(sys_, invariance_group(sys_)).toric


# -- coset counting -----------------------------------------------------------


def test_coset_counting_system_point():
    sys_ = square_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [Fraction(1, 100), 3, 1, 1], point=(1, 1))
    assert ccs.b == (5,)
    ccs2 = coset_counting_system(sys_, inv, [1, 1, 1, 1], seed=3)
    assert all(x > 0 for x in ccs2.point)
    assert ccs2.b == mul_vector(to_rational(inv.A), ccs2.point)


def test_coset_counting_no_slice():
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 0]]))
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1, 2], seed=0)
    assert ccs.b == ()
    assert count_positive_cosets(ccs) == 1  # x - 2 = 0 on the positive axis


def test_coset_counting_requires_positive_kappa():
    sys_ = square_system()
    inv = invariance_group(sys_)
    with pytest.raises(ValueError):
        coset_counting_system(sys_, inv, [1, -1, 1, 1])


def test_count_square_network_three_then_one():
    sys_ = square_system()
    inv = invariance_group(sys_)
    kappa_three = [Fraction(1, 100), 3, 1, 1]
    kappa_one = [Fraction(1, 100), 1, 1, 1]
    for seed in (0, 1, 2):  # count independent of the slice offset
        assert count_positive_cosets(coset_counting_system(sys_, inv, kappa_three, seed=seed)) == 3
    assert count_positive_cosets(coset_counting_system(sys_, inv, kappa_one, seed=0)) == 1


def test_count_triangle_unique():
    sys_ = triangle_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1, 1, 1, 1], point=(1, 1))
    assert count_positive_cosets(ccs) == 1


def test_count_exact_on_unbounded_segment():
    # hyperbola k1*x1*x2 - k2 = 0 sliced by x1 - x2 = b: the positive segment
    # is a half-line and the count is still exact
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 0], [1, 0]]))
    inv = invariance_group(sys_)
    assert inv.A.to_lists() == [[1, -1]]
    for seed in (0, 1):
        ccs = coset_counting_system(sys_, inv, [2, 3], seed=seed)
        assert count_positive_cosets(ccs) == 1


def test_count_needs_one_equation():
    sys_ = idh_system()
    ccs = coset_counting_system(sys_, invariance_group(sys_), [1] * 6, seed=0)
    assert sys_.s == 3
    with pytest.raises(ValueError, match="export") as info:
        count_positive_cosets(ccs)
    assert not isinstance(info.value, DegenerateSliceError)


def test_count_export():
    sys_ = idh_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1] * 6, seed=0)
    text = render_exchange(ccs)
    assert "# variables" in text and "# polynomials" in text and "# linear" in text
    assert text.count("\n") >= 3 + 2


def _counting_system(rng):
    """A random one-equation system whose exponent columns lie on a line,
    so that its invariance lattice has rank n - 1 (for n = 1 any columns
    do), with a coefficient of each sign, and its counting system at a
    random kappa; None where the positive locus is empty."""
    n, m = rng.randint(1, 4), rng.randint(2, 6)
    base = [rng.randint(-2, 3) for _ in range(n)]
    step = [rng.randint(-2, 2) for _ in range(n)]
    cols = [[b + k * u for b, u in zip(base, step)] for k in (rng.randint(0, 4) for _ in range(m))]
    coeffs = [rng.choice([-3, -2, -1, 0, 1, 2, 3]) for _ in range(m - 2)] + [1, -1]
    rng.shuffle(coeffs)
    M = IntegerMatrix([list(r) for r in zip(*cols)], m)
    sys_ = VerticalSystem(RationalMatrix([coeffs]), M)
    if not positive_locus_nonempty(sys_, GroupMode.POSITIVE):
        return None
    inv = invariance_group(sys_)
    if inv.d != sys_.n - 1:
        return None
    kappa = [Fraction(rng.randint(1, 64), rng.randint(1, 8)) for _ in range(m)]
    return coset_counting_system(sys_, inv, kappa, seed=rng.randint(0, 99))


def test_count_matches_solve_and_circuit_oracle():
    """The count on the line through the slice point along the integer
    kernel of A equals the count on the line through the RREF solution of
    A x = b along the circuit of ker A, by Descartes bisection, on random
    one-equation systems with n from 1 to 4."""
    rng = random.Random(1919)
    sizes, counts, done = Counter(), Counter(), 0
    while done < 300:
        h = _counting_system(rng)
        if h is None:
            continue
        expected = oracle_count_cosets(h)
        if expected is None:
            with pytest.raises(DegenerateSliceError):
                count_positive_cosets(h)
        else:
            assert count_positive_cosets(h) == expected, h
        sizes[h.base.n] += 1
        counts[expected] += 1
        done += 1
    assert set(sizes) == {1, 2, 3, 4}, sizes
    assert {0, 1, 2} <= set(counts), counts


def test_degenerate_slice():
    sys_ = square_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1, 1, 1, 1], point=(1, 1))
    broken = type(ccs)(ccs.base, IntegerMatrix([[0, 0]]), ccs.kappa, (Fraction(0),), ccs.point)
    with pytest.raises(DegenerateSliceError):
        count_positive_cosets(broken)


# -- constant count conditions -----------------------------------------------


def test_constant_conditions_triangle():
    sys_ = triangle_system()
    inv = invariance_group(sys_)
    conds = constant_coset_conditions(sys_, inv, boundary="yes")
    assert conds.boundary_empty == "yes"
    assert conds.rank_all_positive == "yes"
    assert conds.row_space_positive is True
    assert conds.all_hold


def test_constant_conditions_mixed_slice():
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[2, 1], [0, 1]]))
    inv = invariance_group(sys_)
    # force a sign-mixed slice matrix to exercise condition (iii)
    fake = InvarianceResult(IntegerMatrix([[1, -1]]), 1, GroupMode.POSITIVE)
    conds = constant_coset_conditions(sys_, fake, boundary="unknown")
    assert conds.row_space_positive is False
    assert conds.boundary_empty == "unknown"


# -- binomial quick check -----------------------------------------------------


def test_binomial_quickcheck_chain():
    sys_ = VerticalSystem(
        RationalMatrix([[1, -1, 0], [0, 1, -1]]),
        IntegerMatrix([[1, 0, 2], [0, 1, 1]]),
    )
    assert binomial_quickcheck(sys_) is True


def test_binomial_quickcheck_false_cases():
    assert binomial_quickcheck(idh_system()) is False
    assert binomial_quickcheck(fig_system()) is False


@st.composite
def _binomial_systems(draw):
    """Binomial systems with n <= 8: row i of C is a_i e_p - b_i e_f with
    a_i, b_i > 0 (times a random sign), p a column of its own and f one of
    1-3 free columns, the columns permuted and the rows mixed by a unit
    lower triangular integer matrix; M is random.  Returns C, M, a seed."""
    n = draw(st.integers(1, 8))
    s = draw(st.integers(1, n))
    free = draw(st.integers(1, 3))
    m = s + free
    order = draw(st.permutations(range(m)))
    rows = []
    for i in range(s):
        row = [0] * m
        sign = draw(st.sampled_from((1, -1)))
        row[order[i]] = sign * draw(st.integers(1, 4))
        row[order[s + draw(st.integers(0, free - 1))]] = -sign * draw(st.integers(1, 4))
        rows.append(row)
    C = []
    for i, row in enumerate(rows):
        mix = [draw(st.integers(-2, 2)) for _ in range(i)]
        C.append([x + sum(c * rows[k][j] for k, c in enumerate(mix)) for j, x in enumerate(row)])
    M = draw(st.lists(st.lists(st.integers(-2, 3), min_size=m, max_size=m),
                      min_size=n, max_size=n))
    return C, M, draw(st.integers(0, 1 << 16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_binomial_systems())
def test_binomial_certificate_matches_exact_oracles(case):
    """Exactly where the differences M_p - M_f of the binomial RREF rows
    are independent (s + d = n), ``analyze`` settles toric by the binomial
    certificate, and exact Fraction arithmetic agrees with what it claims:
    D^T y = r is solvable at a random r, A spans ker D^T, C diag(w) M^T
    has rank s at random strictly positive kernel vectors w, and with one
    equation the counting system has one positive zero at a random kappa.
    Injectivity is never consulted: a binomial system can have a
    mixed-sign injectivity determinant."""
    C, M, seed = case
    sys_ = VerticalSystem(RationalMatrix(C), IntegerMatrix(M))
    n, m, s = sys_.n, sys_.m, sys_.s
    assert binomial_quickcheck(sys_)
    red, pivots = oracle_rref(C, m)
    pairs = [(p, next(j for j in range(m) if j != p and red[i][j])) for i, p in enumerate(pivots)]
    D = [[M[k][p] - M[k][f] for p, f in pairs] for k in range(n)]  # n x s
    rep = analyze(sys_, GroupMode.POSITIVE, seed % 97)
    stages = {e.test: e.outcome for e in rep.evidence}
    if len(oracle_rref(D, s)[1]) < s:  # dependent differences: no certificate
        assert "binomial_certificate" not in stages and rep.verdict is not Verdict.TORIC
        return
    assert stages.get("binomial_certificate") == "toric" and "injectivity" not in stages
    assert rep.verdict is Verdict.TORIC and rep.nondegenerate == "yes-for-all-positive"
    assert rep.d == n - s

    rng = random.Random(seed)
    Dt = RationalMatrix([[D[k][i] for k in range(n)] for i in range(s)])
    assert solve(Dt, [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(s)])
    A = rep.invariance.A
    assert A.rows == n - s and all(not any(mul_vector(Dt, A.row(i))) for i in range(A.rows))
    assert len(oracle_rref(A.to_lists(), n)[1]) == n - s

    circuits, _ = oracle_circuits(C, m)
    assert all(min(v) >= 0 for v in circuits)
    for _ in range(3):
        coeffs = [Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in circuits]
        w = [sum(c * v[j] for c, v in zip(coeffs, circuits)) for j in range(m)]
        assert min(w) > 0
        jacobian = [[sum(Fraction(C[i][j]) * w[j] * M[k][j] for j in range(m)) for k in range(n)]
                    for i in range(s)]
        assert len(oracle_rref(jacobian, n)[1]) == s

    if s == 1:
        kappa = [Fraction(rng.randint(1, 999), rng.randint(1, 99)) for _ in range(m)]
        h = coset_counting_system(sys_, rep.invariance, kappa, seed)
        assert count_positive_cosets(h) == oracle_count_cosets(h) == 1


def test_vertical_system_row_basis_replacement():
    # dependent coefficient rows are replaced by a canonical row basis
    n_rows = [
        [-1, 1, 1, 0, 0, 0],
        [-1, 1, 0, 0, 0, 1],
        [1, -1, -1, -1, 1, 1],
        [0, 0, 1, -1, 1, 0],
        [0, 0, 0, 1, -1, -1],
    ]
    sys_ = VerticalSystem(RationalMatrix(n_rows), idh_system().M)
    assert sys_.s == 3
    stacked = RationalMatrix(n_rows + sys_.C.to_lists())
    assert stacked.rank() == 3


@st.composite
def _coefficient_rows(draw):
    """Rational coefficient rows, with a combination of two of them or a
    zero row inserted half the time."""
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=3))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        f, g = draw(entry), draw(entry)
        rows.insert(draw(st.integers(0, len(rows))), [f * x + g * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coefficient_rows())
def test_rank_deficient_coefficients_become_the_rref(rows):
    """C without full row rank becomes the nonzero rows of its Fraction
    RREF, holding the integer rows and echelon form a fresh copy computes;
    C of full row rank is kept.  The binomial check reads the RREF rows'
    sign pattern either way."""
    C = RationalMatrix(rows)
    sys_ = VerticalSystem(C, IntegerMatrix([[1] * C.cols] * len(rows)))
    red, pivots = oracle_rref(rows, C.cols)
    basis = red[: len(pivots)]
    if len(pivots) == C.rows:
        assert sys_.C is C
    else:
        assert sys_.C.to_lists() == [list(r) for r in basis]
        fresh = RationalMatrix(sys_.C.to_lists(), C.cols)
        assert sys_.C.integer_rows() == fresh.integer_rows()
        assert sys_.C.integer_echelon() == fresh.integer_echelon()
    binomial = all(len(nz) == 2 and nz[0] * nz[1] < 0
                   for nz in ([x for x in row if x] for row in basis))
    assert binomial_quickcheck(sys_) is binomial


def _old_fingerprint(sys_) -> str:
    h = hashlib.sha256()
    h.update(repr(sys_.C).encode())
    h.update(repr(sys_.M).encode())
    return h.hexdigest()[:12]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coefficient_rows(), st.integers(0, 2))
def test_fingerprint_text_from_integer_rows(rows, low):
    """The fingerprint writes C from its integer rows, with the text of
    ``repr(C)``: the same digest whether C is kept or is its RREF."""
    C = RationalMatrix(rows)
    M = IntegerMatrix([[(i + j) % 3 - low for j in range(C.cols)] for i in range(len(rows))])
    sys_ = VerticalSystem(C, M)
    assert sys_.fingerprint() == _old_fingerprint(sys_)


def test_fingerprint_of_json_model_with_fractional_negative_C():
    sys_ = load_matrix_model({"C": [["-1/2", "3", "-7/3"], ["2/4", "-3", "7/3"]],
                              "M": [[1, 0, 2], [0, 1, 1]]}).system
    assert sys_.C.rows == 1
    assert sys_.fingerprint() == _old_fingerprint(sys_)
    sys_ = load_matrix_model({"C": [["-1/2", "3", "-7/3"], ["0", "-5/6", "-4"]],
                              "M": [[1, 0, 2], [0, 1, 1]]}).system
    assert sys_.C.rows == 2
    assert sys_.fingerprint() == _old_fingerprint(sys_)


# -- analyze ------------------------------------------------------------------


def test_analyze_idh_toric():
    rep = analyze(idh_system(), seed=0)
    assert rep.verdict == Verdict.TORIC
    assert rep.d == 2
    assert rep.nondegenerate == "yes-for-all-positive"
    assert rep.injectivity.toric
    assert rep.coset_count == 1
    assert same_row_lattice(rep.invariance.A, IDH_A)


def test_analyze_homogeneous_not_locally_toric():
    rep = analyze(homogeneous_surface_system(), seed=0)
    assert rep.verdict == Verdict.NOT_LOCALLY_TORIC
    assert rep.d == 1
    assert rep.nondegenerate == "yes"


def test_analyze_free_system_zero_lattice():
    rep = analyze(fig_free_system(), seed=0)
    assert rep.d == 0
    assert rep.verdict == Verdict.NOT_LOCALLY_TORIC


def test_analyze_triangle_with_boundary():
    rep = analyze(triangle_system(), seed=0,
                  options=AnalyzeOptions(kappa=(1, 1, 1, 1), boundary="yes"))
    assert rep.verdict == Verdict.TORIC
    assert rep.mixed_volume_bound == 6
    assert rep.conditions.all_hold
    assert rep.coset_count == 1
    assert rep.parameter_region_full


def _block_diagonal(a: list[list], b: list[list]) -> list[list]:
    return ([row + [0] * len(b[0]) for row in a]
            + [[0] * len(a[0]) + row for row in b])


def test_analyze_two_equations_reports_the_bound_not_a_count():
    """The triangle cycle's steady state taken twice, on disjoint variables
    and parameters, passes every constant-count condition with s = 2: the
    verdict rests on the conditions, and no count is reported."""
    one = crn.steady_state_system(read_model(MODELS / "triangle_cycle.crn").network)
    sys_ = VerticalSystem(RationalMatrix(_block_diagonal(one.C.to_lists(), one.C.to_lists())),
                          IntegerMatrix(_block_diagonal(one.M.to_lists(), one.M.to_lists())))
    assert (sys_.s, sys_.n) == (2, 4)
    rep = analyze(sys_, seed=0, options=AnalyzeOptions(boundary="yes"))
    assert rep.verdict == Verdict.LOCALLY_TORIC
    assert rep.constant_count
    assert rep.conditions.row_space_positive and rep.conditions.boundary_empty == "yes"
    assert rep.coset_count_kind is None and rep.coset_count is None
    assert rep.to_dict()["coset_count_kind"] is None
    assert ("coset_count", "skipped (s=2; exact count needs one equation)") in [
        (e.test, e.outcome) for e in rep.evidence]
    assert rep.notes == [f"locally toric with a constant number of cosets, at most "
                         f"{rep.mixed_volume_bound}"]


def test_analyze_square_generic_only():
    rep = analyze(square_system(), seed=0)
    assert rep.verdict == Verdict.GENERICALLY_LOCALLY_TORIC
    assert not rep.injectivity.toric
    assert rep.mixed_volume_bound is not None and rep.mixed_volume_bound >= 3


def test_analyze_mixed_volume_budget_keeps_verdict(monkeypatch):
    # a triangulation past the simplex cap skips the bound, not the analysis
    monkeypatch.setattr(polyhedra, "_SIMPLEX_BUDGET", 3)
    model = read_model(Path(__file__).resolve().parents[1] / "src" / "toricity" / "data"
                       / "models" / "sparse_pair.json")
    rep = analyze(model.system, model.mode, seed=0)
    assert ("mixed_volume", "skipped (budget)") in [(e.test, e.outcome) for e in rep.evidence]
    assert rep.mixed_volume_bound is None
    assert rep.verdict is not None


def test_analyze_empty_positive_locus():
    sys_ = VerticalSystem(RationalMatrix([[1, 1]]), IntegerMatrix([[1, 0], [0, 1]]))
    rep = analyze(sys_, seed=0)
    assert rep.verdict == Verdict.EMPTY_POSITIVE_LOCUS


def test_analyze_real_star_stops_at_generic():
    rep = analyze(idh_system(), mode=GroupMode.REAL_STAR, seed=0)
    assert rep.verdict == Verdict.GENERICALLY_LOCALLY_TORIC
    assert any("positive mode" in note for note in rep.notes)


def test_analyze_complex_star_matches_real_star_here():
    a = analyze(idh_system(), mode=GroupMode.COMPLEX_STAR, seed=0)
    b = analyze(idh_system(), mode=GroupMode.REAL_STAR, seed=0)
    assert a.verdict == b.verdict == Verdict.GENERICALLY_LOCALLY_TORIC
    assert same_row_lattice(a.invariance.A, b.invariance.A)


def test_analyze_empty_equation_system():
    # zero equations: the zero set is the whole positive orthant, one coset
    sys_ = VerticalSystem(zeros(0, 2), IntegerMatrix([[1, 0], [0, 1]]))
    assert sys_.s == 0
    rep = analyze(sys_, seed=0)
    assert rep.verdict == Verdict.TORIC
    assert rep.d == sys_.n
    # A is the identity, and the determinant of [no top rows; A] is det A = 1
    assert rep.injectivity.toric
    assert render(rep.injectivity.determinant) == "1"
    assert rep.injectivity.sign == SignVerdict.ALL_POSITIVE


@st.composite
def _kernel_questions(draw):
    """A random integer C with at most 8 columns, among them zero, duplicate
    and proportional columns, and possibly a zero row."""
    s = draw(st.integers(0, 4))
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "zero", "copy", "multiple"]))
        if kind == "zero":
            cols.append([0] * s)
        elif kind == "random" or not cols:
            cols.append(draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s)))
        else:
            f = 1 if kind == "copy" else draw(st.sampled_from([-2, -1, 2, 3]))
            cols.append([f * x for x in draw(st.sampled_from(cols))])
    rows = [list(row) for row in zip(*cols)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(cols))
    return rows, len(cols)


def test_positive_kernel_agrees_with_the_lp_oracle(monkeypatch):
    """``VerticalSystem.positive_kernel`` decides emptiness as the Fraction
    LP does: maximize t subject to C(u + t 1) = 0, u >= 0, t <= 1.  Every
    witness is strictly positive and lies exactly in ker C.  Both routes are
    taken, the sum of the nonnegative circuits and the LP, and the LP finds
    both empty and nonempty kernels."""
    routes = Counter()
    lp = core.strictly_positive_kernel
    monkeypatch.setattr(core, "strictly_positive_kernel",
                        lambda m: routes.update(["lp"]) or lp(m))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_kernel_questions())
    def check(question):
        rows, n = question
        C = RationalMatrix(rows, n)
        sys_ = VerticalSystem(C, IntegerMatrix([[int(i == j) for j in range(n)]
                                                for i in range(n)]))
        before = routes["lp"]
        witness = sys_.positive_kernel.witness
        routes["circuits" if routes["lp"] == before else "lp route", witness is None] += 1
        a_rows = [[*row, sum(row), 0] for row in rows] + [[0] * n + [1, 1]]
        status, value, _ = oracle_simplex_maximize(a_rows, [0] * len(rows) + [1],
                                                   [0] * n + [1, 0])
        assert status == "optimal"
        assert (witness is None) == (value == 0)
        if witness is not None:
            assert len(witness) == n and all(x > 0 for x in witness)
            assert all(v == 0 for v in mul_vector(C, witness))

    check()
    # the circuits settle only nonempty kernels; the LP settles both kinds
    assert routes["circuits", False] and routes["lp route", False] and routes["lp route", True]


def test_analyze_evidence_ordering():
    toric_rep = analyze(idh_system(), seed=0)
    glt_prefix = ["binomial_quickcheck", "support_union", "positive_kernel",
                  "matroid_partition", "invariance_group", "quasihomogeneity",
                  "nondegeneracy", "dimension_test"]
    names = [e.test for e in toric_rep.evidence]
    assert names[: len(glt_prefix)] == glt_prefix
    assert len(names) > len(glt_prefix)


def _count_builder_inputs(monkeypatch) -> Counter:
    """Count, per builder and input matrix, the calls the pipeline makes to
    the builders of the objects derived from (C, M), through the bindings
    of ``core``, ``polyhedra`` and ``crn``, and every rank taken, of either
    matrix class.  Also count the integer eliminations and the
    scalings of rational rows to integers that ``exactalg`` makes, by their
    input, and the eliminations each matrix's echelon form takes, by
    matrix.  The siphon test eliminates permuted rows through its own
    binding, so it is not counted."""
    seen = Counter()
    for name in ("kernel_circuit_basis", "strictly_positive_kernel", "extreme_rays",
                 "integer_kernel_basis"):
        def counting(m, *rest, _name=name, _build=getattr(core, name)):
            seen[_name, m] += 1
            return _build(m, *rest)
        for module in (core, polyhedra, crn):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    rank = _Matrix.rank

    def counting_rank(m):
        seen["rank", m] += 1
        return rank(m)
    monkeypatch.setattr(_Matrix, "rank", counting_rank)
    integer_rref, integer_scaling = exactalg._integer_rref, exactalg._integer_scaling
    echelon = _Matrix.integer_echelon

    def counting_rref(rows, ncols):
        seen["eliminated", tuple(map(tuple, rows)), ncols] += 1
        seen["eliminations"] += 1
        return integer_rref(rows, ncols)

    def counting_echelon(m):
        before = seen["eliminations"]
        result = echelon(m)
        seen["echelon", m] += seen["eliminations"] - before
        return result

    def counting_scaling(vec):
        seen["scaling", tuple(vec)] += 1
        return integer_scaling(vec)
    monkeypatch.setattr(exactalg, "_integer_rref", counting_rref)
    monkeypatch.setattr(_Matrix, "integer_echelon", counting_echelon)
    monkeypatch.setattr(exactalg, "_integer_scaling", counting_scaling)
    return seen


def _assert_built_once(seen: Counter, systems):
    """Each derived object is built once: among them the integer kernel of
    each scaling lattice A, which condition (iii) and the coset count
    share.  Each system's C is reduced at most once, when the system is
    made, and never again downstream, and its rows are scaled to integers
    at most once.  Each scaling lattice reaches the integer elimination at
    most once, however many stages read its echelon form."""
    builds = {key: count for key, count in seen.items()
              if key[0] not in ("rank", "eliminated", "echelon", "scaling")
              and key != "eliminations"}
    assert builds and max(builds.values()) == 1, builds
    for sys_ in systems:
        assert seen["echelon", sys_.C] <= 1, sys_.C
        assert max((seen["scaling", sys_.C.row(i)] for i in range(sys_.s)), default=0) <= 1
        for A in sys_._lattices.values():
            assert seen["echelon", A] <= 1, A


@st.composite
def _partitioned_exponents(draw):
    """An exponent matrix, some of whose columns repeat others, and a
    partition of its columns: all singletons, one block, or random blocks."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(1, 7))
    cols = draw(st.lists(st.lists(st.integers(-2, 4), min_size=n, max_size=n),
                         min_size=1, max_size=m))
    while len(cols) < m:
        cols.append(draw(st.sampled_from(cols)))
    cols = draw(st.permutations(cols))
    shape = draw(st.sampled_from(("singletons", "one block", "random")))
    if shape == "singletons":
        labels = list(range(m))
    elif shape == "one block":
        labels = [0] * m
    else:
        labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    blocks = {}
    for j, label in enumerate(labels):
        blocks.setdefault(label, set()).add(j)
    partition = MatroidPartition(tuple(sorted(map(frozenset, blocks.values()), key=min)), m)
    return [[c[k] for c in cols] for k in range(n)], partition


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_partitioned_exponents())
def test_lattice_matches_augmented_kernel(case):
    """The kernel of the difference matrix is the lattice the integer kernel
    of M with one indicator row per block gives, projected and put in
    Hermite form: the same matrix, entry for entry."""
    rows, partition = case
    m = partition.ground_size
    sys_ = VerticalSystem(zeros(0, m), IntegerMatrix(rows, m))
    lattice = sys_.lattice(partition)
    assert lattice.cols == sys_.n
    assert lattice.to_lists() == oracle_lattice(rows, sys_.n, partition.blocks)


def test_invariance_group_same_for_every_group():
    """The scaling lattice depends on (C, M) only: on a freshly built system
    each group gives the identical matrix."""
    pairs = [(model.system.C, model.system.M)
             for model in map(read_model, sorted(MODELS.glob("*.json")))]
    assert len(pairs) == 3
    rng = random.Random(61)
    while len(pairs) < 3 + 40:
        s, m, n = rng.randint(1, 3), rng.randint(2, 6), rng.randint(1, 4)
        try:
            sys_ = VerticalSystem(
                RationalMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(s)]),
                IntegerMatrix([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]),
            )
        except ValueError:
            continue
        if positive_locus_nonempty(sys_, GroupMode.POSITIVE):
            pairs.append((sys_.C, sys_.M))
    for C, M in pairs:
        lattices = [invariance_group(VerticalSystem(C, M), mode).A for mode in GroupMode]
        assert lattices[0] == lattices[1] == lattices[2], (C, M)


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS.glob("*.json")))
def test_analyze_builds_derived_objects_once(monkeypatch, name):
    model = read_model(MODELS / name)
    seen = _count_builder_inputs(monkeypatch)
    analyze(model.system, model.mode, seed=0)
    _assert_built_once(seen, [model.system])
    assert seen["echelon", model.system.C] == 0


@pytest.mark.parametrize("name, source", [("idh.crn", "reduced"),
                                          ("shinar_feinberg.crn", "reduced"),
                                          ("triangle_cycle.crn", "direct")])
def test_analyze_network_builds_derived_objects_once(monkeypatch, name, source):
    """Besides the derived objects: N and M are built once per network (the
    reduced one included); N is eliminated once, as [N | I], for both its
    row basis and its conservation laws, and never transposed, reduced or
    ranked on its own; the RREF of N that becomes C and the conservation
    laws take their integer rows and echelon form from that elimination,
    so neither is reduced or scaled to integers again; and each
    invariance matrix A is reduced at most once."""
    net = read_model(MODELS / name).network
    seen = _count_builder_inputs(monkeypatch)
    systems = []
    make = VerticalSystem.__init__

    def recording(self, *args, **kwargs):
        make(self, *args, **kwargs)
        systems.append(self)
    monkeypatch.setattr(VerticalSystem, "__init__", recording)
    laws = []
    conservation_laws = crn.conservation_laws

    def recording_laws(N):
        laws.append(conservation_laws(N))
        return laws[-1]
    monkeypatch.setattr(crn, "conservation_laws", recording_laws)
    networks = Counter()
    build = crn.ReactionNetwork._mass_action.func

    def counting_build(network):
        networks[network] += 1
        return build(network)
    counted = cached_property(counting_build)
    counted.__set_name__(crn.ReactionNetwork, "_mass_action")
    monkeypatch.setattr(crn.ReactionNetwork, "_mass_action", counted)
    analysis = analyze_network(net, seed=0)
    assert analysis.verdict_source == source
    analysis.report.injectivity  # the reduced path's deferred direct facts
    assert len(systems) == (2 if source == "reduced" else 1)
    assert len(laws) == len(systems)
    _assert_built_once(seen, systems)
    assert net in networks and len(networks) == len(systems), networks
    assert set(networks.values()) == {1}, networks
    for network in networks:
        N = build(network)[0]
        augmented = tuple(N.row(i) + tuple(int(k == i) for k in range(N.rows))
                          for i in range(N.rows))
        assert seen["eliminated", augmented, N.cols + N.rows] == 1, network
        assert seen["eliminated", tuple(N.col(j) for j in range(N.cols)), N.rows] == 0, network
        assert seen["rank", N] == 0 and seen["echelon", N] == 0, network
    for mat in [sys_.C for sys_ in systems] + laws:
        assert seen["echelon", mat] == 0, mat
        assert not any(seen["scaling", mat.row(i)] for i in range(mat.rows)), mat


# the bench's screen_1: its positive kernel is not settled by the circuits
SCREEN_1 = """# screen model 1
X2 + X1 <=> I1a -> X3 + X1
X3 + X1 <=> I1b -> X2 + X1
X3 + X1 -> 2 X1
X1 -> X3
X1 -> X3
X2 + X1 -> 2 X1
X1 -> X2
"""


@pytest.mark.parametrize("text, reaches_lp", [
    (multisite(2), False), (cascade(2), False),
    ((MODELS / "triangle_cycle.crn").read_text(), True), (SCREEN_1, True)],
    ids=["multisite_2", "cascade_2", "triangle_cycle", "screen_1"])
def test_kernel_vectors_reach_no_fraction_scaling(monkeypatch, text, reaches_lp):
    """Kernel vectors travel as integers: while a network is analysed, its
    deferred facts included, no LP, Jacobian or random combination scales a
    vector to integers.  Only the positive-kernel LP's vertex, a vector of
    Fractions, is scaled, and only where the LP runs: the nonnegative
    circuits settle multisite_2's and cascade_2's positive kernels."""
    callers = Counter()
    integer_scaling = exactalg._integer_scaling

    def counting(vec):
        callers[sys._getframe(1).f_code.co_name] += 1
        return integer_scaling(vec)
    for module in (exactalg, polyhedra, core):
        if hasattr(module, "_integer_scaling"):
            monkeypatch.setattr(module, "_integer_scaling", counting)
    analysis = analyze_network(crn.parse_network(text), seed=0)
    for report in (analysis.report, analysis.reduced_report):
        if report is not None:
            report.to_dict()
    assert (callers["strictly_positive_kernel"] > 0) == reaches_lp, callers
    assert not {"simplex_maximize", "_integer_jacobian", "random_combination"} & set(callers)


def test_multisite_2_takes_one_hermite_form_per_lattice(monkeypatch):
    """Three Hermite normal forms in all: the integer kernels of the direct
    and the reduced system's difference matrices, each the form of the
    kernel block of one echelon pass, and the lifted lattice's, which is
    compared with the direct one as it stands, since that is in Hermite
    form.  The multistationarity test reads A itself, not ker A."""
    shapes, kernels = [], []
    hermite_normal_form = exactalg.hermite_normal_form
    integer_kernel_basis = exactalg.integer_kernel_basis

    def counting(m):
        shapes.append(m.shape)
        return hermite_normal_form(m)

    def counting_kernels(m):
        kernels.append(m.shape)
        return integer_kernel_basis(m)
    for module in (exactalg, crn):
        monkeypatch.setattr(module, "hermite_normal_form", counting)
    for module in (exactalg, core):
        monkeypatch.setattr(module, "integer_kernel_basis", counting_kernels)
    analysis = analyze_network(crn.parse_network(multisite(2)), seed=0)
    analysis.report.injectivity
    assert analysis.verdict_source == "reduced"
    assert shapes == [(3, 9), (3, 5), (3, 9)]
    assert kernels == [(9, 10), (5, 2)]


def test_analyze_deterministic():
    a = analyze(triangle_system(), seed=5, options=AnalyzeOptions(boundary="yes"))
    b = analyze(triangle_system(), seed=5, options=AnalyzeOptions(boundary="yes"))
    assert a.to_dict() == b.to_dict()


def test_analyze_fuzz_no_crashes():
    # every random small system gets some verdict without raising
    rng = random.Random(90210)
    verdicts = set()
    done = 0
    while done < 50:
        s = rng.randint(1, 3)
        m = rng.randint(1, 6)
        n = rng.randint(1, 4)
        try:
            sys_ = VerticalSystem(
                RationalMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(s)]),
                IntegerMatrix([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]),
            )
        except ValueError:
            continue
        if sys_.s == 0:
            continue
        rep = analyze(sys_, seed=done)
        assert rep.verdict is not None
        verdicts.add(rep.verdict)
        done += 1
    assert Verdict.EMPTY_POSITIVE_LOCUS in verdicts  # the fuzz hits several branches
    assert len(verdicts) >= 3


def test_render_exchange_shape():
    sys_ = triangle_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1, 1, 1, 1], point=(1, 1))
    text = render_exchange(ccs)
    lines = text.strip().splitlines()
    assert lines[0] == "# variables"
    assert lines[1].split() == ["x1", "x2"]
    assert lines[2] == "# polynomials"
    assert lines[4] == "# linear"
    assert lines[5] == "2*x1 + 3*x2 - 5"


def test_package_exports_resolve():
    """``from toricity import *`` gives every name ``__all__`` lists, once."""
    import toricity

    assert [name for name in toricity.__all__ if not hasattr(toricity, name)] == []
    assert len(set(toricity.__all__)) == len(toricity.__all__)
    # what only tests called is no longer exported
    assert not {"build_free_system", "write_matrix_json"} & set(dir(toricity))
    namespace = {}
    exec("from toricity import *", namespace)
    assert set(toricity.__all__) <= set(namespace)
