import random
from fractions import Fraction
from pathlib import Path

import pytest

from toricity import polyhedra
from toricity.fileio import read_model
from toricity.exactalg import IntegerMatrix, RationalMatrix, same_row_lattice
from toricity.core import (
    AnalyzeOptions,
    DegenerateSliceError,
    EmptyLocusError,
    GroupMode,
    InternalInconsistencyError,
    InvarianceResult,
    Verdict,
    VerticalSystem,
    analyze,
    binomial_quickcheck,
    build_free_system,
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
from toricity.polyring import SignVerdict, SparsePolynomial


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
        inv = invariance_group(sys_, GroupMode.COMPLEX_STAR, part)
        for block in part.blocks:
            cols = sorted(block)
            for a, b in zip(cols, cols[1:]):
                diff = [sys_.M.entry(k, a) - sys_.M.entry(k, b) for k in range(sys_.n)]
                assert all(v == 0 for v in inv.A.mul_vector(diff))
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
    assert all(v == 0 for v in idh_system().C.mul_vector(nd.witness))


def test_nondegeneracy_refuted():
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 1]]))
    assert nondegeneracy(sys_, seed=0).status == "no"


def test_nondegeneracy_homogeneous():
    assert nondegeneracy(homogeneous_surface_system(), seed=0).status == "yes"


def test_all_positive_idh():
    res = nondegeneracy_all_positive(idh_system())
    assert res.status == "yes"


def _symbolic_scaled_jacobian(sys_, rays, lam):
    # entries of C diag(w) M^T with w = sum of lam_k * ray_k, built directly
    entries = []
    for i in range(sys_.s):
        row = []
        for k in range(sys_.n):
            terms = {}
            for idx, ray in enumerate(rays):
                coeff = sum(sys_.C.entry(i, j) * ray[j] * sys_.M.entry(k, j)
                            for j in range(sys_.m))
                if coeff:
                    e = [0] * len(lam)
                    e[idx] = 1
                    terms[tuple(e)] = coeff
            row.append(SparsePolynomial(lam, terms))
        entries.append(row)
    return entries


def test_all_positive_idh_certificate_matches_reference():
    # the certificate minor on variable columns 1, 3, 4 factors as
    # (u_a + u_c) * u_a * (u_a + u_b), with u_a the coefficient of the ray
    # (1,0,1,1,0,1), u_b of (0,0,0,1,1,0), u_c of (1,1,0,0,0,0)
    from toricity.polyhedra import extreme_rays
    from toricity.polyring import det_symbolic

    sys_ = idh_system()
    rays = extreme_rays(sys_.C).rays
    lam = tuple(f"l{k+1}" for k in range(len(rays)))
    var_of = {ray: SparsePolynomial.variable(lam, lam[i]) for i, ray in enumerate(rays)}
    ua = var_of[(1, 0, 1, 1, 0, 1)]
    ub = var_of[(0, 0, 0, 1, 1, 0)]
    uc = var_of[(1, 1, 0, 0, 0, 0)]
    expected = (ua + uc) * ua * (ua + ub)
    top = _symbolic_scaled_jacobian(sys_, rays, lam)
    minor = det_symbolic([[top[i][j] for j in (0, 2, 3)] for i in range(3)])
    assert minor == expected
    res = nondegeneracy_all_positive(sys_)
    assert res.status == "yes"
    assert res.minor_columns == (0, 2, 3)
    assert res.certificate == expected


def test_all_positive_triangle():
    assert nondegeneracy_all_positive(triangle_system()).status == "yes"


def test_triangle_augmented_determinant_matches_reference():
    # determinant of [C diag(w) M^T diag(h); A] with w on the positive kernel
    # rays: equals -(9 h1 + 4 h2)(2 u_a + 4 u_b + u_c) with u_a the
    # coefficient of ray (2,0,0,1), u_b of (0,0,2,1), u_c of (0,1,1,0)
    from toricity.polyhedra import extreme_rays
    from toricity.polyring import det_stacked

    sys_ = triangle_system()
    inv = invariance_group(sys_)
    rays = extreme_rays(sys_.C).rays
    lam = tuple(f"l{k+1}" for k in range(len(rays)))
    hv = ("h1", "h2")
    vs = lam + hv
    base = _symbolic_scaled_jacobian(sys_, rays, lam)
    top = [[base[0][k].extend(vs) * SparsePolynomial.variable(vs, hv[k])
            for k in range(2)]]
    det = det_stacked(top, inv.A.to_rational())
    var_of = {ray: SparsePolynomial.variable(vs, lam[i]) for i, ray in enumerate(rays)}
    h1 = SparsePolynomial.variable(vs, "h1")
    h2 = SparsePolynomial.variable(vs, "h2")
    expected = -(h1.scale(9) + h2.scale(4)) * (
        var_of[(2, 0, 0, 1)].scale(2) + var_of[(0, 0, 2, 1)].scale(4)
        + var_of[(0, 1, 1, 0)]
    )
    assert det == expected


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
    assert local_toricity(sys_, inv, nd) == Verdict.GENERICALLY_LOCALLY_TORIC
    assert local_toricity(sys_, inv, nd, nondegeneracy_all_positive(sys_)) == Verdict.LOCALLY_TORIC


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
    assert ccs2.b == tuple(inv.A.to_rational().mul_vector(ccs2.point))


def test_coset_counting_no_slice():
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 0]]))
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1, 2], seed=0)
    assert ccs.b == ()
    res = count_positive_cosets(ccs)
    assert (res.kind, res.count) == ("exact", 1)  # x - 2 = 0 on the positive axis


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
        res = count_positive_cosets(coset_counting_system(sys_, inv, kappa_three, seed=seed))
        assert (res.kind, res.count) == ("exact", 3)
    res = count_positive_cosets(coset_counting_system(sys_, inv, kappa_one, seed=0))
    assert (res.kind, res.count) == ("exact", 1)


def test_count_triangle_unique():
    sys_ = triangle_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1, 1, 1, 1], point=(1, 1))
    res = count_positive_cosets(ccs)
    assert (res.kind, res.count) == ("exact", 1)


def test_count_exact_on_unbounded_segment():
    # hyperbola k1*x1*x2 - k2 = 0 sliced by x1 - x2 = b: the positive segment
    # is a half-line and the count is still exact
    sys_ = VerticalSystem(RationalMatrix([[1, -1]]), IntegerMatrix([[1, 0], [1, 0]]))
    inv = invariance_group(sys_)
    assert inv.A.to_lists() == [[1, -1]]
    for seed in (0, 1):
        ccs = coset_counting_system(sys_, inv, [2, 3], seed=seed)
        res = count_positive_cosets(ccs)
        assert (res.kind, res.count) == ("exact", 1)


def test_count_idh_heuristic_exactly_one():
    # a system passing the injectivity test has at most one positive zero on
    # every slice; here the positive zero set is never empty, so the
    # heuristic should find exactly one for every parameter choice
    sys_ = idh_system()
    inv = invariance_group(sys_)
    rng = random.Random(2024)
    for trial in range(10):
        kappa = [Fraction(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(6)]
        ccs = coset_counting_system(sys_, inv, kappa, seed=trial)
        res = count_positive_cosets(ccs, seed=trial, starts=60)
        assert res.kind == "heuristic"
        assert res.count == 1


def test_count_export(tmp_path):
    sys_ = idh_system()
    inv = invariance_group(sys_)
    ccs = coset_counting_system(sys_, inv, [1] * 6, seed=0)
    out = tmp_path / "system.txt"
    res = count_positive_cosets(ccs, export_path=str(out))
    assert res.kind == "exported"
    text = out.read_text()
    assert "# variables" in text and "# polynomials" in text and "# linear" in text
    assert text.count("\n") >= 3 + 2


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


# -- free systems -------------------------------------------------------------


def test_build_free_system_triangle():
    sys_ = build_free_system(
        [[(3, 2), (0, 4), (6, 0)]],
        signs=[["+-", "+", Fraction(-2)]],
    )
    assert sys_.C == RationalMatrix([[1, -1, 1, -2]])
    assert sys_.M == IntegerMatrix([[3, 3, 0, 6], [2, 2, 4, 0]])


def test_build_free_system_single_point():
    sys_ = build_free_system([[(2, 1)]])
    assert sys_.C == RationalMatrix([[1]])
    assert sys_.M == IntegerMatrix([[2], [1]])


def test_build_free_system_two_blocks():
    sys_ = build_free_system([[(1, 0), (0, 1)], [(2, 0), (0, 2)]])
    assert sys_.C == RationalMatrix([[1, 1, 0, 0], [0, 0, 1, 1]])


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
    sys_ = VerticalSystem(RationalMatrix.zeros(0, 2), IntegerMatrix([[1, 0], [0, 1]]))
    assert sys_.s == 0
    rep = analyze(sys_, seed=0)
    assert rep.verdict == Verdict.TORIC
    assert rep.d == sys_.n


def test_analyze_evidence_ordering():
    toric_rep = analyze(idh_system(), seed=0)
    glt_prefix = ["binomial_quickcheck", "support_union", "positive_kernel",
                  "matroid_partition", "invariance_group", "quasihomogeneity",
                  "nondegeneracy", "dimension_test"]
    names = [e.test for e in toric_rep.evidence]
    assert names[: len(glt_prefix)] == glt_prefix
    assert len(names) > len(glt_prefix)


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
