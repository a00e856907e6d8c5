import copy
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity import polyring
from toricity.polyring import (
    DeterminantSizeError,
    SignVerdict,
    SparsePolynomial,
    ZeroPolynomialError,
    count_distinct_roots,
    det_stacked,
    det_symbolic,
    render,
    sign_classify,
    term_count,
)

from _oracles import (
    RingPolynomial,
    _oracle_poly_det,
    evaluate,
    oracle_det,
    oracle_det_stacked,
    oracle_pack,
    oracle_positive_roots,
    oracle_roots_between,
    oracle_sturm_count,
    stacked_det,
    sturm_chain,
)


def P(variables, terms):
    return RingPolynomial(variables, terms)


def ascending(p):
    """Ascending coefficient list of a polynomial in one variable."""
    coeffs = [Fraction(0)] * (max(e for (e,) in p.terms) + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    return coeffs


def test_mul_difference_of_squares():
    x = RingPolynomial.variable(("x",), "x")
    one = RingPolynomial.constant(("x",), 1)
    assert (x + one) * (x - one) == P(("x",), {(2,): 1, (0,): -1})


def test_additive_inverse():
    p = P(("x", "y"), {(1, 2): Fraction(3, 7), (0, 0): -2})
    assert (p + (-p)).is_zero()


def test_variable_mismatch():
    from toricity.polyring import VariableMismatchError

    with pytest.raises(VariableMismatchError):
        RingPolynomial.variable(("x",), "x") + RingPolynomial.variable(("y",), "y")


def test_substitute_triangle_slice():
    # slice polynomial of the triangle system at unit parameters: substitute
    # the affine expression for x2 and clear denominators
    vs = ("x1", "x2")
    f = P(vs, {(0, 4): 1, (6, 0): -2})
    x1 = RingPolynomial.variable(vs, "x1")
    repl = RingPolynomial.constant(vs, Fraction(5, 3)) + x1.scale(Fraction(-2, 3))
    g = f.substitute("x2", repl).scale(81)
    assert all(e[1] == 0 for e in g.terms)
    coeffs = [g.terms.get((k, 0), 0) for k in range(max(e[0] for e in g.terms) + 1)]
    assert len(coeffs) - 1 == 6
    # independent expansion: 81*((5-2t)/3)^4 - 162 t^6 via the binomial theorem
    expect = [Fraction(0)] * 7
    for k in range(5):
        expect[k] += comb(4, k) * Fraction(5) ** (4 - k) * Fraction(-2) ** k
    expect[6] -= 162
    assert coeffs == expect


def test_det_symbolic_diagonal():
    vs = ("a1", "a2", "a3")
    rows = [[RingPolynomial.variable(vs, vs[i]) if i == j else RingPolynomial(vs)
             for j in range(3)] for i in range(3)]
    det = det_symbolic(rows)
    assert det == P(vs, {(1, 1, 1): 1})


IDH_C_ROWS = [
    [-1, 1, 1, 0, 0, 0],
    [-1, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, -1, -1],
]
IDH_M_ROWS = [
    [1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1],
]
IDH_A_ROWS = [[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]]


def _injectivity_matrix(c_rows, m_rows, a_rows, mu_names, alpha_names):
    vs = tuple(mu_names) + tuple(alpha_names)
    s = len(c_rows)
    n = len(m_rows)
    m = len(c_rows[0])
    rows = []
    for i in range(s):
        row = []
        for k in range(n):
            p = RingPolynomial(vs)
            for j in range(m):
                coeff = c_rows[i][j] * m_rows[k][j]
                if coeff:
                    e = [0] * len(vs)
                    e[j] = 1
                    e[len(mu_names) + k] = 1
                    p = p + SparsePolynomial(vs, {tuple(e): coeff})
            row.append(p)
        rows.append(row)
    for arow in a_rows:
        rows.append([RingPolynomial.constant(vs, x) for x in arow])
    return rows, vs


def test_det_symbolic_idh_injectivity():
    mu = tuple(f"u{j}" for j in range(1, 7))
    al = tuple(f"a{i}" for i in range(1, 6))
    rows, vs = _injectivity_matrix(IDH_C_ROWS, IDH_M_ROWS, IDH_A_ROWS, mu, al)
    det = det_symbolic(rows)

    def term(mus, als):
        e = [0] * 11
        for j in mus:
            e[j - 1] = 1
        for i in als:
            e[5 + i] = 1
        return tuple(e)

    expected = SparsePolynomial(vs, {
        term((1, 3, 4), (1, 3, 4)): -1,
        term((1, 4, 6), (1, 4, 5)): -1,
        term((1, 3, 4), (2, 3, 4)): -1,
        term((1, 4, 6), (2, 4, 5)): -1,
        term((2, 4, 6), (3, 4, 5)): -1,
        term((3, 4, 6), (3, 4, 5)): -1,
    })
    assert det == expected
    assert sign_classify(det) == SignVerdict.ALL_NEGATIVE


def test_det_symbolic_gamma_alpha():
    # multistationarity determinant with a fixed kernel basis and laws
    vs = tuple(f"a{i}" for i in range(1, 6))
    bt = [[-1, -1, 0, 0, 1], [0, 0, 0, 1, 0], [-1, -1, 1, 0, 0]]
    l_rows = [[1, 0, 1, 0, 1], [-2, 1, -1, 1, 0]]
    rows = []
    for r in bt:
        row = []
        for k in range(5):
            e = [0] * 5
            e[k] = 1
            row.append(SparsePolynomial(vs, {tuple(e): r[k]}))
        rows.append(row)
    for r in l_rows:
        rows.append([RingPolynomial.constant(vs, x) for x in r])
    det = det_symbolic(rows)

    def term(idx):
        e = [0] * 5
        for i in idx:
            e[i - 1] = 1
        return tuple(e)

    expected = SparsePolynomial(vs, {
        term((1, 3, 4)): -1,
        term((1, 4, 5)): -1,
        term((2, 3, 4)): -2,
        term((2, 4, 5)): -1,
        term((3, 4, 5)): -1,
    })
    assert det == expected


def test_det_symbolic_size_guard():
    vs = ("x",)
    one = RingPolynomial.constant(vs, 1)
    big = [[one for _ in range(13)] for _ in range(13)]
    with pytest.raises(DeterminantSizeError):
        det_symbolic(big)


def test_det_symbolic_variable_mismatch():
    from toricity.polyring import VariableMismatchError

    x = RingPolynomial.variable(("x",), "x")
    y = RingPolynomial.variable(("y",), "y")
    with pytest.raises(VariableMismatchError):
        det_symbolic([[x, x], [x, y]])


def test_det_symbolic_matches_numeric_evaluation():
    rng = random.Random(21)
    vs = ("x", "y")
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    terms[(rng.randint(0, 1), rng.randint(0, 1))] = rng.randint(-3, 3)
                row.append(SparsePolynomial(vs, terms))
            rows.append(row)
        det = det_symbolic(rows)
        for _ in range(4):
            point = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                     "y": Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
            numeric = [[evaluate(rows[i][j], point) for j in range(n)] for i in range(n)]
            assert evaluate(det, point) == oracle_det(numeric)


def test_det_stacked_matches_det_symbolic():
    rng = random.Random(33)
    vs = ("x", "y")
    for _ in range(12):
        n = rng.randint(2, 4)
        s = rng.randint(1, n - 1)
        top = []
        for _ in range(s):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randint(0, 2)):
                    terms[(rng.randint(0, 1), rng.randint(0, 1))] = rng.randint(-3, 3)
                row.append(SparsePolynomial(vs, terms))
            top.append(row)
        bottom = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - s)])
        bottom.cols = n
        full = top + [[RingPolynomial.constant(vs, x) for x in bottom.row(i)]
                      for i in range(n - s)]
        assert stacked_det(top, bottom) == det_symbolic(full)


def test_det_symbolic_high_degree_matches_numeric_evaluation():
    # degrees up to 9 per entry and up to 36 in the determinant: every packed
    # exponent field spans several bits
    rng = random.Random(8)
    vs = ("x", "y", "z")
    for _ in range(8):
        n = rng.randint(2, 4)
        rows = [[P(vs, {tuple(rng.randint(0, 9) for _ in vs): Fraction(rng.randint(-5, 5),
                                                                       rng.randint(1, 4))
                        for _ in range(rng.randint(0, 3))})
                 for _ in range(n)] for _ in range(n)]
        det = det_symbolic(rows)
        for _ in range(3):
            point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in vs}
            numeric = [[evaluate(rows[i][j], point) for j in range(n)] for i in range(n)]
            assert evaluate(det, point) == oracle_det(numeric)


def test_det_symbolic_power_of_two_degrees():
    # field widths land exactly on and just past powers of two
    vs = ("x", "y")
    x = RingPolynomial.variable(vs, "x")
    y = RingPolynomial.variable(vs, "y")
    rows = [[x ** 8, y], [y ** 7, x ** 7 * y]]
    assert det_symbolic(rows) == x ** 15 * y - y ** 8


VS = ("x", "y", "z")
COEFFS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
EXPONENTS = st.tuples(*(st.integers(0, 5) for _ in VS))


@st.composite
def stacked_matrices(draw, monomial_columns: bool, singular: bool = False):
    """A square [top; bottom] with polynomial top rows and rational bottom
    rows.  Monomial columns share one monomial down each top column; a
    singular bottom has a row that is a multiple of another, or zero."""
    n = draw(st.integers(2 if singular else 1, 5))
    s = draw(st.integers(1, n - 1 if singular else n))
    if monomial_columns:
        monomials = [draw(EXPONENTS) for _ in range(n)]
        top = [[P(VS, {monomials[k]: draw(COEFFS)}) for k in range(n)] for _ in range(s)]
    else:
        top = [[P(VS, draw(st.dictionaries(EXPONENTS, COEFFS, max_size=3))) for _ in range(n)]
               for _ in range(s)]
    bottom = [[draw(COEFFS) for _ in range(n)] for _ in range(n - s)]
    if singular:
        factor = draw(COEFFS) if len(bottom) > 1 else 0
        bottom[-1] = [factor * x for x in bottom[0]]
    return top, bottom


def _stacked(top, bottom):
    matrix = RationalMatrix(bottom)
    matrix.cols = len(top[0])
    full = top + [[RingPolynomial.constant(VS, x) for x in row] for row in bottom]
    return stacked_det(top, matrix), full


@settings(max_examples=150, deadline=None)
@given(stacked_matrices(monomial_columns=True))
def test_det_stacked_monomial_columns(case):
    top, bottom = case
    det, full = _stacked(top, bottom)
    assert det == det_symbolic(full)
    assert det == oracle_det_stacked(top, bottom)


@settings(max_examples=150, deadline=None)
@given(stacked_matrices(monomial_columns=False))
def test_det_stacked_general_top(case):
    top, bottom = case
    det, full = _stacked(top, bottom)
    assert det == det_symbolic(full)
    assert det == oracle_det_stacked(top, bottom)


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(lambda mono: stacked_matrices(mono, singular=True)))
def test_det_stacked_singular_bottom(case):
    top, bottom = case
    det, full = _stacked(top, bottom)
    assert det.is_zero()
    assert det_symbolic(full).is_zero()


def test_det_stacked_empty_top():
    """With no top rows the expansion is 1 and the determinant is the bottom's."""
    vs = ("x",)
    assert render(det_stacked([], [], vs, RationalMatrix([[2, 1], [Fraction(1, 2), 3]]))) == "11/2"
    assert render(det_stacked([], [], vs, IntegerMatrix([[0, 1], [1, 0]]))) == "-1"
    assert det_stacked([], [], vs, IntegerMatrix([[1, 2], [2, 4]])).is_zero()


def test_det_stacked_monomial_columns_beyond_size_guard():
    # 15 monomial top rows over 3 constant rows: the multistationarity shape
    # of 5-site phosphorylation, which the symbolic size guard would refuse
    n, s = 18, 15
    vs = tuple(f"a{k}" for k in range(n))
    rng = random.Random(4)
    top = [[RingPolynomial.variable(vs, vs[k]).scale(rng.choice([-1, 0, 1, 2]))
            for k in range(n)] for _ in range(s)]
    bottom = [[rng.choice([0, 0, 1, 2]) for _ in range(n)] for _ in range(n - s)]
    det = stacked_det(top, RationalMatrix(bottom))
    assert not det.is_zero()
    for _ in range(2):
        point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for v in vs}
        numeric = [[evaluate(p, point) for p in row] for row in top] + bottom
        assert evaluate(det, point) == _fraction_det(numeric)


def test_det_stacked_term_budget(monkeypatch):
    # the budget is read when the expansion runs and fires inside it
    from toricity import polyring

    n, s = 8, 6
    vs = tuple(f"a{k}" for k in range(n))
    rng = random.Random(12)
    top = [[RingPolynomial.variable(vs, vs[k]).scale(rng.randint(-3, 3)) for k in range(n)]
           for _ in range(s)]
    bottom = RationalMatrix([[1] * n, list(range(n))])
    assert len(stacked_det(top, bottom).terms) > 20
    monkeypatch.setattr(polyring, "_DET_TERM_BUDGET", 20)
    with pytest.raises(DeterminantSizeError, match="budget of 20 terms"):
        stacked_det(top, bottom)


def test_det_stacked_degree_fills_its_bit_field():
    """x reaches degree 7 in the determinant, the most its 3-bit field
    holds, and y reaches 8 = 4 + 4, one more than a field sized by a single
    row's degree would hold; the fields are adjacent, so a carry out of
    one would turn its power into another variable's."""
    vs = ("x", "y", "z")
    x, y = (RingPolynomial.variable(vs, v) for v in "xy")
    # [[x^4, y^4, z], [y^4, x^3, 1]; [0, 0, 1]]
    rows = [[{(0, 0, 0, 0): 1}, {(1, 1, 1, 1): 1}, {(2,): 1}],
            [{(1, 1, 1, 1): 1}, {(0, 0, 0): 1}, {(): 1}]]
    det = det_stacked(rows, [1, 1], vs, IntegerMatrix([[0, 0, 1]]))
    assert det._fields == [(0, 7), (3, 15), (7, 1)]
    assert det == x ** 7 - y ** 8
    # a monomial is a multiset of indices: (0, 1) and (1, 0) are one term
    det = det_stacked([[{(0, 1): 2, (1, 0): 3}, {}]], [2], vs, IntegerMatrix([[0, 1]]))
    assert det == (x * y).scale(Fraction(5, 2))
    for index in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            det_stacked([[{(0, index): 1}]], [1], vs, IntegerMatrix.with_width([], 1))


@st.composite
def _monomial_rows(draw):
    """Rows of integer polynomials as ``_pack`` takes them: powers (an index
    repeated), empty entries, constant monomials, coefficients that cancel
    to zero, and now and then an index outside 0..nvars-1."""
    nvars = draw(st.integers(0, 5))
    low, high = (-1, nvars) if draw(st.integers(0, 9)) == 0 else (0, nvars - 1)
    mono = st.lists(st.integers(low, high), max_size=4).map(tuple) if low <= high \
        else st.just(())
    entry = st.dictionaries(mono, st.integers(-3, 3), max_size=4)
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=4))
    return rows, nvars


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_monomial_rows())
def test_pack_matches_the_count_oracle(case):
    """``_pack`` gives the packed rows and bit fields of the version that
    counted every index of every monomial, and refuses the same rows."""
    rows, nvars = case
    try:
        expected = oracle_pack(rows, nvars)
    except ValueError as exc:
        with pytest.raises(ValueError, match="outside"):
            polyring._pack(rows, nvars)
        assert "outside" in str(exc)
        return
    assert polyring._pack(rows, nvars) == expected


def _packed_reads(p):
    """What the analysis reads from a determinant, without its terms."""
    return sign_classify(p), p.is_zero(), term_count(p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(st.booleans(), st.booleans())
       .flatmap(lambda flags: stacked_matrices(*flags)))
def test_packed_reads_match_decoded(case):
    """Sign, zero test and term count read from the packed form agree with
    the decoded polynomial's, for the stacked and the plain determinant:
    negative factors (odd row orders, negative det(A_P)), singular bottoms
    and zero results included."""
    stacked, full = _stacked(*case)
    for det in stacked, det_symbolic(full):
        before = _packed_reads(det)
        plain = SparsePolynomial(det.variables, det.terms)
        assert _packed_reads(det) == before
        assert _packed_reads(plain) == before
        assert det == plain and hash(det) == hash(plain)


def test_packed_sign_follows_a_negative_factor():
    vs = ("x", "y", "z")
    x, y, z = (RingPolynomial.variable(vs, v) for v in vs)
    zero = RingPolynomial(vs)
    # rows expanded sparsest first: an odd row order
    swapped = det_symbolic([[x, y], [z, zero]])
    # det(A_P) = -1
    negative_pivot = stacked_det([[x + y, y]], RationalMatrix([[0, -1]]))
    for det, expected in ((swapped, -(y * z)), (negative_pivot, -(x + y))):
        assert det._factor < 0
        assert sign_classify(det) == SignVerdict.ALL_NEGATIVE
        assert term_count(det) == len(expected.terms)
        assert det == expected  # decodes
        assert sign_classify(det) == SignVerdict.ALL_NEGATIVE
    mixed = stacked_det([[x - y, z]], RationalMatrix([[0, -1]]))
    assert mixed._factor < 0 and sign_classify(mixed) == SignVerdict.MIXED_SIGNS
    assert mixed == y - x
    cancelled = det_symbolic([[x, y], [x, y]])
    assert cancelled.is_zero() and sign_classify(cancelled) == SignVerdict.ZERO_POLYNOMIAL
    assert term_count(cancelled) == 0 and cancelled == zero


def test_packed_determinant_pickles_and_copies_as_its_polynomial():
    vs = ("x", "y", "z")
    x, y, z = (RingPolynomial.variable(vs, v) for v in vs)
    rows = [[x, y, z], [y * z, x, RingPolynomial.constant(vs, 2)], [z, x * x, y.scale(-3)]]
    expected = _oracle_poly_det(rows)
    for decoded in (False, True):
        det = det_symbolic(rows)
        if decoded:
            det.terms
        for twin in pickle.loads(pickle.dumps(det)), copy.deepcopy(det), copy.copy(det):
            assert type(twin) is SparsePolynomial
            assert twin == det == expected
            assert hash(twin) == hash(expected) and render(twin) == render(expected)


def _fraction_det(rows):
    """Rational determinant by Gaussian elimination, for sizes beyond the
    reach of cofactor expansion."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def test_sign_classify_cases():
    vs = ("x", "y")
    assert sign_classify(SparsePolynomial(vs)) == SignVerdict.ZERO_POLYNOMIAL
    assert sign_classify(P(vs, {(1, 1): 1, (0, 2): -1})) == SignVerdict.MIXED_SIGNS
    assert sign_classify(P(vs, {(1, 0): 2, (0, 1): 3})) == SignVerdict.ALL_POSITIVE
    p = P(vs, {(1, 0): 2, (0, 1): 3})
    assert sign_classify(p.scale(-5)) == SignVerdict.ALL_NEGATIVE
    assert sign_classify(p.scale(Fraction(1, 7))) == SignVerdict.ALL_POSITIVE


def test_sturm_simple():
    x = RingPolynomial.variable(("x",), "x")
    assert count_distinct_roots(ascending(x * x - 1), 0) == 1


def test_sturm_cubic():
    vs = ("x",)
    x = RingPolynomial.variable(vs, "x")
    c = lambda v: RingPolynomial.constant(vs, v)
    p = ascending((x - c(1)) * (x - c(2)) * (x + c(3)))
    assert count_distinct_roots(p, 0) == 2


def test_sturm_triangle_slice():
    # (5-2t)^4 - 162 t^6 has exactly one positive root
    vs = ("t",)
    t = RingPolynomial.variable(vs, "t")
    lin = RingPolynomial.constant(vs, 5) - t.scale(2)
    p = ascending(lin ** 4 - (t ** 6).scale(162))
    assert count_distinct_roots(p, 0) == 1


def test_sturm_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        count_distinct_roots([], 0)
    with pytest.raises(ZeroPolynomialError):
        count_distinct_roots([0, 0], 2, 1)


def test_sturm_repeated_roots_and_interval():
    vs = ("x",)
    x = RingPolynomial.variable(vs, "x")
    c = lambda v: RingPolynomial.constant(vs, v)
    p = ascending((x - c(2)) ** 3 * (x - c(5)) * (x + c(1)))
    assert count_distinct_roots(p, 0) == 2
    assert count_distinct_roots(p, 0, 3) == 1
    assert count_distinct_roots(p, 2, 6) == 1  # endpoint root excluded
    assert count_distinct_roots(p, None, None) == 3
    # an open interval with lower >= upper is empty
    assert count_distinct_roots(p, 6, 0) == 0
    assert count_distinct_roots(p, 2, 2) == 0
    assert count_distinct_roots(ascending(x * x - 2), 2, 1) == 0


def test_sturm_against_bisection_oracle():
    rng = random.Random(77)
    for _ in range(40):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = 1
        if coeffs[-1] == 0:
            coeffs[-1] = rng.choice([-2, -1, 1, 2])
        assert count_distinct_roots(coeffs, 0) == oracle_positive_roots(coeffs)


@st.composite
def _repeated_roots(draw):
    """A product of a random polynomial and powers of linear factors with
    small rational roots, and an interval whose ends are often among them."""
    roots = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=4))
    coeffs = [Fraction(draw(st.sampled_from([-2, -1, 1, 3])))]
    coeffs += draw(st.lists(st.integers(-4, 4), max_size=2))
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):  # times x - r
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    end = st.one_of(st.none(), st.sampled_from(roots), st.fractions(-4, 4, max_denominator=2))
    return coeffs, draw(end), draw(end)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_repeated_roots())
def test_sturm_without_squarefree_part_matches_bisection(case):
    """The Sturm chain of the polynomial itself, repeated roots and roots at
    either end included, counts what squarefree Descartes bisection does."""
    coeffs, lower, upper = case
    assert count_distinct_roots(coeffs, lower, upper) == oracle_roots_between(coeffs, lower, upper)


_BIG = st.builds(Fraction, st.integers(-(1 << 120), 1 << 120), st.integers(1, 1 << 40))


@st.composite
def _sturm_cases(draw):
    """A polynomial with rational coefficients of up to 120 bits times
    powers of linear factors with rational roots, and two ends, each
    infinite, one of those roots or another rational, in either order."""
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=7), max_size=4))
    coeffs = draw(st.lists(st.one_of(_BIG, st.integers(-4, 4).map(Fraction)), max_size=4))
    coeffs.append(draw(_BIG.filter(bool)))
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):  # times x - r
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    end = st.one_of(st.none(), st.fractions(-6, 6, max_denominator=9),
                    *([st.sampled_from(roots)] if roots else []))
    lower, upper = draw(end), draw(end)
    return (coeffs, upper, lower) if draw(st.booleans()) else (coeffs, lower, upper)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sturm_cases())
def test_integer_sturm_count_matches_fraction_chain(case):
    """The integer chain counts what the ``Fraction`` chain counts: repeated
    roots, roots on an end, rational and infinite ends, lower >= upper."""
    coeffs, lower, upper = case
    assert count_distinct_roots(coeffs, lower, upper) == oracle_sturm_count(coeffs, lower, upper)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-(1 << 80), 1 << 80), min_size=2, max_size=8).filter(lambda c: c[-1]))
def test_integer_sturm_chain_is_a_positive_multiple(coeffs):
    """Each member of the integer chain is primitive and a positive multiple
    of the member of the ``Fraction`` chain, which has the same length."""
    p = polyring._primitive(coeffs)
    chain = [p, polyring._primitive(polyring._derivative(p))]
    while len(chain[-1]) > 1:
        rem = polyring._negated_remainder(chain[-2][:], chain[-1])
        if not rem:
            break
        chain.append(rem)
    expected = sturm_chain(coeffs)
    assert len(chain) == len(expected)
    for member, fraction_member in zip(chain, expected):
        assert len(member) == len(fraction_member) and gcd(*member) == 1
        ratio = Fraction(member[-1]) / fraction_member[-1]
        assert ratio > 0 and [ratio * x for x in fraction_member] == member


def test_render_canonical():
    vs = ("x1", "x2")
    p = P(vs, {(2, 0): -2, (1, 1): 1, (0, 0): Fraction(1, 3)})
    assert render(p) == "-2*x1^2 + x1*x2 + 1/3"
    assert render(SparsePolynomial(vs)) == "0"
