import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricity import exactalg
from toricity.exactalg import (
    IntegerMatrix,
    RationalMatrix,
    TrivialKernelError,
    _reduced_matrix,
    hermite_normal_form,
    int_det,
    integer_kernel_basis,
    kernel_circuit_basis,
    left_kernel_basis,
    random_kernel_vector,
)
from toricity.polyring import SparsePolynomial

from _oracles import (
    diagonal,
    identity,
    is_zero,
    matmul,
    mul_vector,
    oracle_circuits,
    oracle_det,
    oracle_hermite_normal_form,
    oracle_integer_kernel_basis,
    oracle_left_kernel_basis,
    oracle_row_basis,
    oracle_rref,
    same_row_lattice,
    solve,
    stacked_det,
    to_rational,
    zeros,
)

# Running example: the two-substrate regulation system used throughout the suite.
IDH_C = RationalMatrix([
    [-1, 1, 1, 0, 0, 0],
    [-1, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, -1, -1],
])
IDH_M = IntegerMatrix([
    [1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1],
])

FIG_C = RationalMatrix([
    [-3, 3, 3, -1, 1],
    [1, -1, -1, 1, -1],
])
FIG_M = IntegerMatrix([
    [6, 3, 0, 1, 0],
    [0, 2, 4, 0, 0],
    [0, 0, 0, 0, 5],
])


def _divided_by_pivots(rows, pivots):
    """The RREF rows an integer echelon form stands for."""
    return tuple(tuple(Fraction(x, row[p]) for x in row) for row, p in zip(rows, pivots))


def test_rref_identity():
    assert identity(2).integer_echelon() == (((1, 0), (0, 1)), (0, 1))


def test_rref_rank_one():
    assert RationalMatrix([[1, 1], [2, 2]]).integer_echelon() == (((1, 1),), (0,))


def test_rref_fig_two_pivots():
    # hand Gaussian elimination gives pivots in columns 0 and 3
    rows, pivots = FIG_C.integer_echelon()
    assert pivots == (0, 3)
    assert _divided_by_pivots(rows, pivots) == ((1, -1, -1, 0, 0), (0, 0, 0, 1, -1))


def test_rank_zero_matrix():
    assert zeros(3, 4).rank() == 0


def test_rank_identity():
    assert identity(5).rank() == 5


def test_rank_scaled_jacobian_shape():
    # rank 3 for any of these kernel vectors; the second one reproduces a
    # known matrix exactly
    j = matmul(matmul(IDH_C, diagonal([2, 1, 1, 2, 1, 1])), IDH_M.transpose())
    assert j.rank() == 3
    j2 = matmul(matmul(IDH_C, diagonal([3, 1, 2, 3, 1, 2])), IDH_M.transpose())
    assert j2 == RationalMatrix([
        [-3, -3, 3, 0, 0],
        [-3, -3, 1, 0, 2],
        [0, 0, 3, 3, -3],
    ])
    assert j2.rank() == 3


def test_kernel_circuit_basis_identity_empty():
    basis = kernel_circuit_basis(identity(3))
    assert len(basis) == 0


def test_kernel_circuit_basis_line():
    basis = kernel_circuit_basis(RationalMatrix([[1, 1]]))
    assert len(basis) == 1
    (v,) = basis.vectors
    assert v[0] == -v[1] != 0
    assert basis.supports == (frozenset({0, 1}),)


def test_kernel_circuit_basis_fig_support_split():
    basis = kernel_circuit_basis(FIG_C)
    union_a = frozenset()
    union_b = frozenset()
    for s in basis.supports:
        if s <= {0, 1, 2}:
            union_a |= s
        else:
            union_b |= s
    assert union_a == {0, 1, 2}
    assert union_b == {3, 4}


def _brute_force_circuit_supports(m: RationalMatrix) -> set[frozenset[int]]:
    """All circuits of the column matroid: dependent sets with independent proper subsets."""
    cols = [m.col(j) for j in range(m.cols)]

    def dependent(idx):
        sub = [[cols[j][i] for j in idx] for i in range(m.rows)]
        return len(oracle_rref(sub, len(idx))[1]) < len(idx)

    circuits: set[frozenset[int]] = set()
    for size in range(1, m.cols + 1):
        for idx in combinations(range(m.cols), size):
            s = frozenset(idx)
            if any(c < s for c in circuits):
                continue
            if dependent(idx):
                circuits.add(s)
    return circuits


def test_circuit_supports_are_fundamental_circuits_small_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 6)
        m = RationalMatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
        circuits = _brute_force_circuit_supports(m)
        basis = kernel_circuit_basis(m)
        for v, s in zip(basis.vectors, basis.supports):
            assert all(x == 0 for x in mul_vector(m, v))
            assert s in circuits, f"{s} not minimal for {m!r}"
        # the basis spans the kernel
        assert len(basis) == m.cols - m.rank()


def test_rref_idempotent_and_rank_preserving():
    """The integer echelon form of a matrix is its own echelon form."""
    rng = random.Random(11)
    for _ in range(30):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = RationalMatrix(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nc)]
             for _ in range(nr)]
        )
        echelon = m.integer_echelon()
        red = IntegerMatrix(echelon[0], nc)
        assert red.integer_echelon() == echelon
        assert red.rank() == m.rank()


def test_integer_kernel_basis_trivial():
    m = IntegerMatrix([[2, 0], [0, 3]])
    basis = integer_kernel_basis(m)
    assert basis.rows == 0


def _cayley(M: IntegerMatrix, blocks) -> IntegerMatrix:
    rows = M.to_lists()
    for b in blocks:
        rows.append([1 if j in b else 0 for j in range(M.cols)])
    return IntegerMatrix(rows)


def test_integer_kernel_basis_fig():
    mhat = _cayley(FIG_M, [{0, 1, 2}, {3, 4}])
    basis = integer_kernel_basis(mhat)
    assert basis.rows == 1
    head = [list(basis.row(0))[:3]]
    assert same_row_lattice(IntegerMatrix(head), IntegerMatrix([[10, 15, 2]]))


def test_integer_kernel_basis_idh():
    mhat = _cayley(IDH_M, [set(range(6))])
    basis = integer_kernel_basis(mhat)
    assert basis.rows == 2
    head = IntegerMatrix([list(basis.row(i))[:5] for i in range(2)])
    assert same_row_lattice(head, IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]]))


def test_integer_kernel_basis_saturated():
    rng = random.Random(3)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = IntegerMatrix([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        basis = integer_kernel_basis(m)
        for i in range(basis.rows):
            v = basis.row(i)
            assert all(sum(v[k] * m.entry(k, j) for k in range(m.rows)) == 0 for j in range(m.cols))
        assert basis.rows == m.rows - m.rank()
        if basis.rows:
            # saturated: the maximal minors, whose gcd is the product of the
            # Smith diagonal, are coprime
            minors = [int_det([[basis.entry(i, j) for j in cols] for i in range(basis.rows)])
                      for cols in combinations(range(basis.cols), basis.rows)]
            assert gcd(*minors) == 1


def test_hermite_normal_form_known():
    h = hermite_normal_form(IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    # row lattice is preserved and the form is canonical
    assert same_row_lattice(h, IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    assert h == hermite_normal_form(h)


@st.composite
def _lattice_matrices(draw):
    """Integer rows and a width: negative entries, zero rows, zero columns
    and rows that are integer combinations of others."""
    nc = draw(st.integers(0, 6))
    entry = st.integers(-9, 9) | st.integers(-300, 300)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), max_size=5))
    zero_columns = draw(st.sets(st.integers(0, 5), max_size=2))
    rows = [[0 if j in zero_columns else x for j, x in enumerate(row)] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            rows.insert(draw(st.integers(0, len(rows))), [f * x + g * y for x, y in zip(a, b)])
        else:
            rows.insert(draw(st.integers(0, len(rows))), [0] * nc)
    return rows, nc


@st.composite
def _pipeline_matrices(draw):
    """Shapes like the pipeline's difference matrices: up to 16 x 24, of
    rank below the row count, every column a base column or its negative,
    so columns repeat and appear negated, entries up to 7 in size."""
    nr, nc = draw(st.integers(1, 16)), draw(st.integers(0, 24))
    column = st.lists(st.integers(-7, 7), min_size=nr, max_size=nr)
    base = draw(st.lists(column, min_size=1, max_size=max(1, nr - 1)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.sampled_from((1, -1))),
                          min_size=nc, max_size=nc))
    return [[sign * base[b][i] for b, sign in picks] for i in range(nr)], nc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_lattice_matrices() | _pipeline_matrices())
def test_hermite_normal_form_matches_the_euclid_loop(case):
    """One extended-gcd step per entry below a pivot gives the Hermite
    form the repeated smallest-entry Euclid loop gives, and the echelon
    form of [m | I] with the Hermite form of its kernel block gives the
    integer kernel basis the Hermite form of [m | I] gives, which is its
    own Hermite form."""
    rows, nc = case
    m = IntegerMatrix(rows, nc)
    h = hermite_normal_form(m)
    assert h.cols == nc and h.to_lists() == oracle_hermite_normal_form(rows, nc)
    kernel = integer_kernel_basis(m)
    assert kernel.to_lists() == oracle_integer_kernel_basis(rows, nc)
    assert hermite_normal_form(kernel) == kernel


@st.composite
def _elimination_inputs(draw):
    """Integer or rational matrices: full rank, rank 0, zero rows, zero
    columns, and more rows than columns."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        cls, entry = IntegerMatrix, st.integers(-4, 4)
    else:
        cls, entry = RationalMatrix, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    shape = draw(st.sampled_from(("dense", "zero", "identity")))
    if shape == "zero":
        rows = [[0] * nc for _ in range(nr)]
    elif shape == "identity":
        rows = [[int(i == j) for j in range(nc)] for i in range(nr)]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    zero_columns = draw(st.sets(st.integers(0, 5), max_size=2))
    rows = [[0 if j in zero_columns else x for j, x in enumerate(row)] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * nc)
    return cls(rows, nc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_elimination_inputs())
def test_row_basis_and_left_kernel_share_one_elimination(m):
    """The rows of one elimination of [m | I] that pivot in m's columns are
    RREF(m), and the others are the RREF basis of the left kernel, exactly
    as a separate RREF of m and of its transpose's circuits give them.  The
    integer rows and echelon form that elimination hands both of them are
    the ones they would build themselves."""
    rows = m.to_lists()
    basis, kernel = m.row_basis(), left_kernel_basis(m)
    assert basis.to_lists() == [list(r) for r in oracle_row_basis(rows, m.cols)]
    assert kernel.to_lists() == [list(r) for r in oracle_left_kernel_basis(rows, m.cols)]
    assert (basis.cols, kernel.cols, basis.rows + kernel.rows) == (m.cols, m.rows, m.rows)
    assert all(type(x) is Fraction for part in (basis, kernel) for r in part.to_lists() for x in r)
    assert m.row_basis() is basis and left_kernel_basis(m) is kernel
    for part in (basis, kernel):
        fresh = RationalMatrix(part.to_lists(), part.cols)
        assert part.integer_rows() == fresh.integer_rows()
        assert part.integer_echelon() == fresh.integer_echelon()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_elimination_inputs())
def test_rref_matrices_build_entries_on_first_read(m):
    """A row basis or left kernel keeps its integer echelon rows and builds
    no ``Fraction`` entry until one is read.  Then it equals, hashes, prints,
    transposes and pickles like the matrix built from those entries.  A
    pickle or copy of one builds no entry either, until one of its own is
    read, and then builds them once."""
    rows = m.to_lists()
    with mock.patch.object(exactalg, "_divide_by_pivots",
                           wraps=exactalg._divide_by_pivots) as divide:
        kept = (m.row_basis(), left_kernel_basis(m))
        for part in kept:
            part.integer_rows(), part.integer_echelon(), part.rank()
        assert divide.call_count == 0
        for part, expected in zip(kept, (oracle_row_basis(rows, m.cols),
                                         oracle_left_kernel_basis(rows, m.cols))):
            eager = RationalMatrix(expected, part.cols)

            def fresh():
                return _reduced_matrix(*part.integer_echelon(), part.cols)
            assert fresh() == eager and eager == fresh()
            assert hash(fresh()) == hash(eager)
            assert repr(fresh()) == repr(eager)
            assert fresh().transpose() == eager.transpose()
            assert fresh().to_lists() == eager.to_lists()
            if eager.rows and eager.cols:
                assert fresh().entry(0, eager.cols - 1) == eager.entry(0, eager.cols - 1)
                assert fresh().row(eager.rows - 1) == eager.row(eager.rows - 1)
            for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
                before = divide.call_count
                restored = round_trip(fresh())
                assert restored.integer_echelon() == eager.integer_echelon()
                assert restored.integer_rows() == eager.integer_rows()
                assert divide.call_count == before
                assert restored == eager and repr(restored) == repr(eager)
                assert divide.call_count == before + 1


def test_random_kernel_vector_line():
    w = random_kernel_vector(RationalMatrix([[1, 1]]), seed=0)
    assert w.entry(0, 0) == -w.entry(1, 0) != 0


def test_random_kernel_vector_trivial_kernel():
    with pytest.raises(TrivialKernelError):
        random_kernel_vector(identity(2), seed=0)


def test_random_kernel_vector_idh_residual_zero():
    for seed in (1, 2):
        w = random_kernel_vector(IDH_C, seed=seed)
        res = matmul(IDH_C, w)
        assert is_zero(res)
    assert random_kernel_vector(IDH_C, 5) == random_kernel_vector(IDH_C, 5)
    assert random_kernel_vector(IDH_C, 5) != random_kernel_vector(IDH_C, 6)


def test_left_kernel_basis():
    n = RationalMatrix([[-1, 1], [1, -1]])
    lk = left_kernel_basis(n)
    assert lk.rows == 1
    assert mul_vector(lk, [0, 0]) == (0,)
    v = lk.row(0)
    assert v[0] == v[1] != 0


def test_solve_particular():
    a = RationalMatrix([[1, 2], [0, 1]])
    x = solve(a, [5, 2])
    assert x == (1, 2)
    assert solve(RationalMatrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_int_det_matches_cofactor_expansion():
    # small entries with many zeros: zero pivots force row swaps, and
    # singular matrices must give 0
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randint(0, 5)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(k)] for _ in range(k)]
        assert int_det(rows) == oracle_det(rows)


# -- fraction-free elimination against the Fraction oracle ---------------------


@st.composite
def _matrices(draw):
    """Small rational matrices with zero rows, zero columns, rows that are
    combinations of others, and non-integer entries."""
    nc = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(entry), draw(entry)
            rows.insert(draw(st.integers(0, len(rows))), [f * x + g * y for x, y in zip(a, b)])
        else:
            rows.insert(draw(st.integers(0, len(rows))), [0] * nc)
    if nc and draw(st.booleans()):
        zero = draw(st.integers(0, nc - 1))
        rows = [[0 if j == zero else x for j, x in enumerate(r)] for r in rows]
    m = RationalMatrix(rows)
    m.cols = nc
    return m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_matrices())
def test_rref_and_rank_match_fraction_elimination(m):
    """The integer echelon rows are primitive multiples of the RREF rows."""
    echelon, pivots = m.integer_echelon()
    rows, expected_pivots = oracle_rref(m.to_lists(), m.cols)
    assert pivots == expected_pivots
    assert _divided_by_pivots(echelon, pivots) == rows[: len(pivots)]
    assert all(type(x) is int for row in echelon for x in row)
    assert all(gcd(*row) == 1 for row in echelon)
    assert m.rank() == len(expected_pivots)
    assert m.row_basis().to_lists() == [list(r) for r in rows[: len(pivots)]]
    assert m.integer_echelon() is m.integer_echelon()  # kept, not eliminated again


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 5).flatmap(
    lambda nc: st.lists(st.lists(st.integers(-4, 4), min_size=nc, max_size=nc), max_size=5)
    .map(lambda rows: IntegerMatrix(rows + [[0] * nc], nc))))
def test_integer_rank_matches_fraction_elimination(m):
    assert m.rank() == len(oracle_rref(m.to_lists(), m.cols)[1])


@st.composite
def _integer_matrices(draw):
    """Small integer matrices with zero rows and rows that are integer
    combinations of others."""
    nc = draw(st.integers(0, 5))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(entry), draw(entry)
            rows.insert(draw(st.integers(0, len(rows))), [f * x + g * y for x, y in zip(a, b)])
        else:
            rows.insert(draw(st.integers(0, len(rows))), [0] * nc)
    return IntegerMatrix(rows, nc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_matrices(), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_integer_matrix_agrees_with_its_rational_copy(a, b):
    """Every kernel gives an integer matrix, read as it is, the result it
    gives the same matrix converted to Fractions."""
    q = to_rational(a)
    assert a != q
    assert a.integer_echelon() == q.integer_echelon()
    assert a.rank() == q.rank()
    assert a.row_basis() == q.row_basis()
    assert kernel_circuit_basis(a) == kernel_circuit_basis(q)
    assert left_kernel_basis(a) == left_kernel_basis(q)
    for rhs in (b[: a.rows], mul_vector(a, b[: a.cols])):
        assert solve(a, rhs) == solve(q, rhs)
    if a.cols > a.rows:
        vs = ("x", "y")
        top = [[SparsePolynomial(vs, {(i, j % 2): b[(i + j) % 6] or 1}) for j in range(a.cols)]
               for i in range(a.cols - a.rows)]
        assert stacked_det(top, a) == stacked_det(top, q)


@st.composite
def _circuit_inputs(draw):
    """Matrices of each kind a circuit basis is read from: rational and
    integer ones, rank-deficient among them; a matrix already in RREF, made
    afresh so that it eliminates itself; and the row basis of an integer
    matrix, which arrives with its echelon form from the elimination of
    [N | I]."""
    kind = draw(st.sampled_from(("rational", "integer", "rref", "row basis")))
    if kind == "integer":
        return draw(_integer_matrices())
    if kind == "row basis":
        return draw(_integer_matrices()).row_basis()
    m = draw(_matrices())
    if kind == "rref":
        return RationalMatrix(m.row_basis().to_lists(), m.cols)
    return m


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_circuit_inputs())
def test_kernel_circuit_basis_matches_fraction_rref(m):
    """The circuits read off the integer echelon form are primitive integer
    vectors, positive in their non-pivot column; divided by that entry they
    are the circuits of the Fraction RREF, vector for vector and support
    for support."""
    basis = kernel_circuit_basis(m)
    vectors, supports = oracle_circuits(m.to_lists(), m.cols)
    free = [max(s) for s in basis.supports]
    assert tuple(tuple(Fraction(x, v[j]) for x in v) for v, j in zip(basis.vectors, free)) \
        == vectors
    assert basis.supports == supports
    assert basis.ambient_dim == m.cols
    assert all(type(x) is int for v in basis.vectors for x in v)
    assert all(gcd(*v) == 1 and v[j] > 0 for v, j in zip(basis.vectors, free))


@pytest.mark.parametrize("entry", [Fraction(1, 2), "3", 1.0])
def test_integer_matrix_refuses_non_integers(entry):
    with pytest.raises(TypeError):
        IntegerMatrix([[entry]])
