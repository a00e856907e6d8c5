"""Core toricity pipeline for vertically parametrized systems.

A vertical system is a pair (C, M): each column of the integer exponent
matrix M names a monomial, each row of the rational coefficient matrix C a
linear combination of those monomials scaled by one positive parameter per
column.  The pipeline computes the maximal scaling lattice leaving every
zero set invariant, decides nondegeneracy, and classifies how many lattice
cosets the positive zero set consists of.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from math import comb, gcd
from sys import get_int_max_str_digits
from types import MappingProxyType

from .exactalg import (
    CircuitBasis,
    IntegerMatrix,
    InternalInconsistencyError,
    RationalMatrix,
    _frac,
    _reduced_matrix,
    int_det,
    integer_kernel_basis,
    kernel_circuit_basis,
    random_combination,
    random_rng,
)
from .polyhedra import (
    ConeRays,
    PositiveKernelResult,
    SupportSet,
    VolumeBudgetError,
    extreme_rays,
    mixed_volume,
    strictly_positive_kernel,
    positive_row_space,
)
from .polyring import (
    DET_SIZE_LIMIT,
    DeterminantSizeError,
    SignVerdict,
    SparsePolynomial,
    count_distinct_roots,
    det_stacked,
    minor_sweep,
    render,
    sign_classify,
)


class GroupMode(Enum):
    POSITIVE = "positive"
    REAL_STAR = "real-star"
    COMPLEX_STAR = "complex-star"


class Verdict(Enum):
    EMPTY_POSITIVE_LOCUS = "empty_positive_locus"
    INVARIANT_ONLY = "invariant_only"
    NOT_LOCALLY_TORIC = "not_locally_toric"
    GENERICALLY_LOCALLY_TORIC = "generically_locally_toric"
    LOCALLY_TORIC = "locally_toric"
    GENERICALLY_TORIC = "generically_toric"
    TORIC = "toric"


class EmptyLocusError(ValueError):
    """The zero sets are empty for every parameter value in the group."""


class DegenerateSliceError(ValueError):
    """The linear slice of the counting system is degenerate."""


# ---------------------------------------------------------------------------
# The system


class VerticalSystem:
    """A pair (C, M) with C of full row rank and matching column counts.

    A coefficient matrix without full row rank is replaced by the canonical
    basis of its row space, which leaves the zero sets unchanged.  The
    objects the pipeline reads from (C, M) are built on first use and kept:
    the circuit kernel basis of C, its strictly positive kernel, the
    extreme rays of its nonnegative kernel, the matroid partition of its
    columns, the scaling lattice of each column partition asked for, so
    the invariance lattice is built once per system, and the integer kernel
    of each lattice.  C is eliminated once, in integers, and keeps its
    echelon form: every reader of C's pivots, circuits or echelon rows
    reads that.  The row basis of a network's N arrives with its echelon
    form, from the elimination of [N | I].  Row supports, the polynomials
    and the fingerprint read C's integer rows too, so a C built from its
    echelon form never builds its ``Fraction`` entries.
    """

    __slots__ = ("C", "M", "variables", "parameters", "_circuits",
                 "_positive_kernel", "_rays", "_partition", "_lattices", "_lattice_kernels")

    def __init__(self, C: RationalMatrix, M: IntegerMatrix, variables=None, parameters=None):
        if C.cols != M.cols:
            raise ValueError(f"C has {C.cols} columns but M has {M.cols}")
        rows, pivots = C.integer_echelon()
        if len(pivots) < C.rows:
            C = _reduced_matrix(rows, pivots, C.cols)
        if C.rows > M.rows:
            raise ValueError("more independent equations than variables")
        self.C = C
        self.M = M
        self.variables = tuple(variables) if variables else tuple(f"x{i+1}" for i in range(M.rows))
        self.parameters = tuple(parameters) if parameters else tuple(f"k{j+1}" for j in range(M.cols))
        if len(self.variables) != M.rows or len(self.parameters) != M.cols:
            raise ValueError("name list lengths do not match the matrices")
        self._circuits = self._positive_kernel = None
        self._rays = self._partition = None
        self._lattices: dict[MatroidPartition, IntegerMatrix] = {}
        self._lattice_kernels: dict[IntegerMatrix, IntegerMatrix] = {}

    @property
    def s(self) -> int:
        return self.C.rows

    @property
    def m(self) -> int:
        return self.C.cols

    @property
    def n(self) -> int:
        return self.M.rows

    @property
    def circuits(self) -> CircuitBasis:
        """Fundamental-circuit basis of ker C."""
        if self._circuits is None:
            self._circuits = kernel_circuit_basis(self.C)
        return self._circuits

    @property
    def positive_kernel(self) -> PositiveKernelResult:
        """Witness of ker C in the open positive orthant, or empty.

        The sum of the nonnegative fundamental circuits is an integer vector
        of ker C; when it is strictly positive it is the witness, and only
        otherwise is the question put to the exact LP."""
        if self._positive_kernel is None:
            w = [0] * self.m
            for v in self.circuits.vectors:
                if min(v) >= 0:
                    w = [a + b for a, b in zip(w, v)]
            if all(w):
                self._positive_kernel = PositiveKernelResult(tuple(w))
            else:
                self._positive_kernel = strictly_positive_kernel(self.C)
        return self._positive_kernel

    @property
    def rays(self) -> ConeRays:
        """Extreme rays of ker C intersected with the nonnegative orthant."""
        if self._rays is None:
            self._rays = extreme_rays(self.C)
        return self._rays

    @property
    def partition(self) -> MatroidPartition:
        """Blocks of the column matroid of C: union-find over circuit supports."""
        if self._partition is None:
            self._partition = _merge_supports(self.circuits.supports, self.m)
        return self._partition

    def lattice(self, partition: MatroidPartition) -> IntegerMatrix:
        """Scaling lattice of a column partition, in Hermite normal form.

        The lattice is {a in Z^n : a.M_j = a.M_k whenever columns j and k
        share a block}: the integer kernel of the difference matrix D, whose
        columns are M_j - M_first for every column j of a block but its
        first.  ``integer_kernel_basis`` hands it out in Hermite form.
        """
        if partition not in self._lattices:
            pairs = [(j, min(block)) for block in partition.blocks for j in sorted(block)
                     if j != min(block)]
            D = IntegerMatrix._of([tuple(row[j] - row[f] for j, f in pairs)
                                   for row in map(self.M.row, range(self.n))], len(pairs))
            self._lattices[partition] = integer_kernel_basis(D)
        return self._lattices[partition]

    def lattice_kernel(self, A: IntegerMatrix) -> IntegerMatrix:
        """Integer basis of ker A for a scaling lattice A of this system, in
        Hermite normal form: ``integer_kernel_basis`` of A^T.  Condition
        (iii) and the exact coset count read it."""
        if A not in self._lattice_kernels:
            self._lattice_kernels[A] = integer_kernel_basis(A.transpose())
        return self._lattice_kernels[A]

    def fingerprint(self) -> str:
        """sha256 of ``repr(C) + repr(M)``, first 12 hex digits.  C's text is
        written from its kept integer rows: entry a / d in lowest terms is
        the text ``str(Fraction(a, d))``, so no ``Fraction`` is built."""
        entries = [[_fraction_text(a, d) for a in ints] for ints, d in self.C.integer_rows()]
        h = hashlib.sha256()
        h.update(f"RationalMatrix({entries!r})".encode())
        h.update(repr(self.M).encode())
        return h.hexdigest()[:12]

    def row_support(self, i: int) -> frozenset[int]:
        """Columns where row i of C is nonzero, read from its integer row."""
        return frozenset(j for j, a in enumerate(self.C.integer_rows()[i][0]) if a)

    def polynomials(self, kappa) -> list[SparsePolynomial]:
        """Specialized rows C(kappa . x^M) as polynomials in the variables.

        Negative exponents are cleared per row by a monomial factor, which
        does not change zeros with nonzero coordinates.
        """
        kappa = [_frac(k) for k in kappa]
        if len(kappa) != self.m:
            raise ValueError("parameter vector length mismatch")
        out = []
        for ints, d in self.C.integer_rows():
            terms: dict[tuple[int, ...], Fraction] = {}
            for j, a in enumerate(ints):
                c = Fraction(a, d) * kappa[j]
                if c == 0:
                    continue
                e = tuple(self.M.entry(k, j) for k in range(self.n))
                terms[e] = terms.get(e, Fraction(0)) + c
            terms = {e: c for e, c in terms.items() if c != 0}
            if terms:
                mins = [min(e[k] for e in terms) for k in range(self.n)]
                shift = tuple(-m if m < 0 else 0 for m in mins)
                terms = {tuple(x + sft for x, sft in zip(e, shift)): c for e, c in terms.items()}
            out.append(SparsePolynomial(self.variables, terms))
        return out

    def row_support_points(self, i: int) -> SupportSet:
        """Newton support of row i (exponent columns with nonzero coefficient),
        read from C's integer row."""
        pts = [tuple(self.M.col(j)) for j, a in enumerate(self.C.integer_rows()[i][0]) if a]
        return SupportSet(tuple(pts))


def _fraction_text(a: int, d: int) -> str:
    """``str(Fraction(a, d))`` for d > 0, without building the Fraction."""
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


# ---------------------------------------------------------------------------
# Matroid partition and invariance


@dataclass(frozen=True)
class MatroidPartition:
    blocks: tuple[frozenset[int], ...]
    ground_size: int

    def __len__(self) -> int:
        return len(self.blocks)


def _merge_supports(supports, ground_size: int) -> MatroidPartition:
    parent = list(range(ground_size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in supports:
        items = sorted(s)
        for a, b in zip(items, items[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for j in range(ground_size):
        groups.setdefault(find(j), set()).add(j)
    blocks = tuple(sorted((frozenset(g) for g in groups.values()), key=min))
    return MatroidPartition(blocks, ground_size)


def matroid_partition(sys: VerticalSystem) -> MatroidPartition:
    """Blocks of the column matroid of C: union-find over circuit supports."""
    return sys.partition


def positive_locus_nonempty(sys: VerticalSystem, mode: GroupMode) -> bool:
    """Whether some parameter value admits a zero over the group."""
    if sys.circuits.support_union() != frozenset(range(sys.m)):
        return False
    if mode is GroupMode.POSITIVE:
        return not sys.positive_kernel.is_empty
    return True


@dataclass(frozen=True)
class InvarianceResult:
    """Maximal-rank scaling lattice: zero sets are unions of its cosets."""

    A: IntegerMatrix  # d x n, Hermite normal form, full row rank
    d: int
    mode: GroupMode


def invariance_group(sys: VerticalSystem, mode: GroupMode = GroupMode.POSITIVE) -> InvarianceResult:
    """Maximal-rank A with every zero set invariant under the A-scalings.

    A is the scaling lattice of the matroid partition, the same for every
    group.  Requires a nonempty locus for the chosen group.
    """
    if not positive_locus_nonempty(sys, mode):
        raise EmptyLocusError(f"zero sets empty over {mode.value} for all parameters")
    A = sys.lattice(sys.partition)
    return InvarianceResult(A, A.rows, mode)


def quasihomogeneity_weights(sys: VerticalSystem) -> IntegerMatrix:
    """Weight lattice from the coarser partition induced by the rows of C.

    Same construction as the invariance lattice but merging columns by row
    supports only; its rank matching the invariance rank means invariance
    is explained by quasihomogeneity alone.
    """
    supports = [sys.row_support(i) for i in range(sys.s)]
    return sys.lattice(_merge_supports(supports, sys.m))


# ---------------------------------------------------------------------------
# Nondegeneracy


def _integer_jacobian(sys: VerticalSystem, w) -> list[tuple[int, ...]]:
    """C' diag(w) M^T for an integer vector w, where C' is C with each row
    scaled to integers: row i exceeds the same row of C diag(w) M^T by
    C's row denominator, ``sys.C.integer_rows()[i][1]``."""
    m_rows = [sys.M.row(k) for k in range(sys.n)]
    rows = []
    for ci, _ in sys.C.integer_rows():
        cw = [(j, a * x) for j, (a, x) in enumerate(zip(ci, w)) if a and x]
        rows.append(tuple(sum(v * mk[j] for j, v in cw) for mk in m_rows))
    return rows


def _jacobian_pencil(sys: VerticalSystem, generators) -> tuple[list, list[int]]:
    """C diag(w) M^T with w = sum_t lam_t generators[t] for integer
    generators, in integers: entry (i, k) lists the coefficient of each
    lam_t, and row i of the matrix is that integer row divided by its
    scale, C's row denominator."""
    jacobians = [_integer_jacobian(sys, g) for g in generators]
    rows = [[tuple(jac[i][k] for jac in jacobians) for k in range(sys.n)] for i in range(sys.s)]
    return rows, [d for _, d in sys.C.integer_rows()]


@dataclass(frozen=True)
class NondegeneracyResult:
    status: str  # "yes" | "no" | "undetermined"
    witness: tuple[Fraction, ...] | None = None


_NONDEG_MINOR_CAP = 5000


def _term_rank(pattern) -> int:
    """Size of a largest matching of rows to columns, each row given as the
    columns of its nonzero entries (Kuhn's augmenting paths)."""
    owner = {}  # column -> row matched to it

    def augment(i, seen):
        for k in pattern[i]:
            if k not in seen:
                seen.add(k)
                if k not in owner or augment(owner[k], seen):
                    owner[k] = i
                    return True
        return False
    return sum(augment(i, set()) for i in range(len(pattern)))


def _pencil_rank_deficient(rows, n: int) -> bool:
    """Whether one of two exact certificates shows that the s x n pencil,
    entry (i, k) the coefficients of its lam_t, has rank below s for every
    lam.  Term rank: no matching of all s rows to columns over the nonzero
    entries, so every Leibniz term of every s x s minor has a zero factor.
    Stacked rank: the generators' Jacobians stacked vertically have rank
    below s, and every matrix of the pencil has its rows in their span."""
    s = len(rows)
    if _term_rank([[k for k, entry in enumerate(row) if any(entry)] for row in rows]) < s:
        return True
    stacked = [tuple(entry[t] for entry in row) for row in rows for t in range(len(row[0]))]
    return IntegerMatrix._of(stacked, n).rank() < s


def nondegeneracy(sys: VerticalSystem, seed: int = 0) -> NondegeneracyResult:
    """Whether C diag(w) M^T reaches rank s for some kernel vector w.

    Up to eleven random kernel vectors are tried.  When the first falls
    short and a sweep of the s x s minors is affordable, the Jacobian
    pencil over the circuits is tested first: a term rank or a stacked
    rank below s proves the rank below s for every kernel vector.  Else one
    sweep runs up to the first nonzero minor: none means the rank over the
    function field of kernel coordinates is below s.  If the other ten
    vectors fall short too, a witness is drawn from the columns of that
    minor, or without one it is 'undetermined'.
    """
    basis = sys.circuits
    if len(basis) == 0:
        return NondegeneracyResult("no" if sys.s > 0 else "yes")
    columns = None
    for attempt in range(11):
        w, den = random_combination(basis, seed + 7919 * attempt)
        # positive scalings of rows and of w leave the rank of C diag(w) M^T unchanged
        if IntegerMatrix._of(_integer_jacobian(sys, w), sys.n).rank() == sys.s:
            return NondegeneracyResult("yes", tuple(Fraction(x, den) for x in w))
        if attempt == 0 and comb(sys.n, sys.s) <= _NONDEG_MINOR_CAP:
            rows, scales = _jacobian_pencil(sys, basis.vectors)
            if sys.s <= DET_SIZE_LIMIT and _pencil_rank_deficient(rows, sys.n):
                return NondegeneracyResult("no")
            lam = tuple(f"l{k+1}" for k in range(len(basis)))
            minors = minor_sweep(rows, scales, lam)
            try:
                columns = next((cols for cols, det in minors if not det.is_zero()), None)
            except DeterminantSizeError:
                continue
            if columns is None:
                return NondegeneracyResult("no")
    if columns is None:
        return NondegeneracyResult("undetermined")
    return NondegeneracyResult("yes", _witness_from_minor(sys, columns, seed))


def _witness_from_minor(sys: VerticalSystem, columns, seed: int):
    """A kernel vector at which the minor of C diag(w) M^T on ``columns``,
    nonzero as a polynomial, is nonzero: the first of 64 seeded integer
    combinations of the circuits, each tested by the determinant of those
    columns of its integer Jacobian."""
    rng = random_rng(seed ^ 0x5EED)
    basis = sys.circuits
    for _ in range(64):
        w, den = basis.combine([rng.randint(-(1 << 16), 1 << 16) for _ in basis.vectors])
        if int_det([[row[k] for k in columns] for row in _integer_jacobian(sys, w)]):
            return tuple(Fraction(x, den) for x in w)
    return None


@dataclass(frozen=True)
class AllPositiveResult:
    status: str  # "yes" | "unknown"
    minor_columns: tuple[int, ...] | None = None
    certificate: SparsePolynomial | None = None
    reason: str | None = None


_ALLPOS_MINOR_CAP = 20000


def nondegeneracy_all_positive(sys: VerticalSystem) -> AllPositiveResult:
    """Sufficient test for full rank of C diag(w) M^T on the whole positive kernel.

    The positive kernel is parametrized by the extreme rays; a single s x s
    minor that is a nonzero polynomial with one coefficient sign certifies
    the rank for every strictly positive combination.  One sweep of the
    minors, sharing one memo and one term budget, looks for the first such
    minor.  Failure to find one is reported as 'unknown', never as a
    refutation.
    """
    if sys.positive_kernel.is_empty:
        raise EmptyLocusError("positive kernel is empty")
    if sys.s == 0:
        return AllPositiveResult("yes")  # the rank condition is vacuous
    rays = sys.rays
    if not rays.rays:
        raise EmptyLocusError("positive kernel is empty")
    if sys.s > 12 or comb(sys.n, sys.s) > _ALLPOS_MINOR_CAP:
        return AllPositiveResult("unknown", reason="minor sweep too large")
    lam = tuple(f"l{k+1}" for k in range(len(rays.rays)))
    try:
        for cols, minor in minor_sweep(*_jacobian_pencil(sys, rays.rays), lam):
            if sign_classify(minor) in (SignVerdict.ALL_POSITIVE, SignVerdict.ALL_NEGATIVE):
                return AllPositiveResult("yes", cols, minor)
    except DeterminantSizeError as exc:
        return AllPositiveResult("unknown", reason=str(exc))
    return AllPositiveResult("unknown", reason="no sign-definite minor")


def local_toricity(sys: VerticalSystem, inv: InvarianceResult,
                   nondeg: NondegeneracyResult) -> Verdict:
    """Dimension test: local toricity holds exactly when s + d = n."""
    if nondeg.status != "yes":
        return Verdict.INVARIANT_ONLY
    total = sys.s + inv.d
    if total > sys.n:
        raise InternalInconsistencyError(
            f"s + d = {total} exceeds n = {sys.n} for a nondegenerate system"
        )
    if total < sys.n:
        return Verdict.NOT_LOCALLY_TORIC
    return Verdict.GENERICALLY_LOCALLY_TORIC


# ---------------------------------------------------------------------------
# Injectivity


@dataclass(frozen=True)
class InjectivityResult:
    toric: bool
    determinant: SparsePolynomial | None = None
    sign: SignVerdict | None = None
    reason: str | None = None


def injectivity_test(sys: VerticalSystem, inv: InvarianceResult) -> InjectivityResult:
    """Sign-definite symbolic determinant certifying at most one coset.

    Builds [C diag(mu) M^T diag(al); A] with one symbolic mu per parameter
    and one al per variable; a nonzero determinant with all coefficients of
    one sign certifies toricity over the positive reals.
    """
    if inv.d != sys.n - sys.s:
        raise ValueError("injectivity needs a full-dimensional invariance lattice")
    mu = tuple(f"mu{j+1}" for j in range(sys.m))
    al = tuple(f"al{k+1}" for k in range(sys.n))
    # entry (i, k) is the sum over j of C_ij M_kj mu_j al_k, over nonzero products only
    top = [[{(j, sys.m + k): c * e for j, (c, e) in enumerate(zip(ci, sys.M.row(k))) if c and e}
            for k in range(sys.n)] for ci, _ in sys.C.integer_rows()]
    try:
        det = det_stacked(top, [dc for _, dc in sys.C.integer_rows()], mu + al, inv.A)
    except DeterminantSizeError as exc:
        return InjectivityResult(False, reason=str(exc))
    sign = sign_classify(det)
    if sign in (SignVerdict.ALL_POSITIVE, SignVerdict.ALL_NEGATIVE):
        return InjectivityResult(True, det, sign)
    return InjectivityResult(False, det, sign, reason=f"determinant {sign.value}")


# ---------------------------------------------------------------------------
# Coset counting


@dataclass(frozen=True)
class CosetCountingSystem:
    """The square system (C(kappa . x^M), A x - b) whose positive zeros
    are in bijection with the cosets."""

    base: VerticalSystem
    A: IntegerMatrix
    kappa: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    point: tuple[Fraction, ...]  # strictly positive witness with A point = b


def _checked_kappa(sys: VerticalSystem, kappa) -> tuple[Fraction, ...]:
    kap = tuple(_frac(k) for k in kappa)
    if len(kap) != sys.m or any(k <= 0 for k in kap):
        raise ValueError("kappa must be a strictly positive vector of length m")
    return kap


def coset_counting_system(sys: VerticalSystem, inv: InvarianceResult, kappa,
                          seed: int = 0, point=None) -> CosetCountingSystem:
    """Attach the affine slice A x = b with b = A p for a positive point p."""
    if inv.d != sys.n - sys.s:
        raise ValueError("coset counting needs a full-dimensional invariance lattice")
    kap = _checked_kappa(sys, kappa)
    if point is not None:
        p = tuple(_frac(x) for x in point)
        if len(p) != sys.n or any(x <= 0 for x in p):
            raise ValueError("point must be strictly positive of length n")
    else:
        rng = random_rng(seed ^ 0xB00)
        p = tuple(Fraction(rng.randint(1, 1 << 16), 1 << 8) for _ in range(sys.n))
    b = tuple(sum(Fraction(inv.A.entry(i, j)) * p[j] for j in range(sys.n))
              for i in range(inv.A.rows))
    return CosetCountingSystem(sys, inv.A, kap, b, p)


def count_positive_cosets(h: CosetCountingSystem) -> int:
    """Count the positive zeros of a one-equation counting system exactly.

    The slice is the line x0 + t v through the slice point along the one
    integer kernel vector of A, positivity bounds t to an interval, and a
    Sturm sequence counts the distinct roots of the equation there.
    Systems with more equations have no exact counter here; ``export``
    writes their counting system for an external solver.
    """
    sys_ = h.base
    if sys_.s != 1:
        raise ValueError(f"exact coset counting needs one equation, not s={sys_.s}; "
                         "use 'export' to count with an external solver")
    if h.A.rank() < h.A.rows:
        raise DegenerateSliceError("slice matrix does not have full row rank")
    ker = sys_.lattice_kernel(h.A)
    if ker.rows != 1:
        raise DegenerateSliceError("slice does not cut down to a line")
    x0, direction = h.point, ker.row(0)
    lo = max((-x / v for x, v in zip(x0, direction) if v > 0), default=None)
    hi = min((-x / v for x, v in zip(x0, direction) if v < 0), default=None)
    coeffs = _restrict_to_line(sys_.polynomials(h.kappa)[0], x0, direction)
    if not coeffs:
        raise DegenerateSliceError("system vanishes identically on the slice")
    return count_distinct_roots(coeffs, lo, hi)


def _restrict_to_line(poly: SparsePolynomial, x0, direction):
    """Coefficients of t -> poly(x0 + t v), ascending; the coordinates of
    x0 and v are those of the polynomial's variables."""
    coeffs = [Fraction(0)]
    for e, c in poly.terms.items():
        term = [c]
        for a, v, k in zip(x0, direction, e):
            for _ in range(k):  # times a + v t
                term = [a * x + v * y for x, y in zip(term + [0], [0] + term)]
        coeffs += [Fraction(0)] * (len(term) - len(coeffs))
        for i, x in enumerate(term):
            coeffs[i] += x
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def render_exchange(h: CosetCountingSystem) -> str:
    """Text form of the counting system for external solvers.

    Variables line, then one polynomial per line in canonical rendering,
    then the affine slice equations.
    """
    sys_ = h.base
    lines = ["# variables", " ".join(sys_.variables), "# polynomials"]
    for p in sys_.polynomials(h.kappa):
        lines.append(render(p))
    lines.append("# linear")
    for i in range(h.A.rows):
        terms = {}
        for j in range(sys_.n):
            v = h.A.entry(i, j)
            if v:
                e = [0] * sys_.n
                e[j] = 1
                terms[tuple(e)] = v
        terms[tuple([0] * sys_.n)] = -h.b[i]
        lines.append(render(SparsePolynomial(sys_.variables, terms)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constant coset count


@dataclass(frozen=True)
class ConstantCosetConditions:
    boundary_empty: str          # "yes" | "unknown"  (siphons or user assertion)
    rank_all_positive: str       # "yes" | "unknown"  (sign-definite determinant)
    row_space_positive: bool     # exact LP

    @property
    def all_hold(self) -> bool:
        return self.boundary_empty == "yes" and self.rank_all_positive == "yes" and self.row_space_positive


def constant_coset_conditions(sys: VerticalSystem, inv: InvarianceResult,
                              boundary: str = "unknown") -> ConstantCosetConditions:
    """The three sufficient conditions for a parameter-independent coset count.

    (i) no boundary zeros on the slice (supplied flag), (ii) the augmented
    scaled Jacobian has full rank on the whole positive kernel (checked by a
    sign-definite symbolic determinant), (iii) the row space of A meets the
    positive orthant.
    """
    if inv.d != sys.n - sys.s:
        raise ValueError("constant-count conditions need a full-dimensional lattice")
    if any(sys.M.entry(i, j) < 0 for i in range(sys.n) for j in range(sys.m)):
        raise ValueError("conditions require a nonnegative exponent matrix")
    boundary = "yes" if boundary == "yes" else "unknown"
    cond_iii = positive_row_space(inv.A, kernel=sys.lattice_kernel(inv.A))
    cond_ii = _augmented_all_positive(sys, inv)
    return ConstantCosetConditions(boundary, cond_ii, cond_iii)


def _augmented_all_positive(sys: VerticalSystem, inv: InvarianceResult) -> str:
    if sys.positive_kernel.is_empty:
        return "unknown"
    rays = sys.rays
    if not rays.rays:
        return "unknown"
    if sys.n > 12 or comb(sys.n, sys.s) > _ALLPOS_MINOR_CAP:
        return "unknown"
    t = len(rays.rays)
    variables = tuple(f"l{k+1}" for k in range(t)) + tuple(f"h{k+1}" for k in range(sys.n))
    rows, scales = _jacobian_pencil(sys, rays.rays)
    # entry (i, k) is h_k times the pencil's, over its nonzero coefficients only
    top = [[{(u, t + k): c for u, c in enumerate(coeffs) if c} for k, coeffs in enumerate(row)]
           for row in rows]
    try:
        det = det_stacked(top, scales, variables, inv.A)
    except DeterminantSizeError:
        return "unknown"
    if sign_classify(det) in (SignVerdict.ALL_POSITIVE, SignVerdict.ALL_NEGATIVE):
        return "yes"
    return "unknown"


# ---------------------------------------------------------------------------
# Binomial quick check


def binomial_quickcheck(sys: VerticalSystem) -> bool:
    """Echelon rows that are all two-term with opposite signs: a binomial
    system.  In the positive mode, with the dimension test s + d = n, it
    certifies toricity and all-positive nondegeneracy (see ``analyze``).
    C's integer echelon rows are positive or negative multiples of its
    RREF rows, and either scaling keeps the sign pattern read here."""
    for row in sys.C.integer_echelon()[0]:
        support = [x for x in row if x]
        if len(support) != 2 or (support[0] > 0) == (support[1] > 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class AnalyzeOptions:
    kappa: tuple | None = None          # parameter point for coset counting
    boundary: str = "unknown"           # condition-(i) flag: "yes" or "unknown"


MIXED_VOLUME_MAX_DIM = 8


@dataclass(frozen=True)
class EvidenceRecord:
    test: str
    inputs: str
    outcome: str


@dataclass
class ToricityReport:
    mode: GroupMode
    seed: int
    n: int
    m: int
    s: int
    verdict: Verdict | None = None
    d: int | None = None
    invariance: InvarianceResult | None = None
    partition: MatroidPartition | None = None
    quasihomogeneity_rank: int | None = None
    quasihomogeneity_agrees: bool | None = None
    nondegenerate: str = "unknown"      # "yes" | "no" | "yes-for-all-positive" | "unknown"
    witness: tuple | None = None
    positive_kernel_witness: tuple | None = None
    binomial: bool | None = None
    injectivity: InjectivityResult | None = None
    mixed_volume_bound: int | None = None
    conditions: ConstantCosetConditions | None = None
    coset_count: int | None = None      # exact count when established
    coset_count_kind: str | None = None  # "exact" when the count stage ran
    constant_count: bool = False
    parameter_region_full: bool = False  # all positive parameters admit zeros
    evidence: list[EvidenceRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    # The steps that fill ``injectivity`` and ``nondegenerate``, each the
    # first time its own field is read (see ``defer``).  They are not
    # fields: equality, ``replace``, ``asdict``, copies and pickles see the
    # filled values.
    _pending = MappingProxyType({})

    def defer(self, **steps):
        """Fill each named field from its step, ``steps[name]()``, when that
        field is first read, not now.  An exception from a step reaches that
        reader and leaves that step pending."""
        self._pending = steps

    def _resolve(self, name):
        step = self._pending.get(name)
        if step is not None:
            setattr(self, name, step())
            del self._pending[name]
            if not self._pending:
                del self._pending

    def __getstate__(self):
        for name in list(self._pending):
            self._resolve(name)
        return self.__dict__

    def to_dict(self) -> dict:
        inv = None
        if self.invariance is not None:
            inv = {"A": self.invariance.A.to_lists(), "d": self.invariance.d,
                   "mode": self.invariance.mode.value}
        return {
            "schema": 1,
            "mode": self.mode.value,
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "s": self.s,
            "d": self.d,
            "verdict": self.verdict.value if self.verdict else None,
            "invariance": inv,
            "matroid_partition": [sorted(j + 1 for j in b) for b in self.partition.blocks]
            if self.partition else None,
            "quasihomogeneity": {"rank": self.quasihomogeneity_rank,
                                 "agrees": self.quasihomogeneity_agrees},
            "nondegenerate": self.nondegenerate,
            "witness": [str(x) for x in self.witness] if self.witness else None,
            "binomial_quickcheck": self.binomial,
            "injectivity": None if self.injectivity is None else {
                "toric": self.injectivity.toric,
                "sign": self.injectivity.sign.value if self.injectivity.sign else None,
                "determinant": render(self.injectivity.determinant)
                if self.injectivity.determinant is not None else None,
                "reason": self.injectivity.reason,
            },
            "mixed_volume": self.mixed_volume_bound,
            "constant_coset_conditions": None if self.conditions is None else {
                "boundary_empty": self.conditions.boundary_empty,
                "rank_all_positive": self.conditions.rank_all_positive,
                "row_space_positive": self.conditions.row_space_positive,
            },
            "coset_count": self.coset_count,
            "coset_count_kind": self.coset_count_kind,
            "coset_bound": self.mixed_volume_bound,
            "constant_count": self.constant_count,
            "parameter_region_full": self.parameter_region_full,
            "evidence": [{"test": e.test, "inputs": e.inputs, "outcome": e.outcome}
                         for e in self.evidence],
            "notes": list(self.notes),
        }


def _filled_by_pending(name: str) -> property:
    key = "_" + name

    def read(self):
        self._resolve(name)
        return self.__dict__[key]

    def write(self, value):
        self.__dict__[key] = value

    return property(read, write)


# installed after @dataclass has taken the fields' defaults from the class body
ToricityReport.injectivity = _filled_by_pending("injectivity")
ToricityReport.nondegenerate = _filled_by_pending("nondegenerate")


def _coset_supports(sys: VerticalSystem, inv: InvarianceResult) -> list[SupportSet]:
    supports = [sys.row_support_points(i) for i in range(sys.s)]
    for i in range(inv.A.rows):
        pts = [tuple([0] * sys.n)]
        for j in range(sys.n):
            if inv.A.entry(i, j) != 0:
                e = [0] * sys.n
                e[j] = 1
                pts.append(tuple(e))
        supports.append(SupportSet(tuple(pts)))
    return supports


def _number_text(k: int) -> str:
    """k >= 0 in decimal, or, past the number of digits Python writes as
    text, where ``str`` would raise, a text that names that limit."""
    limit = get_int_max_str_digits()
    if limit and k >= 10 ** limit:
        return f"a number of more than {limit} digits"
    return str(k)


def analyze(sys: VerticalSystem, mode: GroupMode = GroupMode.POSITIVE, seed: int = 0,
            options: AnalyzeOptions | None = None) -> ToricityReport:
    """Full decision pipeline over the chosen scalar group.

    Invariance lattice, nondegeneracy, dimension test, binomial
    certificate, injectivity, mixed volume, all-positive nondegeneracy,
    constant-count conditions, and an exact coset count, in that order;
    every stage outcome is appended to the evidence trail, and the first
    stage that settles the verdict ends the run.  Counting and the
    positivity-specific certificates run only for the positive-reals mode.
    The count is exact for one equation (s = 1); a larger system that
    reaches it is reported locally toric with a constant number of cosets
    bounded by the mixed volume, and ``export`` writes its counting system
    for an external solver.  A given ``options.kappa`` is checked on entry,
    whichever stage settles.

    The binomial certificate (Perez Millan, Dickenstein, Shiu & Conradi
    2012): when C's echelon rows are binomials c_p e_p + c_f e_f with
    c_p c_f < 0 (``binomial_quickcheck``), each says x^(M_p - M_f) =
    -c_f kappa_f / (c_p kappa_p) > 0, so the positive zero set solves
    D^T log x = r for the n x s matrix D of the differences M_p - M_f.
    The matroid blocks span the same differences, so d = n - rank D and
    s + d = n says rank D = s: the zero set is one coset for every
    kappa > 0.  Row i of C diag(w) M^T is c_p w_p (M_p - M_f) for w in
    ker C, so its rank is s at every w > 0.  The verdict is ``toric`` with
    "yes-for-all-positive", and the injectivity determinant is computed
    only when the report's field is first read.

    A sign-definite injectivity determinant det[C diag(mu) M^T diag(al); A]
    also certifies all-positive nondegeneracy: it is nonzero at every
    mu > 0, al > 0, every strictly positive kernel vector w (a strictly
    positive combination of the extreme rays, whose supports cover all m
    columns) is such a mu, and a rank of C diag(w) M^T below s would make
    the top rows dependent at mu = w, al = 1.  Positive row scalings of C
    change none of this.  So after a toric injectivity the report reads
    "yes-for-all-positive" with no extreme rays and no minor sweep,
    whatever the size of the system.
    """
    opts = options or AnalyzeOptions()
    if opts.kappa is not None:
        _checked_kappa(sys, opts.kappa)
    rep = ToricityReport(mode=mode, seed=seed, n=sys.n, m=sys.m, s=sys.s)
    fp = sys.fingerprint()

    def log(test: str, outcome: str):
        rep.evidence.append(EvidenceRecord(test, fp, outcome))

    def settle(verdict: Verdict, note: str, cosets: int | None = None) -> ToricityReport:
        rep.verdict = verdict
        rep.notes.append(note)
        rep.coset_count = 1 if verdict is Verdict.TORIC else cosets
        rep.constant_count = verdict in (Verdict.TORIC, Verdict.LOCALLY_TORIC)
        return rep

    rep.binomial = binomial_quickcheck(sys)
    log("binomial_quickcheck", str(rep.binomial))

    if sys.circuits.support_union() != frozenset(range(sys.m)):
        log("support_union", "incomplete")
        return settle(Verdict.EMPTY_POSITIVE_LOCUS,
                      f"zero sets are empty over {mode.value} for every parameter value")
    log("support_union", "complete")
    if mode is GroupMode.POSITIVE:
        if sys.positive_kernel.is_empty:
            log("positive_kernel", "empty")
            return settle(Verdict.EMPTY_POSITIVE_LOCUS,
                          "positive zero sets are empty for every parameter value")
        rep.positive_kernel_witness = sys.positive_kernel.witness
        log("positive_kernel", "witness")

    rep.partition = matroid_partition(sys)
    log("matroid_partition", f"{len(rep.partition)} blocks")
    inv = rep.invariance = invariance_group(sys, mode)
    rep.d = inv.d
    log("invariance_group", f"d={inv.d}")
    quasi = quasihomogeneity_weights(sys)
    rep.quasihomogeneity_rank = quasi.rows
    # both lattices are in Hermite normal form, so equal lattices are equal matrices
    rep.quasihomogeneity_agrees = quasi == inv.A
    log("quasihomogeneity", f"rank={quasi.rows}")

    nd = nondegeneracy(sys, seed)
    rep.nondegenerate = nd.status if nd.status != "undetermined" else "unknown"
    rep.witness = nd.witness
    log("nondegeneracy", nd.status)
    if nd.status == "no":
        return settle(Verdict.INVARIANT_ONLY,
                      "degenerate system: zero sets never have the expected dimension")
    if nd.status != "yes":
        return settle(Verdict.INVARIANT_ONLY, "nondegeneracy undecided; only invariance is reported")
    if local_toricity(sys, inv, nd) is Verdict.NOT_LOCALLY_TORIC:
        log("dimension_test", f"s+d={sys.s + inv.d}<n={sys.n}")
        return settle(Verdict.NOT_LOCALLY_TORIC,
                      "zero sets have strictly larger dimension than the scaling lattice")
    log("dimension_test", f"s+d=n={sys.n}")
    if mode is not GroupMode.POSITIVE:
        return settle(Verdict.GENERICALLY_LOCALLY_TORIC,
                      f"counting and positivity certificates apply to the positive mode only; "
                      f"over {mode.value} the verdict stops at generic local toricity")

    # binomial echelon rows with s + d = n: one coset for every kappa > 0,
    # and full rank on the whole positive kernel (see the docstring)
    if rep.binomial:
        log("binomial_certificate", "toric")
        rep.nondegenerate = "yes-for-all-positive"
        rep.defer(injectivity=partial(injectivity_test, sys, inv))
        return settle(Verdict.TORIC, "toric over the positive reals: the equations are "
                                     "binomials with independent exponent differences")

    inj = rep.injectivity = injectivity_test(sys, inv)
    log("injectivity", "toric" if inj.toric else f"inconclusive ({inj.reason})")
    if inj.toric:
        # a sign-definite det[C diag(mu) M^T diag(al); A] is nonzero at
        # mu = w, al = 1 for every strictly positive kernel vector w
        log("all_positive_nondegeneracy", "yes")
        rep.nondegenerate = "yes-for-all-positive"
        return settle(Verdict.TORIC,
                      "toric over the positive reals: injectivity determinant is sign-definite")
    mv = bound = None
    if sys.n > MIXED_VOLUME_MAX_DIM:
        log("mixed_volume", "skipped (dimension)")
    else:
        try:
            mv = rep.mixed_volume_bound = mixed_volume(_coset_supports(sys, inv))
            bound = _number_text(mv)
            log("mixed_volume", bound)
        except VolumeBudgetError:
            log("mixed_volume", "skipped (budget)")
    all_pos = nondegeneracy_all_positive(sys)
    log("all_positive_nondegeneracy", all_pos.status)
    if all_pos.status != "yes":
        if mv == 1:
            return settle(Verdict.GENERICALLY_TORIC, "generically toric: root-count bound is one")
        return settle(Verdict.GENERICALLY_LOCALLY_TORIC,
                      "generically locally toric; no root-count bound computed" if mv is None
                      else f"generically locally toric with generically at most {bound} cosets")
    rep.nondegenerate = "yes-for-all-positive"
    if mv == 1:
        return settle(Verdict.TORIC, "toric: single coset forced by the root-count bound, "
                                     "valid for every positive parameter value")

    conds = None
    if all(sys.M.entry(i, j) >= 0 for i in range(sys.n) for j in range(sys.m)):
        conds = rep.conditions = constant_coset_conditions(sys, inv, opts.boundary)
        log("constant_count_conditions", f"boundary={conds.boundary_empty} "
            f"rank={conds.rank_all_positive} rowspace={conds.row_space_positive}")
    else:
        log("constant_count_conditions", "skipped (negative exponents)")
    countable = conds is not None and conds.row_space_positive and conds.boundary_empty == "yes"
    if countable and sys.s != 1:
        log("coset_count", f"skipped (s={sys.s}; exact count needs one equation)")
    if not countable or sys.s != 1:
        return settle(Verdict.LOCALLY_TORIC, f"locally toric with a constant number of cosets, "
                                             f"at most {bound or 'unknown'}")
    kappa = opts.kappa
    if kappa is None:
        rng = random_rng(seed ^ 0xC0FFEE)
        kappa = tuple(Fraction(rng.randint(1, 1 << 10), 1 << 4) for _ in range(sys.m))
    count = count_positive_cosets(coset_counting_system(sys, inv, kappa, seed))
    rep.coset_count_kind = "exact"
    rep.parameter_region_full = conds.all_hold
    log("coset_count", f"exact:{count}")
    if count == 1:
        return settle(Verdict.TORIC, "toric: the counting system has exactly one positive zero, "
                                     "and the count is parameter-independent")
    return settle(Verdict.LOCALLY_TORIC, f"locally toric with a constant count of {count} cosets",
                  count)
