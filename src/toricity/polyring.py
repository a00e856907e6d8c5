"""Sparse multivariate polynomials with exact rational coefficients.

A ``SparsePolynomial`` is a read-only value: terms map exponent vectors to
nonzero coefficients, and printing and hashing use the graded lexicographic
order.  The module has no ring arithmetic; it builds polynomials as
symbolic determinants (plain and stacked against a constant block) and
reads them back by coefficient-sign classification.  Sturm sequences count
the distinct real roots of a univariate coefficient list.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .exactalg import IntegerMatrix, RationalMatrix, _frac, int_det


class VariableMismatchError(ValueError):
    """Entries of one matrix have different variable lists."""


class DeterminantSizeError(ValueError):
    """Symbolic expansion refused beyond the supported matrix size."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no well-defined root count."""


DET_SIZE_LIMIT = 12
_DET_TERM_BUDGET = 4_000_000      # terms held by the minors of one expansion or sweep


class SparsePolynomial:
    """A read-only polynomial: its variable names and its terms."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            width = len(self.variables)
            for exps, coeff in terms.items():
                c = _frac(coeff)
                if c == 0:
                    continue
                e = tuple(int(x) for x in exps)
                if len(e) != width:
                    raise ValueError("exponent vector length mismatch")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponents are not stored")
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, tuple(self.sorted_terms())))

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"SparsePolynomial({render(self)!r})"


def render(p: SparsePolynomial) -> str:
    """Canonical text form: graded-lex order, explicit '*' and '^'."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = []
        for name, k in zip(p.variables, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


class SignVerdict(Enum):
    ZERO_POLYNOMIAL = "zero-polynomial"
    ALL_POSITIVE = "all-positive"
    ALL_NEGATIVE = "all-negative"
    MIXED_SIGNS = "mixed-signs"


def sign_classify(p: SparsePolynomial) -> SignVerdict:
    if p.is_zero():
        return SignVerdict.ZERO_POLYNOMIAL
    if isinstance(p, _PackedDeterminant) and p._terms is None:
        # a term's sign is its packed coefficient's times the factor's
        coeffs, flip = p._packed.values(), p._factor < 0
    else:
        coeffs, flip = p.terms.values(), False
    pos = any(c > 0 for c in coeffs)
    neg = any(c < 0 for c in coeffs)
    if flip:
        pos, neg = neg, pos
    if pos and neg:
        return SignVerdict.MIXED_SIGNS
    return SignVerdict.ALL_POSITIVE if pos else SignVerdict.ALL_NEGATIVE


def term_count(p: SparsePolynomial) -> int:
    """Number of terms, read without decoding a packed determinant."""
    if isinstance(p, _PackedDeterminant) and p._terms is None:
        return len(p._packed)
    return len(p.terms)


# ---------------------------------------------------------------------------
# Determinants
#
# Each determinant is one Laplace expansion of a square matrix of integer
# polynomials; ``det_stacked`` first eliminates its constant rows exactly,
# and ``minor_sweep`` runs one expansion over every maximal minor.  Callers
# build the rows in integers, each over a scale, with monomials as tuples of
# variable indices; ``det_symbolic`` converts its ``SparsePolynomial``s so
# and stacks them on no constant rows.
# ``_pack`` turns a monomial into one int, holding the exponent vector with
# each variable in its own bit field.  The product of the scales, the
# row-order sign and det(A_P) make up one rational factor.  The result
# stays packed, as a ``_PackedDeterminant``: its sign pattern and
# whether it is zero are read from the packed coefficients and the sign of
# the factor, and its exponent tuples and ``Fraction`` coefficients are
# decoded only when something reads ``terms``: rendering and equality.
# The memoized minors of one expansion or sweep hold at most
# ``_DET_TERM_BUDGET`` terms: 4 million take about 400 MB, and the
# multistationarity matrix of the 7-layer cascade needs 1.4 million.


def _pack(rows, nvars: int) -> tuple[list[list[dict[int, int]]], list[tuple[int, int]]]:
    """Rows of integer polynomials keyed by monomials, keyed by packed
    exponents instead, and the bit offset and mask of each variable's field.

    A field holds the sum over the rows of the variable's largest degree in
    a monomial of the row.  Each term of a minor, before or after column
    operations within the rows, multiplies one monomial of each row, so it
    stays within every field and packed exponents add without carries.
    """
    bounds = [0] * nvars
    for row in rows:
        degree = {}
        for mono in {mono for entry in row for mono in entry}:
            for v in mono:
                degree[v] = max(degree.get(v, 0), mono.count(v))
        if degree and (min(degree) < 0 or max(degree) >= nvars):
            raise ValueError(f"a monomial names a variable outside 0..{nvars - 1}")
        for v, k in degree.items():
            bounds[v] += k
    fields, bits, shift = [], [], 0
    for b in bounds:
        fields.append((shift, (1 << b.bit_length()) - 1))
        bits.append(1 << shift)
        shift += b.bit_length()

    def pack(entry):
        acc = {}
        for mono, c in entry.items():
            key = sum(bits[v] for v in mono)
            acc[key] = acc.get(key, 0) + c
        return {k: c for k, c in acc.items() if c}
    return [[pack(entry) for entry in row] for row in rows], fields


def _unpack(packed: dict[int, int], fields, factor: Fraction) -> dict:
    """Terms of the packed polynomial times the rational ``factor``.

    Keys are decoded eight fields at a time, and each distinct group of
    eight is decoded once: the terms of a determinant share most of them.
    """
    num, den = factor.numerator, factor.denominator
    groups = []
    for g in range(0, len(fields), 8):
        chunk = fields[g:g + 8]
        base = chunk[0][0]
        width = chunk[-1][0] + chunk[-1][1].bit_length() - base
        groups.append((base, (1 << width) - 1, [(shift - base, mask) for shift, mask in chunk], {}))
    terms = {}
    for key, c in packed.items():
        if c:
            e = ()
            for base, mask, chunk, seen in groups:
                part = (key >> base) & mask
                exps = seen.get(part)
                if exps is None:
                    exps = seen[part] = tuple((part >> shift) & m for shift, m in chunk)
                e += exps
            terms[e] = Fraction(c * num, den)
    return terms


class _PackedDeterminant(SparsePolynomial):
    """A determinant as ``_packed_det`` left it: packed integer terms, the
    bit fields of their keys and the rational factor they are multiplied by.

    ``is_zero``, ``sign_classify`` and ``term_count`` read the packed form.
    The first read of ``terms`` decodes it with ``_unpack``, and from then
    on the object is the ordinary polynomial; pickling and copying give
    that polynomial as a plain ``SparsePolynomial``.
    """

    __slots__ = ("_packed", "_fields", "_factor", "_terms")

    def __init__(self, variables, packed: dict[int, int], fields, factor: Fraction):
        self.variables = tuple(variables)
        self._packed, self._fields, self._factor = packed, fields, factor
        self._terms = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = _unpack(self._packed, self._fields, self._factor)
            self._packed = self._fields = None
        return self._terms

    def is_zero(self) -> bool:
        return not (self._packed if self._terms is None else self._terms)

    def __reduce__(self):
        return SparsePolynomial, (self.variables, self.terms)


def _packed_det(rows, masks):
    """Determinants of packed rows on each column set in ``masks``, lazily:
    a column set is a bit mask whose columns are taken in increasing order.
    Each is a Laplace expansion along the rows, and one memo of minors, keyed
    by their set of columns, serves every column set of the call.  Raises
    ``DeterminantSizeError`` once the memo and the determinant being
    yielded hold more than ``_DET_TERM_BUDGET`` terms."""
    s = len(rows)
    memo = {0: {0: 1}}
    held = 0

    def minor(mask):
        nonlocal held
        found = memo.get(mask)
        if found is not None:
            return found
        row = rows[s - mask.bit_count()]
        acc = {}
        negate = False
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = row[bit.bit_length() - 1]
            if entry:
                sub = minor(mask ^ bit)
                for k1, c1 in entry.items():
                    if negate:
                        c1 = -c1
                    for k2, c2 in sub.items():
                        k = k1 + k2
                        acc[k] = acc.get(k, 0) + c1 * c2
            negate = not negate
        result = {k: c for k, c in acc.items() if c}
        held += len(result)
        if held > _DET_TERM_BUDGET:
            raise DeterminantSizeError(
                f"symbolic determinant exceeds its budget of {_DET_TERM_BUDGET} terms")
        memo[mask] = result
        return result

    for mask in masks:
        det = minor(mask)
        # no other expansion reads a full-size minor: it leaves the memo
        del memo[mask]
        held -= len(det)
        yield det


def det_symbolic(matrix) -> SparsePolynomial:
    """Exact determinant of a square matrix of polynomials: ``det_stacked``
    of its rows, each scaled by the least common denominator of its
    coefficients, over an empty bottom block.  Matrices above the size guard
    are refused, and so is an expansion past the term budget."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix not square")
    if n > DET_SIZE_LIMIT:
        raise DeterminantSizeError(
            f"symbolic determinant limited to {DET_SIZE_LIMIT}x{DET_SIZE_LIMIT} (got {n})"
        )
    variables = matrix[0][0].variables
    rows, scales = [], []
    for row in matrix:
        for p in row:
            if p.variables != variables:
                raise VariableMismatchError(f"variables {p.variables} vs {variables}")
        scale = lcm(*(c.denominator for p in row for c in p.terms.values()))
        rows.append([{tuple(v for v, k in enumerate(e) for _ in range(k)):
                      c.numerator * (scale // c.denominator) for e, c in p.terms.items()}
                     for p in row])
        scales.append(scale)
    return det_stacked(rows, scales, variables, IntegerMatrix.with_width([], n))


def minor_sweep(rows, scales, variables):
    """Every s x s minor of an s x n matrix linear in the variables, lazily,
    as ``(columns, determinant)`` in ``itertools.combinations`` order.

    ``rows[i][k]`` holds the integer coefficient of each variable in entry
    (i, k); row i of the matrix is that row over ``scales[i]``.  It is packed
    once, as ``det_stacked``'s rows are, sparsest rows first, and one
    ``_packed_det`` expansion shares its memo and term budget across all
    minors.  Above the size guard the first minor raises."""
    s = len(rows)
    if s > DET_SIZE_LIMIT:
        raise DeterminantSizeError(
            f"symbolic determinant limited to {DET_SIZE_LIMIT}x{DET_SIZE_LIMIT} (got {s})")
    order = sorted(range(s), key=lambda i: sum(1 for entry in rows[i] if any(entry)))
    packed, fields = _pack([[{(t,): c for t, c in enumerate(entry) if c} for entry in rows[i]]
                            for i in order], len(variables))
    factor = Fraction(_permutation_sign(order), prod(scales))
    columns = range(len(rows[0]))
    masks = (sum(1 << k for k in cols) for cols in combinations(columns, s))
    for cols, det in zip(combinations(columns, s), _packed_det(packed, masks)):
        yield cols, _PackedDeterminant(variables, det, fields, factor)


def _permutation_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_stacked(rows, scales, variables, bottom: RationalMatrix | IntegerMatrix) -> SparsePolynomial:
    """Determinant of [top; bottom] with polynomial top rows and a constant bottom.

    The top is given in integers: ``rows[i][k]`` maps each monomial of
    entry (i, k), a tuple of indices into ``variables`` with an index
    repeated for a power, to an integer coefficient, and row i of the top
    is that row over ``scales[i]``.  The echelon form the bottom block A
    keeps gives its pivot columns P and X = A_P^-1 A_R on the other columns R.
    Subtracting from each top column r in R the top's P columns weighted by
    X[:, r] is a column operation that zeroes the bottom block on R, so
    Laplace expansion along the bottom rows keeps one term,
    sign(R) det(top'[:, R]) det(A_P): one packed s x s expansion.  A
    rank-deficient bottom block gives the zero polynomial.  There is no
    size guard: the expansion raises ``DeterminantSizeError`` once the
    minors it holds exceed ``_DET_TERM_BUDGET`` terms.
    """
    s = len(rows)
    n = len(rows[0]) if s else bottom.cols
    d = bottom.rows
    if s + d != n or (d and bottom.cols != n):
        raise ValueError("stacked matrix is not square")
    if s == 0:
        raise ValueError("no symbolic rows to expand")
    variables = tuple(variables)
    echelon, pivots = bottom.integer_echelon()
    if len(pivots) < d:
        return SparsePolynomial(variables)
    rest = [k for k in range(n) if k not in pivots]
    lower = bottom.integer_rows()
    det_p = int_det([[row[p] for p in pivots] for row, _ in lower])
    scale = prod(den for _, den in lower) * prod(scales)
    # column r of top' is (den * top[:, r] - sum_i c_i top[:, pivots[i]]) / den, c / den = X[:, r]
    combos = []
    for r in rest:
        den = lcm(*(abs(e[p]) // gcd(e[r], e[p]) for e, p in zip(echelon, pivots)))
        coeffs = [e[r] * den // e[p] for e, p in zip(echelon, pivots)]
        scale *= den
        combos.append((r, den, [(c, p) for c, p in zip(coeffs, pivots) if c]))
    packed, fields = _pack(rows, len(variables))
    reduced_rows = []
    for row in packed:
        reduced = []
        for r, den, combo in combos:
            acc = {k: den * c for k, c in row[r].items()}
            for c, p in combo:
                for k, v in row[p].items():
                    acc[k] = acc.get(k, 0) - c * v
            reduced.append({k: v for k, v in acc.items() if v})
        reduced_rows.append(reduced)
    order = sorted(range(s), key=lambda i: sum(1 for p in reduced_rows[i] if p))
    total = next(_packed_det([reduced_rows[i] for i in order], [(1 << s) - 1]))
    if (sum(rest) - s * (s - 1) // 2) % 2:
        det_p = -det_p
    return _PackedDeterminant(variables, total, fields,
                              Fraction(_permutation_sign(order) * det_p, scale))


# ---------------------------------------------------------------------------
# Sturm sequences


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Quotient and remainder of a by b, as ascending coefficient lists."""
    a = _trim(a)
    b = _trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            a[i + shift] -= f * bc
        a = _trim(a)
    return q, a


def _derivative(c):
    return [i * x for i, x in enumerate(c)][1:]


def sturm_chain(coeffs):
    p0 = _trim(coeffs)
    p1 = _trim(_derivative(p0))
    chain = [p0]
    if p1:
        chain.append(p1)
    while len(chain[-1]) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-x for x in rem])
    return chain


def _eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_at(coeffs, point) -> int:
    """Sign at a rational point, or at +inf / -inf."""
    if point == "+inf":
        return _sgn(coeffs[-1])
    if point == "-inf":
        return _sgn(coeffs[-1]) * (-1 if (len(coeffs) - 1) % 2 else 1)
    return _sgn(_eval(coeffs, point))


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _variations(chain, point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(coeffs, lower=None, upper=None) -> int:
    """Distinct real roots in the open interval of the univariate polynomial
    with ascending coefficient list ``coeffs``.

    ``lower``/``upper`` are rationals or None for -inf/+inf; roots exactly at
    finite endpoints are divided out first, so the interval is open, and
    empty when ``lower >= upper``.  The Sturm chain of a polynomial with
    repeated roots ends in the gcd of the polynomial and its derivative, a
    factor of every member; it changes no sign change at a point where the
    polynomial is nonzero, so the chain counts distinct roots as it stands.
    """
    c = _trim([_frac(x) for x in coeffs])
    if not c:
        raise ZeroPolynomialError("zero polynomial")
    if len(c) == 1 or (lower is not None and upper is not None
                       and _frac(lower) >= _frac(upper)):
        return 0
    for endpoint in (lower, upper):
        if endpoint is None:
            continue
        e = _frac(endpoint)
        while len(c) > 1 and _eval(c, e) == 0:
            c = _poly_divmod(c, [-e, Fraction(1)])[0]
    if len(c) <= 1:
        return 0
    chain = sturm_chain(c)
    lo = "-inf" if lower is None else _frac(lower)
    hi = "+inf" if upper is None else _frac(upper)
    return _variations(chain, lo) - _variations(chain, hi)

