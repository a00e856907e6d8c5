"""Sparse multivariate polynomials with exact rational coefficients.

Terms map exponent vectors to nonzero coefficients; printing and hashing use
the graded lexicographic order.  On top of the ring arithmetic the module
provides symbolic determinants (plain and stacked against a constant block),
coefficient-sign classification, and Sturm-sequence root counting for the
univariate case.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .exactalg import RationalMatrix, _frac, int_det


class VariableMismatchError(ValueError):
    """Operands live in rings with different variable lists."""


class DeterminantSizeError(ValueError):
    """Symbolic expansion refused beyond the supported matrix size."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no well-defined root count."""


DET_SIZE_LIMIT = 12


class SparsePolynomial:
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

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "SparsePolynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables, value) -> "SparsePolynomial":
        variables = tuple(variables)
        c = _frac(value)
        if c == 0:
            return cls(variables)
        return cls(variables, {tuple([0] * len(variables)): c})

    @classmethod
    def variable(cls, variables, name) -> "SparsePolynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, variables, exps, coeff=1) -> "SparsePolynomial":
        return cls(variables, {tuple(exps): _frac(coeff)})

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "SparsePolynomial"):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variables {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, Fraction(0)) + c
            if acc == 0:
                terms.pop(e, None)
            else:
                terms[e] = acc
        out = SparsePolynomial(self.variables)
        out.terms = terms
        return out

    def __neg__(self):
        out = SparsePolynomial(self.variables)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            other = SparsePolynomial.constant(self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(e, Fraction(0)) + c1 * c2
                if acc == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = acc
        out = SparsePolynomial(self.variables)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def scale(self, scalar) -> "SparsePolynomial":
        c = _frac(scalar)
        out = SparsePolynomial(self.variables)
        if c != 0:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def __pow__(self, n: int) -> "SparsePolynomial":
        if n < 0:
            raise ValueError("negative power")
        acc = SparsePolynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def substitute(self, name: str, replacement: "SparsePolynomial") -> "SparsePolynomial":
        """Replace a variable by a polynomial of the same ring."""
        self._check(replacement)
        idx = self.variables.index(name)
        out = SparsePolynomial.zero(self.variables)
        powers = {0: SparsePolynomial.constant(self.variables, 1)}

        def power(k):
            if k not in powers:
                powers[k] = power(k - 1) * replacement
            return powers[k]

        for e, c in self.terms.items():
            rest = list(e)
            k = rest[idx]
            rest[idx] = 0
            mono = SparsePolynomial.monomial(self.variables, rest, c)
            out = out + mono * power(k)
        return out

    def extend(self, variables) -> "SparsePolynomial":
        """View the polynomial in a larger ring containing its variables."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables]
        terms = {}
        for e, c in self.terms.items():
            ee = [0] * len(variables)
            for p, x in zip(pos, e):
                ee[p] = x
            terms[tuple(ee)] = c
        out = SparsePolynomial(variables)
        out.terms = terms
        return out

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def evaluate(self, values: dict) -> Fraction:
        vals = [_frac(values[v]) for v in self.variables]
        total = Fraction(0)
        for e, c in self.terms.items():
            acc = c
            for base, k in zip(vals, e):
                if k:
                    acc *= base ** k
            total += acc
        return total

    def used_variables(self) -> tuple[str, ...]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.variables[i])
        return tuple(v for v in self.variables if v in used)

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
    pos = any(c > 0 for c in p.terms.values())
    neg = any(c < 0 for c in p.terms.values())
    if pos and neg:
        return SignVerdict.MIXED_SIGNS
    return SignVerdict.ALL_POSITIVE if pos else SignVerdict.ALL_NEGATIVE


# ---------------------------------------------------------------------------
# Determinants
#
# The expansions run on packed polynomials: dicts from one int, holding the
# exponent vector with each variable in its own bit field, to an integer
# coefficient.  Rows are scaled to integers first and the product of the
# scales is divided out once, when the result is unpacked.


def _bit_fields(rows, variables) -> list[tuple[int, int]]:
    """Bit offset and mask of each variable's field in a packed exponent.

    A field holds the variable's degree bound for a product of one entry per
    row: the sum over the rows of the row's largest exponent.  Every term of
    every minor stays within it, so packed exponents add without carries.
    """
    bounds = [0] * len(variables)
    for row in rows:
        for p in row:
            if p.variables != variables:
                raise VariableMismatchError(f"variables {p.variables} vs {variables}")
        exps = [e for p in row for e in p.terms]
        if exps:
            bounds = [b + max(col) for b, col in zip(bounds, zip(*exps))]
    fields = []
    shift = 0
    for b in bounds:
        width = b.bit_length()
        fields.append((shift, (1 << width) - 1))
        shift += width
    return fields


def _pack(exps, fields) -> int:
    key = 0
    for k, (shift, _) in zip(exps, fields):
        key |= k << shift
    return key


def _row_scale(coeffs) -> int:
    """Least positive integer that makes every coefficient integral."""
    return lcm(*(c.denominator for c in coeffs))


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Rational rows scaled to integers by their least common denominators;
    returns them with the product of the scales."""
    scaled = []
    scale = 1
    for row in rows:
        r = _row_scale(row)
        scale *= r
        scaled.append([c.numerator * (r // c.denominator) for c in row])
    return scaled, scale


def _pack_rows(rows, fields) -> tuple[list[list[dict[int, int]]], int]:
    """Rows of polynomials as packed integer polynomials, each row scaled by
    its least common denominator; returns them with the product of scales."""
    packed = []
    scale = 1
    for row in rows:
        r = _row_scale(c for p in row for c in p.terms.values())
        scale *= r
        packed.append([{_pack(e, fields): c.numerator * (r // c.denominator)
                        for e, c in p.terms.items()} for p in row])
    return packed, scale


def _unpack(variables, packed: dict[int, int], fields, denominator: int) -> SparsePolynomial:
    """The packed polynomial divided by ``denominator`` (which may be negative)."""
    out = SparsePolynomial(variables)
    out.terms = {tuple((key >> shift) & mask for shift, mask in fields): Fraction(c, denominator)
                 for key, c in packed.items() if c}
    return out


def _packed_det(rows, columns: int) -> dict[int, int]:
    """Determinant of packed rows on the columns set in ``columns``, taken in
    increasing order, by Laplace expansion along the rows with the minors
    memoized on their set of columns."""
    s = len(rows)
    memo = {0: {0: 1}}

    def minor(mask):
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
        memo[mask] = result
        return result

    return minor(columns)


def det_symbolic(matrix) -> SparsePolynomial:
    """Exact determinant of a square matrix of polynomials.

    Expansion proceeds row by row, sparsest rows first, with minors memoized
    on the set of unused columns; matrices above the size guard are refused.
    """
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
    order = sorted(range(n), key=lambda i: sum(0 if p.is_zero() else 1 for p in matrix[i]))
    rows = [matrix[i] for i in order]
    fields = _bit_fields(rows, variables)
    packed, scale = _pack_rows(rows, fields)
    total = _packed_det(packed, (1 << n) - 1)
    return _unpack(variables, total, fields, _permutation_sign(order) * scale)


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


def det_stacked(top, bottom: RationalMatrix) -> SparsePolynomial:
    """Determinant of [top; bottom] with polynomial top rows and rational bottom.

    Laplace expansion along the top block: the sum over s-column sets S of
    sign(S) det(top[:, S]) det(bottom[:, ~S]).  Only sets whose complement is
    a basis of the bottom block contribute; they are enumerated directly, and
    each constant minor is an integer determinant of the row-scaled bottom.
    When every top column is one monomial times constants, each top minor is
    the product of its columns' monomials times an integer determinant, so S
    also runs only over bases of the top block and no polynomial arithmetic
    is done.  Otherwise each top minor is a packed expansion, as in
    ``det_symbolic`` and under its size guard.
    """
    s = len(top)
    n = len(top[0]) if s else bottom.cols
    d = bottom.rows
    if s + d != n or (d and bottom.cols != n):
        raise ValueError("stacked matrix is not square")
    if s == 0:
        raise ValueError("no symbolic rows to expand")
    variables = top[0][0].variables
    lower, scale = _integer_rows(bottom.row(i) for i in range(d))
    lower_cols = list(zip(*lower)) if d else [()] * n
    fields = _bit_fields(top, variables)
    base = s * (s - 1) // 2
    total: dict[int, int] = {}
    monomials = _column_monomials(top)
    if monomials is not None:
        upper, top_scale = _integer_rows([next(iter(p.terms.values()), Fraction(0)) for p in row]
                                         for row in top)
        upper_cols = list(zip(*upper))
        keys = [_pack(e, fields) if e is not None else 0 for e in monomials]
        for cols, comp in _splits(upper_cols, lower_cols, s):
            # columns passed as rows: a transpose has the same determinant
            value = int_det([upper_cols[k] for k in cols]) * int_det([lower_cols[k] for k in comp])
            if (sum(cols) - base) % 2:
                value = -value
            key = sum(keys[k] for k in cols)
            total[key] = total.get(key, 0) + value
        return _unpack(variables, total, fields, scale * top_scale)
    if s > DET_SIZE_LIMIT:
        raise DeterminantSizeError(
            f"symbolic determinant limited to {DET_SIZE_LIMIT}x{DET_SIZE_LIMIT} (got {s})"
        )
    order = sorted(range(s), key=lambda i: sum(0 if p.is_zero() else 1 for p in top[i]))
    packed, top_scale = _pack_rows([top[i] for i in order], fields)
    for cols, comp in _splits(None, lower_cols, s):
        value = int_det([lower_cols[k] for k in comp])
        if (sum(cols) - base) % 2:
            value = -value
        for key, c in _packed_det(packed, sum(1 << k for k in cols)).items():
            total[key] = total.get(key, 0) + value * c
    return _unpack(variables, total, fields, _permutation_sign(order) * scale * top_scale)


def _column_monomials(top):
    """Per column, the exponent vector shared by all its nonzero entries
    (None for a zero column); None when some column has no such monomial."""
    monomials = [None] * len(top[0])
    for row in top:
        for k, p in enumerate(row):
            if not p.terms:
                continue
            if len(p.terms) > 1:
                return None
            (e,) = p.terms
            if monomials[k] is None:
                monomials[k] = e
            elif monomials[k] != e:
                return None
    return monomials


def _extend(basis, v) -> bool:
    """Append ``v`` to the echelon ``basis`` of (pivot, vector) pairs if it is
    independent of it.  The pivots already in the basis are eliminated from
    ``v`` fraction-free; what is left is zero exactly on the span."""
    for p, w in basis:
        c = v[p]
        if c:
            a = w[p]
            v = [a * x - c * y for x, y in zip(v, w)]
    for p, x in enumerate(v):
        if x:
            g = gcd(*v)
            basis.append((p, [y // g for y in v] if g > 1 else v))
            return True
    return False


def _suffix_ranks(cols) -> list[int]:
    """``ranks[j]`` is the rank of the columns j, j+1, ... (0 past the end)."""
    ranks = [0] * (len(cols) + 1)
    basis = []
    for j in range(len(cols) - 1, -1, -1):
        _extend(basis, cols[j])
        ranks[j] = len(basis)
    return ranks


def _splits(upper_cols, lower_cols, s) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every split of the columns into S (size s) and its complement such
    that the complement's lower columns are independent and, unless
    ``upper_cols`` is None, so are S's upper columns.

    Backtracking over the columns in order: a column joins a side only if it
    is independent of the columns that side holds, and a branch is cut as
    soon as the columns left have too low a rank to complete either side.
    """
    n = len(lower_cols)
    d = n - s
    lower_rank = _suffix_ranks(lower_cols)
    upper_rank = _suffix_ranks(upper_cols) if upper_cols is not None else [n - j for j in range(n + 1)]
    upper, lower = [], []
    upper_basis, lower_basis = [], []
    found = []

    def walk(j):
        if j == n:
            found.append((tuple(upper), tuple(lower)))
            return
        if s - len(upper) > upper_rank[j] or d - len(lower) > lower_rank[j]:
            return
        if len(upper) < s and (upper_cols is None or _extend(upper_basis, upper_cols[j])):
            upper.append(j)
            walk(j + 1)
            upper.pop()
            if upper_cols is not None:
                upper_basis.pop()
        if len(lower) < d and _extend(lower_basis, lower_cols[j]):
            lower.append(j)
            walk(j + 1)
            lower.pop()
            lower_basis.pop()

    walk(0)
    return found


# ---------------------------------------------------------------------------
# Sturm sequences


def univariate_coefficients(p: SparsePolynomial) -> tuple[list[Fraction], str]:
    """Dense coefficient list (ascending) and the variable name."""
    used = p.used_variables()
    if len(used) > 1:
        raise ValueError(f"polynomial is not univariate: uses {used}")
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    name = used[0] if used else (p.variables[0] if p.variables else "x")
    idx = p.variables.index(name) if p.variables else 0
    deg = max(e[idx] for e in p.terms) if p.variables else 0
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        coeffs[e[idx] if p.variables else 0] += c
    return coeffs, name


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, b):
    a = _trim(a)
    b = _trim(b)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[i + shift] -= f * bc
        a = _trim(a)
    return a


def _poly_quo(a, b):
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
    return q


def _poly_gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _derivative(c):
    return [i * x for i, x in enumerate(c)][1:]


def squarefree_part(coeffs):
    c = _trim([_frac(x) for x in coeffs])
    if len(c) <= 1:
        return c
    g = _poly_gcd(c, _derivative(c))
    if len(g) <= 1:
        return c
    return _trim(_poly_quo(c, g))


def sturm_chain(coeffs):
    p0 = _trim(coeffs)
    p1 = _trim(_derivative(p0))
    chain = [p0]
    if p1:
        chain.append(p1)
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
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
    """Sign at a rational point, or at +inf / -inf / 0+ ('pos0')."""
    if point == "+inf":
        return _sgn(coeffs[-1])
    if point == "-inf":
        return _sgn(coeffs[-1]) * (-1 if (len(coeffs) - 1) % 2 else 1)
    if point == "pos0":
        for c in coeffs:
            if c != 0:
                return _sgn(c)
        return 0
    return _sgn(_eval(coeffs, point))


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _variations(chain, point) -> int:
    signs = [s for s in (_sign_at(c, point) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(p: SparsePolynomial, lower=None, upper=None) -> int:
    """Distinct real roots of a univariate polynomial in the open interval.

    ``lower``/``upper`` are rationals or None for -inf/+inf; roots exactly at
    finite endpoints are divided out first, so the interval is open.
    """
    coeffs, _ = univariate_coefficients(p)
    return count_distinct_roots_coeffs(coeffs, lower, upper)


def count_distinct_roots_coeffs(coeffs, lower=None, upper=None) -> int:
    c = squarefree_part(coeffs)
    if len(c) <= 1:
        if not c:
            raise ZeroPolynomialError("zero polynomial")
        return 0
    for endpoint in (lower, upper):
        if endpoint is None:
            continue
        e = _frac(endpoint)
        while len(c) > 1 and _eval(c, e) == 0:
            c = _poly_quo(c, [-e, Fraction(1)])
    if len(c) <= 1:
        return 0
    chain = sturm_chain(c)
    lo = "-inf" if lower is None else _frac(lower)
    hi = "+inf" if upper is None else _frac(upper)
    return _variations(chain, lo) - _variations(chain, hi)


def sturm_positive_roots(p: SparsePolynomial) -> int:
    """Number of distinct roots in (0, inf); the squarefree part is counted."""
    coeffs, _ = univariate_coefficients(p)
    # strip the monomial factor so 0 is not a root
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    coeffs = coeffs[k:]
    c = squarefree_part(coeffs)
    if len(c) <= 1:
        return 0
    chain = sturm_chain(c)
    return _variations(chain, "pos0") - _variations(chain, "+inf")
