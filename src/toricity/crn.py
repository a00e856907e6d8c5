"""Reaction-network frontend.

Parsing of reaction network text, stoichiometric and kinetic matrices under
mass-action kinetics, conservation laws, removal of single-input
intermediates, multistationarity and concentration-robustness tests, and
linkage-class / deficiency structure.

The parser reads the text in one pass.  One regular expression splits each
statement into tokens, and a character outside the grammar is an error.  One
loop then walks the statement's tokens, closed by an end token, keeping only
what it expects next: a complex, a term after '+', a species name after a
coefficient, or a '+', an arrow or the end after a complex's last term.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb
from operator import mul

from .exactalg import (
    IntegerMatrix,
    RationalMatrix,
    _integer_rref,
    hermite_normal_form,
    left_kernel_basis,
)
from .polyhedra import strictly_positive_kernel
from .polyring import (
    DET_SIZE_LIMIT,
    DeterminantSizeError,
    SignVerdict,
    det_stacked,
    sign_classify,
)
from .core import (
    AnalyzeOptions,
    EmptyLocusError,
    GroupMode,
    InjectivityResult,
    InvarianceResult,
    ToricityReport,
    Verdict,
    VerticalSystem,
    analyze,
    injectivity_test,
    invariance_group,
    matroid_partition,
    nondegeneracy_all_positive,
)


class NetworkParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ZeroDynamicsError(ValueError):
    """The stoichiometric matrix is zero: no dynamics to analyze."""


class InvalidChoiceError(ValueError):
    """The proposed intermediate set violates the reduction conditions."""


class SearchBudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    complexes: tuple[tuple[int, ...], ...]   # nonnegative vectors over species
    reactions: tuple[tuple[int, int, str], ...]  # (source idx, target idx, label)

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def num_reactions(self) -> int:
        return len(self.reactions)

    def complex_text(self, idx: int) -> str:
        vec = self.complexes[idx]
        parts = []
        for coeff, name in zip(vec, self.species):
            if coeff == 0:
                continue
            parts.append(name if coeff == 1 else f"{coeff}{name}")
        return " + ".join(parts) if parts else "0"

    def reaction_text(self, k: int) -> str:
        src, tgt, label = self.reactions[k]
        return f"{self.complex_text(src)} -> {self.complex_text(tgt)}  [{label}]"

    @cached_property
    def _mass_action(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        """N (target - source) and M, built on the first
        ``mass_action_matrices`` call and kept."""
        sources = [self.complexes[src] for src, _, _ in self.reactions]
        targets = [self.complexes[tgt] for _, tgt, _ in self.reactions]
        width = self.num_reactions
        return (IntegerMatrix([[t[i] - s[i] for s, t in zip(sources, targets)]
                               for i in range(self.n)], width),
                IntegerMatrix([[s[i] for s in sources] for i in range(self.n)], width))

    @cached_property
    def _steady_state(self) -> VerticalSystem:
        """The steady-state system, built on the first
        ``steady_state_system`` call and kept."""
        N, M = self._mass_action
        C = N.row_basis()
        if C.rows == 0:
            raise ZeroDynamicsError("stoichiometric matrix is zero")
        labels = tuple(lbl for _, _, lbl in self.reactions)
        return VerticalSystem(C, M, variables=self.species, parameters=labels)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<rev><=>)|(?P<fwd>->)|(?P<plus>\+)|(?P<colon>:)|(?P<bad>\S))")


def _tokenize(stmt: str, line_no: int, offset: int) -> list[tuple[str, str, int]]:
    """The (kind, text, column) tokens of one statement; any character
    outside the grammar is an error at the column where the whitespace
    before it starts."""
    tokens = []
    for m in _TOKEN.finditer(stmt):
        kind = m.lastgroup
        if kind == "bad":
            raise NetworkParseError(f"unexpected character {m[kind]!r}",
                                    line_no, offset + m.start() + 1)
        tokens.append((kind, m[kind], offset + m.start(kind) + 1))
    return tokens


def parse_network(text: str) -> ReactionNetwork:
    """Parse the one-statement-per-line / ';'-separated reaction grammar.

    A statement is a chain ``complex (->|<=>) complex [...]``; a complex is
    ``0`` or terms ``[coefficient] name`` joined by '+'.  '#' starts a
    comment.  Species are ordered by first appearance unless an initial
    ``species: A B C`` header fixes the order.  Reversible arrows expand to
    two reactions, forward first, with labels k1, k2, ... in parse order.
    """
    species: dict[str, int] = {}
    fixed_order = False
    complexes: dict[tuple, int] = {}     # sorted (species, coefficient) pairs
    raw_reactions: list[tuple[int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        offset = 0
        for stmt in line.split("#", 1)[0].split(";"):
            tokens = _tokenize(stmt, line_no, offset) + [("end", "", offset + len(stmt))]
            offset += len(stmt) + 1
            if len(tokens) == 1:
                continue
            # every statement read so far left a species or the fixed order behind
            first = not (species or fixed_order)
            if first and tokens[0][1] == "species" and tokens[1][0] == "colon":
                for kind, name, col in tokens[2:-1]:
                    if kind != "name":
                        raise NetworkParseError("species header takes names only", line_no, col)
                    if name in species:
                        raise NetworkParseError(f"duplicate species {name!r}", line_no, col)
                    species[name] = len(species)
                fixed_order = True
                continue
            # expect: "complex" at a complex's start, "term" after '+',
            # "name" after a coefficient, "more" after a complex's last term
            expect, content, coeff, left, arrow = "complex", {}, 1, None, None
            for i, (kind, value, col) in enumerate(tokens):
                if expect == "more" and kind == "plus":
                    expect = "term"
                elif expect == "more":
                    right = complexes.setdefault(tuple(sorted(content.items())), len(complexes))
                    if arrow is not None:
                        if right == left:
                            raise NetworkParseError("reaction endpoints must differ",
                                                    line_no, arrow[1])
                        raw_reactions.append((left, right))
                        if arrow[0] == "rev":
                            raw_reactions.append((right, left))
                    left, content = right, {}
                    if kind in ("fwd", "rev"):
                        expect, arrow = "complex", (kind, col)
                    elif kind != "end":
                        raise NetworkParseError("expected '->' or '<=>'", line_no, col)
                    elif arrow is None:
                        raise NetworkParseError("statement has no reaction arrow", line_no,
                                                tokens[0][2])
                elif kind == "name":
                    if value not in species:
                        if fixed_order:
                            raise NetworkParseError(
                                f"species {value!r} not in the species header", line_no, col)
                        species[value] = len(species)
                    content[value] = content.get(value, 0) + coeff
                    expect, coeff = "more", 1
                elif kind != "int" or expect == "name":
                    raise NetworkParseError("expected a species name", line_no, col)
                elif expect == "complex" and value == "0" \
                        and tokens[i + 1][0] in ("fwd", "rev", "end"):
                    expect = "more"
                else:
                    try:
                        coeff = int(value)
                    except ValueError:  # more digits than Python converts
                        raise NetworkParseError(
                            f"coefficient of {len(value)} digits exceeds the "
                            f"{sys.get_int_max_str_digits()}-digit limit", line_no, col) from None
                    if coeff == 0:
                        raise NetworkParseError("zero coefficient", line_no, col)
                    expect = "name"

    if not raw_reactions:
        raise NetworkParseError("no reactions found", 1, 1)
    vecs = tuple(tuple(c.get(name, 0) for name in species) for c in map(dict, complexes))
    reactions = tuple((s, t, f"k{i+1}") for i, (s, t) in enumerate(raw_reactions))
    return ReactionNetwork(tuple(species), vecs, reactions)


# ---------------------------------------------------------------------------
# Matrices and the steady state system


def mass_action_matrices(net: ReactionNetwork) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Stoichiometric matrix N (target - source) and reactant matrix M.

    Both are built once per network and kept on it; the network and the
    matrices are immutable.
    """
    return net._mass_action


def steady_state_system(net: ReactionNetwork) -> VerticalSystem:
    """Vertical system of the steady states: a row basis of N against the
    reactant exponents.  It is built once per network and kept, so every
    reader shares its derived objects."""
    return net._steady_state


def conservation_laws(N: IntegerMatrix) -> RationalMatrix:
    """Echelon basis of the left kernel of N (one row per conserved quantity)."""
    return left_kernel_basis(N)


# ---------------------------------------------------------------------------
# Intermediates


@dataclass(frozen=True)
class IntermediateChoice:
    intermediates: tuple[int, ...]          # species indices
    non_intermediates: tuple[int, ...]
    input_complex: dict[int, int]           # species index -> complex index

    def __len__(self) -> int:
        return len(self.intermediates)


def _complex_digraph(net: ReactionNetwork) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Successors and predecessors of each complex in the reaction graph."""
    out: dict[int, set[int]] = {i: set() for i in range(len(net.complexes))}
    into: dict[int, set[int]] = {i: set() for i in range(len(net.complexes))}
    for src, tgt, _ in net.reactions:
        out[src].add(tgt)
        into[tgt].add(src)
    return out, into


def _walk(start: int, edges, inside) -> tuple[set[int], set[int]]:
    """Depth-first walk from ``start``, a node of ``inside``, along ``edges``.

    Returns the nodes of ``inside`` reachable from ``start`` through
    ``inside`` (``start`` among them) and the nodes outside ``inside`` that
    the walk runs into.
    """
    reached, hit = {start}, set()
    stack = [start]
    while stack:
        for nxt in edges[stack.pop()]:
            if nxt not in inside:
                hit.add(nxt)
            elif nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return reached, hit


def find_intermediates(net: ReactionNetwork) -> IntermediateChoice:
    """Maximal single-input intermediate choice, greedily by species index.

    A candidate species appears only as a singleton complex; it must sit on
    a reaction path entering from a unique outside complex and leaving to
    some outside complex, with all interior stops intermediates.
    """
    singleton_of: dict[int, int] = {}
    for ci, vec in enumerate(net.complexes):
        if sum(vec) == 1:
            singleton_of[vec.index(1)] = ci
    candidates = set()
    for i in range(net.n):
        appearances = [ci for ci, vec in enumerate(net.complexes) if vec[i] > 0]
        if appearances and all(sum(net.complexes[ci]) == 1 for ci in appearances):
            candidates.add(i)

    out_edges, in_edges = _complex_digraph(net)
    cands = set(candidates)
    inputs: dict[int, set[int]] = {}
    while cands:
        # outside complexes entering each candidate's complex through
        # intermediate ones, and whether it leaves to an outside complex
        inter_complexes = {singleton_of[i] for i in cands}
        inputs = {i: _walk(singleton_of[i], in_edges, inter_complexes)[1] for i in cands}
        bad = [i for i in sorted(cands) if len(inputs[i]) != 1
               or not _walk(singleton_of[i], out_edges, inter_complexes)[1]]
        if not bad:
            break
        cands.discard(bad[0])
    inter = tuple(sorted(cands))
    non_inter = tuple(i for i in range(net.n) if i not in cands)
    input_map = {i: next(iter(inputs[i])) for i in inter}
    return IntermediateChoice(inter, non_inter, input_map)


@dataclass(frozen=True)
class ReductionResult:
    network: ReactionNetwork
    B: IntegerMatrix                      # inputs of the intermediates over X
    surjectivity: str                     # "yes" | "conjectural"
    x_indices: tuple[int, ...]            # original species indices kept
    y_indices: tuple[int, ...]            # original species indices removed


def reduce_network(net: ReactionNetwork, choice: IntermediateChoice) -> ReductionResult:
    """Remove the intermediates, adding one reaction per outside complex pair
    connected through them."""
    if not choice.intermediates:
        B = IntegerMatrix([[] for _ in range(net.n)], 0)
        return ReductionResult(net, B, "yes", tuple(range(net.n)), ())
    inter_species = set(choice.intermediates)
    for i in choice.intermediates:
        appearances = [ci for ci, vec in enumerate(net.complexes) if vec[i] > 0]
        if not appearances or any(sum(net.complexes[ci]) != 1 for ci in appearances):
            raise InvalidChoiceError(f"species {net.species[i]} is not a valid intermediate")
        if i not in choice.input_complex:
            raise InvalidChoiceError(f"species {net.species[i]} has no input complex")

    x_idx = tuple(choice.non_intermediates)
    inter_complexes = {ci for ci, vec in enumerate(net.complexes)
                       if sum(vec) == 1 and vec.index(1) in inter_species}
    out_edges, in_edges = _complex_digraph(net)

    # pairs of outside complexes connected through a nonempty intermediate path
    added: set[tuple[int, int]] = set()
    for start in inter_complexes:
        entry_points = in_edges[start] - inter_complexes
        if entry_points:
            outs = _walk(start, out_edges, inter_complexes)[1]
            added.update((c, c2) for c in entry_points for c2 in outs if c != c2)

    # reduced complexes, interned by their vectors over the kept species
    index: dict[tuple[int, ...], int] = {}

    def intern(ci):
        return index.setdefault(tuple(net.complexes[ci][i] for i in x_idx), len(index))

    kept = [(src, tgt) for src, tgt, _ in net.reactions
            if src not in inter_complexes and tgt not in inter_complexes]
    reactions = [(intern(c), intern(c2)) for c, c2 in kept + sorted(added)]
    reduced = ReactionNetwork(tuple(net.species[i] for i in x_idx), tuple(index),
                              tuple((s, t, f"k{i+1}") for i, (s, t) in enumerate(reactions)))

    b_cols = []
    for i in choice.intermediates:
        vec = net.complexes[choice.input_complex[i]]
        b_cols.append([vec[j] for j in x_idx])
    B = IntegerMatrix([[col[r] for col in b_cols] for r in range(len(x_idx))],
                      len(choice.intermediates))
    surj = _surjectivity_flag(inter_complexes, out_edges, in_edges)
    return ReductionResult(reduced, B, surj, x_idx, tuple(choice.intermediates))


def _surjectivity_flag(inter_complexes, out_edges, in_edges) -> str:
    """'yes' when every intermediate group is an isolated chain
    c <-> Y1 <-> ... <-> Yl -> c', otherwise 'conjectural'."""
    # undirected components among intermediate complexes
    undirected = {c: out_edges[c] | in_edges[c] for c in inter_complexes}
    remaining = set(inter_complexes)
    while remaining:
        group = _walk(min(remaining), undirected, inter_complexes)[0]
        remaining -= group
        if not _group_is_chain(group, inter_complexes, out_edges, in_edges):
            return "conjectural"
    return "yes"


def _group_is_chain(group, inter_complexes, out_edges, in_edges) -> bool:
    """Whether a connected intermediate group is a chain: a walk from its
    head, its one complex with an outside input c, must cover it one new
    neighbour at a time along forward arrows; only the head (back to c) and
    the tail may leave it, and the tail must reach some c' != c."""
    heads = [g for g in group if in_edges[g] - inter_complexes]
    if len(heads) != 1 or len(c_in := in_edges[heads[0]] - inter_complexes) != 1:
        return False
    order = heads
    for _ in range(len(group) - 1):
        g = order[-1]
        step = ((out_edges[g] | in_edges[g]) & group) - set(order[-2:])
        if len(step) != 1 or not step <= out_edges[g]:
            return False
        order += step
    exits = [out_edges[g] - inter_complexes for g in order]
    if any(exits[1:-1]) or len(order) > 1 and exits[0] - c_in:
        return False
    return bool(exits[-1] - c_in)


def lift_invariance(a_tilde: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """[A~ | A~ B]: invariance of the reduced system lifted to the full one."""
    if a_tilde.cols != b.rows:
        raise ValueError(f"shape mismatch: {a_tilde.shape} against {b.shape}")
    b_cols = [b.col(j) for j in range(b.cols)]
    return IntegerMatrix._of([row + tuple(sum(map(mul, row, col)) for col in b_cols)
                              for row in map(a_tilde.row, range(a_tilde.rows))],
                             a_tilde.cols + b.cols)


# ---------------------------------------------------------------------------
# Multistationarity and concentration robustness


@dataclass(frozen=True)
class MultistationarityResult:
    status: str                     # "multistationary" | "monostationary" | "inconclusive"
    reason: str | None = None


def multistationarity_determinant(A: IntegerMatrix, laws: RationalMatrix):
    """det(A diag(be) L^T) for a d x n invariance matrix A of full row rank
    and d conservation laws L, each law scaled to integers.

    By Cauchy-Binet its coefficient of be^T is det(A_T) det(L_T) over the
    d-subsets T of the species.  With B a basis of ker A, Grassmann-Plucker
    duality gives det(B_S) = lam sgn(S, S^c) det(A_{S^c}) for one nonzero
    lam, so these are, up to lam, the coefficients of det[B diag(al); L]:
    the same sign class and the same number of terms from a d x d
    expansion in place of an n x n one.
    """
    lrows = [row for row, _ in laws.integer_rows()]
    # entry (i, k) is sum_j A_ij L_kj be_j
    top = [[{(j,): a * l for j, (a, l) in enumerate(zip(arow, lrow)) if a and l} for lrow in lrows]
           for arow in A.to_lists()]
    return det_stacked(top, [1] * len(top), tuple(f"be{j+1}" for j in range(A.cols)),
                       IntegerMatrix([], len(top)))


def multistationarity_test(sys: VerticalSystem, inv: InvarianceResult,
                           laws: RationalMatrix, toric: bool = False) -> MultistationarityResult:
    """Sign criterion on ``multistationarity_determinant`` of the invariance
    matrix and the conservation laws.

    A sign-definite determinant rules the degeneracy direction out, which
    under toricity means no compatibility class holds two positive steady
    states; a zero or sign-mixed determinant yields multistationarity from
    invariance alone.
    """
    if laws.cols != sys.n:
        raise ValueError(f"{laws.cols} columns of conservation laws against {sys.n} species")
    if laws.rows == 0:
        return MultistationarityResult("inconclusive", reason="no conservation laws")
    # A is in Hermite normal form, or lifted from one: of full row rank
    if inv.A.rows != laws.rows:
        return MultistationarityResult("inconclusive", reason="matrix is not square "
                                       "(only the determinant criterion is implemented)")
    try:
        det = multistationarity_determinant(inv.A, laws)
    except DeterminantSizeError as exc:
        return MultistationarityResult("inconclusive", reason=str(exc))
    if sign_classify(det) in (SignVerdict.MIXED_SIGNS, SignVerdict.ZERO_POLYNOMIAL):
        return MultistationarityResult("multistationary")
    if toric:
        return MultistationarityResult("monostationary")
    return MultistationarityResult("inconclusive", reason="determinant sign-definite; "
                                   "monostationarity needs the toric verdict")


def acr_detect(inv: InvarianceResult, verdict: Verdict | None,
               names=None) -> dict[str, str]:
    """Per-species robustness flags from zero columns of the invariance matrix.

    A zero column pins the coordinate to finitely many values once the zero
    set is a finite union of cosets, and to a single value when it is one
    coset; a nonzero column rules robustness out under invariance.
    """
    n = inv.A.cols
    names = list(names) if names else [f"x{i+1}" for i in range(n)]
    flags = {}
    locally = verdict in (Verdict.LOCALLY_TORIC, Verdict.TORIC)
    for i in range(n):
        col_zero = all(inv.A.entry(r, i) == 0 for r in range(inv.A.rows))
        if not col_zero:
            flags[names[i]] = "no-acr"
        elif verdict == Verdict.TORIC:
            flags[names[i]] = "acr"
        elif locally:
            flags[names[i]] = "local-acr"
        else:
            flags[names[i]] = "unknown"
    return flags


# ---------------------------------------------------------------------------
# Network structure


@dataclass(frozen=True)
class NetworkStructure:
    complex_count: int
    linkage_classes: tuple[frozenset[int], ...]   # complex index sets
    reaction_classes: tuple[frozenset[int], ...]  # reaction index partition
    rank: int
    deficiency: int
    weakly_reversible: bool
    matroid_refines_linkage: bool | None
    deficiency_zero_toric: bool


def network_structure(net: ReactionNetwork) -> NetworkStructure:
    """Linkage classes, deficiency r - s - l, weak reversibility, and the
    zero-deficiency local-toricity certificate.  s is the rank of N, read
    from the row basis N keeps, and the matroid partition from the
    network's kept steady-state system."""
    s = mass_action_matrices(net)[0].row_basis().rows
    out_edges, in_edges = _complex_digraph(net)
    undirected = {c: out_edges[c] | in_edges[c] for c in out_edges}
    # each class is found from its least complex, so they come sorted by it
    classes, seen = [], set()
    for start in undirected:
        if start not in seen:
            classes.append(frozenset(_walk(start, undirected, undirected)[0]))
            seen |= classes[-1]
    classes_t = tuple(classes)
    class_of = {}
    for ci, group in enumerate(classes_t):
        for c in group:
            class_of[c] = ci
    reaction_classes = tuple(
        frozenset(j for j, (src, _, _) in enumerate(net.reactions) if class_of[src] == ci)
        for ci in range(len(classes_t))
    )
    # strongly connected: its least complex reaches all and is reached by all
    weakly = all(_walk(min(g), out_edges, g)[0] == g == _walk(min(g), in_edges, g)[0]
                 for g in classes_t)
    delta = len(net.complexes) - s - len(classes_t)
    refines = None
    if s > 0:
        part = matroid_partition(steady_state_system(net))
        refines = all(any(b <= rc for rc in reaction_classes) for b in part.blocks)
    return NetworkStructure(len(net.complexes), classes_t, reaction_classes, s, delta,
                            weakly, refines, delta == 0 and weakly)


# ---------------------------------------------------------------------------
# Siphons


# subset tests of one siphon search: about a second of CPython 3.11 on a Xeon core
_SIPHON_BUDGET = 10_000_000


class _BudgetUnknown(str):
    """The "unknown" of a siphon search stopped by its budget."""


def minimal_siphons(net: ReactionNetwork) -> list[frozenset[int]]:
    """Minimal species sets whose production always consumes a member.

    Closure branching (Cordone, Ferrarini & Piroddi 2005): from each seed
    species i, while some reaction produces a member of the set without
    consuming one, branch on adding each of its reactant species with index
    at least i; a set with no such reaction is a siphon.  Sets that contain
    a siphon already found are pruned, and the minimal siphons are returned
    by size, then by sorted indices.  There is no limit on the number of
    species.  Each branch node is charged one plus a subset test per
    reaction and per siphon found so far, so the charge tracks the time
    even when the siphons are many; past ``_SIPHON_BUDGET`` the search
    raises ``SearchBudgetExceededError``.  The species mask of each complex
    is built once, and each reaction that produces something reads the
    masks of its source and target.
    """
    n = net.n
    complex_masks = [sum(1 << i for i, c in enumerate(cx) if c > 0) for cx in net.complexes]
    masks = [(complex_masks[src], complex_masks[tgt]) for src, tgt, _ in net.reactions
             if complex_masks[tgt]]
    found: list[int] = []
    seen: set[int] = set()
    tests = 0
    for seed in range(n):
        allowed = ~((1 << seed) - 1)
        stack = [1 << seed]
        while stack:
            z = stack.pop()
            if z in seen:
                continue
            seen.add(z)
            tests += 1 + len(masks) + len(found)
            if tests > _SIPHON_BUDGET:
                raise SearchBudgetExceededError("siphon search exceeded its budget")
            if any(f & z == f for f in found):
                continue
            # branch on the violated reaction with the fewest choices; none: no siphon extends z
            branch = None
            for src, tgt in masks:
                if tgt & z and not src & z:
                    choices = src & allowed
                    if branch is None or choices.bit_count() < branch.bit_count():
                        branch = choices
                        if not choices:
                            break
            if branch is None:
                found.append(z)
            while branch:
                low = branch & -branch
                stack.append(z | low)
                branch ^= low
    found.sort(key=lambda z: (z.bit_count(), [i for i in range(n) if z >> i & 1]))
    minimal: list[int] = []
    for z in found:
        if not any(f & z == f for f in minimal):
            minimal.append(z)
    return [frozenset(i for i in range(n) if z >> i & 1) for z in minimal]


def _siphon_supported_in_rowspace(mat: RationalMatrix | IntegerMatrix,
                                  siphon: frozenset[int]) -> bool:
    """Is there a nonzero v >= 0 in the row space with support inside the siphon?

    With the columns ordered [outside | siphon], the integer echelon rows
    pivoting in the siphon block, each times its pivot (a positive multiple
    of its RREF row), span the row-space vectors vanishing outside it.  With
    no such row there is no v; with one, v is a positive multiple of it.
    Two or more rows S take one strictly-positive-kernel LP (Stiemke):
    some y S >= 0 is nonzero exactly when no x > 0 has S x = 0.
    """
    inside = sorted(siphon)
    first = mat.cols - len(inside)
    order = [i for i in range(mat.cols) if i not in siphon] + inside
    rows, pivots = _integer_rref([[r[i] for i in order] for r, _ in mat.integer_rows()], mat.cols)
    span = [tuple(x * row[p] for x in row[first:]) for row, p in zip(rows, pivots) if p >= first]
    if len(span) <= 1:
        return bool(span) and min(span[0]) >= 0
    return strictly_positive_kernel(IntegerMatrix._of(span, len(inside))).is_empty


def _one_signed_supports(mat: RationalMatrix | IntegerMatrix) -> list[frozenset[int]]:
    """Supports of the kept integer rows of mat that are nonzero and
    nonnegative or nonpositive: each is the support of a nonzero v >= 0 in
    the row space."""
    return [frozenset(j for j, x in enumerate(row) if x) for row, _ in mat.integer_rows()
            if any(row) and (min(row) >= 0 or max(row) <= 0)]


def _supported(mat: RationalMatrix | IntegerMatrix, supports: list[frozenset[int]],
               siphon: frozenset[int]) -> bool:
    """``_siphon_supported_in_rowspace``, settled without elimination when a
    one-signed row of mat (``supports``) lies inside the siphon."""
    return any(s <= siphon for s in supports) or _siphon_supported_in_rowspace(mat, siphon)


def siphon_boundary_check(net: ReactionNetwork, A: IntegerMatrix | None = None,
                          laws: RationalMatrix | None = None) -> str:
    """'yes' when every minimal siphon supports a nonnegative slice invariant.

    A nonnegative vector of the slice row space supported inside a siphon
    contradicts a boundary zero on any positively-offset slice, so 'yes'
    rules boundary zeros out; anything else is 'unknown'.  The slice row
    space is that of A, or of the conservation laws of the network
    (``laws``) when A is absent or empty.  Two exact certificates come
    before any search:

    1. A one-signed kept row of the tested matrix whose support lies inside
       a siphon supports it, with no elimination.
    2. When A is tested, the support S of a one-signed conservation law l
       is a siphon: l N = 0 gives l y' = l y on each reaction y -> y', so a
       reaction producing a member of S consumes one.  If A's row space
       does not support S it supports none of the minimal siphons inside S,
       and the answer is 'unknown' with no search.

    Otherwise the minimal siphons come from closure branching
    (``minimal_siphons``), and each not settled by certificate 1 is checked
    by an exact rank test on the row space, with one
    strictly-positive-kernel LP (Stiemke) only where the vectors vanishing
    outside the siphon span two or more dimensions.  When the siphon search
    runs out of budget the 'unknown' is a ``_BudgetUnknown``, which
    ``analyze_network`` reports in a note.
    """
    mat = A if A is not None and A.rows else laws
    if mat is None or mat.rows == 0:
        return "unknown"
    supports = _one_signed_supports(mat)
    # the smallest law supports first: the fewest vectors vanish outside them
    if mat is A and laws is not None and not all(
            _supported(A, supports, law) for law in sorted(_one_signed_supports(laws), key=len)):
        return "unknown"
    try:
        siphons = minimal_siphons(net)
    except SearchBudgetExceededError:
        return _BudgetUnknown("unknown")
    return "yes" if all(_supported(mat, supports, z) for z in siphons) else "unknown"


# ---------------------------------------------------------------------------
# Whole-network orchestration


@dataclass
class NetworkAnalysis:
    network: ReactionNetwork
    system: VerticalSystem
    laws: RationalMatrix
    structure: NetworkStructure
    boundary: str
    direct_A: IntegerMatrix
    report: ToricityReport
    verdict_source: str                       # "direct" | "reduced"
    reduction: ReductionResult | None = None
    reduced_report: ToricityReport | None = None
    lifted_A: IntegerMatrix | None = None     # in original species order
    acr: dict[str, str] | None = None
    multistationarity: MultistationarityResult | None = None

    @property
    def verdict(self) -> Verdict:
        return self.report.verdict


# comb(n, s) limit on the direct system's injectivity determinant when the
# reduced network has settled the verdict and the report alone reads it
_INJECTIVITY_ENRICHMENT_CAP = 20000
# comb(n, s) limit on the direct system's ray sweep for its all-positive
# field, which runs only where its injectivity is not toric
ALL_POSITIVE_ENRICHMENT_CAP = 40


def _direct_injectivity(sys_: VerticalSystem, inv: InvarianceResult) -> InjectivityResult:
    """The full system's injectivity, which the reduced path records in its
    report but needs for no verdict."""
    if sys_.s > DET_SIZE_LIMIT or comb(sys_.n, sys_.s) > _INJECTIVITY_ENRICHMENT_CAP:
        return InjectivityResult(False, reason="determinant too large")
    return injectivity_test(sys_, inv)


def _direct_all_positive(sys_: VerticalSystem, report: ToricityReport) -> str:
    """The full system's all-positive nondegeneracy, a report-only field
    like its injectivity.  The report's direct injectivity is read first:
    a toric one certifies the field, as in ``analyze``, with no ray sweep."""
    if report.injectivity.toric:
        return "yes-for-all-positive"
    if comb(sys_.n, sys_.s) <= ALL_POSITIVE_ENRICHMENT_CAP \
            and nondegeneracy_all_positive(sys_).status == "yes":
        return "yes-for-all-positive"
    return "unknown"


_TRANSFERABLE = (Verdict.TORIC, Verdict.GENERICALLY_TORIC, Verdict.LOCALLY_TORIC,
                 Verdict.GENERICALLY_LOCALLY_TORIC)


def _reduced_system(net: ReactionNetwork) -> tuple[ReductionResult, VerticalSystem] | None:
    """The network with its single-input intermediates removed, and the
    steady-state system of that network; None when there are no
    intermediates or removing them strips all dynamics."""
    choice = find_intermediates(net)
    if not len(choice):
        return None
    reduction = reduce_network(net, choice)
    try:
        return reduction, steady_state_system(reduction.network)
    except ZeroDynamicsError:
        return None


def analyze_network(net: ReactionNetwork, mode: GroupMode = GroupMode.POSITIVE,
                    seed: int = 0, reduce: bool = True) -> NetworkAnalysis:
    """Steady-state toricity analysis of a mass-action network.

    The reduced network (single-input intermediates removed) is analyzed
    first when reduction is enabled; a positive verdict transfers to the
    full network with the lifted invariance matrix; the full system's
    injectivity and all-positive nondegeneracy, which that verdict does not
    need, are then each computed when its report field is first read.
    Otherwise the full system is analyzed directly.  Robustness and
    multistationarity are evaluated against the final verdict.
    """
    sys_ = steady_state_system(net)
    laws = conservation_laws(mass_action_matrices(net)[0])
    structure = network_structure(net)
    try:
        direct_inv = invariance_group(sys_, mode)
    except EmptyLocusError:
        direct_inv = None
    direct_A = direct_inv.A if direct_inv else IntegerMatrix([], sys_.n)
    boundaries = [siphon_boundary_check(net, direct_A, laws)]

    reduction = reduced_report = lifted = None
    reduced = _reduced_system(net) if reduce and mode is GroupMode.POSITIVE else None
    if reduced is not None:
        reduction, red_sys = reduced
        boundaries.append(siphon_boundary_check(
            reduction.network, None, conservation_laws(mass_action_matrices(reduction.network)[0])))
        reduced_report = analyze(red_sys, mode, seed, AnalyzeOptions(boundary=boundaries[1]))
        if reduced_report.invariance is not None:
            perm = reduction.x_indices + reduction.y_indices
            inverse = sorted(range(net.n), key=perm.__getitem__)  # column of each species
            full = lift_invariance(reduced_report.invariance.A, reduction.B)
            lifted = IntegerMatrix._of([tuple(row[k] for k in inverse)
                                        for row in map(full.row, range(full.rows))], net.n)

    if reduced_report is not None and reduced_report.verdict in _TRANSFERABLE:
        verdict_source = "reduced"
        # record direct-system facts without redoing the whole pipeline
        report = ToricityReport(mode=mode, seed=seed, n=sys_.n, m=sys_.m, s=sys_.s,
                                verdict=reduced_report.verdict, invariance=direct_inv,
                                d=direct_inv.d if direct_inv else None,
                                notes=["verdict obtained on the reduced network and lifted"])
        if direct_inv is not None and direct_inv.d == sys_.n - sys_.s:
            report.defer(injectivity=partial(_direct_injectivity, sys_, direct_inv),
                         nondegenerate=partial(_direct_all_positive, sys_, report))
    else:
        verdict_source = "direct"
        report = analyze(sys_, mode, seed, AnalyzeOptions(boundary=boundaries[0]))
    if any(isinstance(b, _BudgetUnknown) for b in boundaries):
        report.notes.append("boundary zeros not excluded: the siphon search reached its budget")

    acr_basis = direct_inv
    if acr_basis is None and lifted is not None:
        acr_basis = InvarianceResult(lifted, lifted.rows, mode)
    acr = multistationarity = None
    if acr_basis is not None:
        acr = acr_detect(acr_basis, report.verdict, net.species)
        multistationarity = multistationarity_test(sys_, acr_basis, laws,
                                                   toric=report.verdict == Verdict.TORIC)
    # direct_inv.A is in Hermite normal form already
    if direct_inv and lifted is not None and hermite_normal_form(lifted) != direct_inv.A:
        report.notes.append("lifted invariance lattice disagrees with the direct one")
    return NetworkAnalysis(net, sys_, laws, structure, boundaries[0], direct_A, report,
                           verdict_source, reduction, reduced_report, lifted, acr,
                           multistationarity)
