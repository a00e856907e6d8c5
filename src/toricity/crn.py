"""Reaction-network frontend.

Parsing of reaction network text, stoichiometric and kinetic matrices under
mass-action kinetics, conservation laws, removal of single-input
intermediates, multistationarity and concentration-robustness tests, and
linkage-class / deficiency structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb

from .exactalg import (
    IntegerMatrix,
    RationalMatrix,
    _integer_rref,
    hermite_normal_form,
    left_kernel_basis,
)
from .polyhedra import strictly_positive_kernel
from .polyring import (
    DeterminantSizeError,
    SignVerdict,
    det_stacked,
    sign_classify,
)
from .core import (
    ALL_POSITIVE_ENRICHMENT_CAP,
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
        return (IntegerMatrix.with_width([[t[i] - s[i] for s, t in zip(sources, targets)]
                                          for i in range(self.n)], width),
                IntegerMatrix.with_width([[s[i] for s in sources] for i in range(self.n)], width))

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
                    r"|(?P<rev><=>)|(?P<fwd>->)|(?P<plus>\+)|(?P<colon>:))")


def _tokenize(stmt: str, line_no: int, offset: int):
    tokens = []
    pos = 0
    while pos < len(stmt):
        m = _TOKEN.match(stmt, pos)
        if m is None:
            if stmt[pos:].strip() == "":
                break
            col = offset + pos + 1
            raise NetworkParseError(f"unexpected character {stmt[pos:].strip()[0]!r}",
                                    line_no, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), offset + m.start(kind) + 1))
        pos = m.end()
    return tokens


def parse_network(text: str) -> ReactionNetwork:
    """Parse the one-statement-per-line / ';'-separated reaction grammar.

    A statement is a chain ``complex (->|<=>) complex [...]``; a complex is
    ``0`` or terms ``[coefficient] name`` joined by '+'.  '#' starts a
    comment.  Species are ordered by first appearance unless an initial
    ``species: A B C`` header fixes the order.  Reversible arrows expand to
    two reactions, forward first, with labels k1, k2, ... in parse order.
    """
    species: list[str] = []
    species_index: dict[str, int] = {}
    fixed_order = False
    complexes: list[dict[str, int]] = []
    complex_index: dict[tuple, int] = {}
    raw_reactions: list[tuple[int, int]] = []

    def intern_species(name, line_no, col):
        if name not in species_index:
            if fixed_order:
                raise NetworkParseError(f"species {name!r} not in the species header",
                                        line_no, col)
            species_index[name] = len(species)
            species.append(name)
        return species_index[name]

    def intern_complex(content: dict[str, int]):
        key = tuple(sorted(content.items()))
        if key not in complex_index:
            complex_index[key] = len(complexes)
            complexes.append(content)
        return complex_index[key]

    statements = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        col = 0
        for chunk in body.split(";"):
            if chunk.strip():
                statements.append((chunk, line_no, col))
            col += len(chunk) + 1

    first = True
    for stmt, line_no, offset in statements:
        tokens = _tokenize(stmt, line_no, offset)
        if not tokens:
            continue
        if first and len(tokens) >= 2 and tokens[0][0] == "name" \
                and tokens[0][1] == "species" and tokens[1][0] == "colon":
            for kind, value, col in tokens[2:]:
                if kind != "name":
                    raise NetworkParseError("species header takes names only", line_no, col)
                if value in species_index:
                    raise NetworkParseError(f"duplicate species {value!r}", line_no, col)
                species_index[value] = len(species)
                species.append(value)
            fixed_order = True
            first = False
            continue
        first = False

        # parse: complex (arrow complex)+
        idx = 0

        def parse_complex():
            nonlocal idx
            content: dict[str, int] = {}
            if idx < len(tokens) and tokens[idx][0] == "int" and tokens[idx][1] == "0" \
                    and (idx + 1 >= len(tokens) or tokens[idx + 1][0] in ("fwd", "rev")):
                idx += 1
                return content
            while True:
                coeff = 1
                if idx < len(tokens) and tokens[idx][0] == "int":
                    coeff = int(tokens[idx][1])
                    if coeff == 0:
                        raise NetworkParseError("zero coefficient", line_no, tokens[idx][2])
                    idx += 1
                if idx >= len(tokens) or tokens[idx][0] != "name":
                    where = tokens[idx][2] if idx < len(tokens) else offset + len(stmt)
                    raise NetworkParseError("expected a species name", line_no, where)
                name = tokens[idx][1]
                intern_species(name, line_no, tokens[idx][2])
                content[name] = content.get(name, 0) + coeff
                idx += 1
                if idx < len(tokens) and tokens[idx][0] == "plus":
                    idx += 1
                    continue
                return content

        left = intern_complex(parse_complex())
        arrows = 0
        while idx < len(tokens):
            kind, _, col = tokens[idx]
            if kind not in ("fwd", "rev"):
                raise NetworkParseError("expected '->' or '<=>'", line_no, col)
            idx += 1
            right = intern_complex(parse_complex())
            if right == left:
                raise NetworkParseError("reaction endpoints must differ", line_no, col)
            raw_reactions.append((left, right))
            if kind == "rev":
                raw_reactions.append((right, left))
            left = right
            arrows += 1
        if arrows == 0:
            raise NetworkParseError("statement has no reaction arrow", line_no,
                                    tokens[0][2])

    if not raw_reactions:
        raise NetworkParseError("no reactions found", 1, 1)
    vecs = tuple(tuple(c.get(name, 0) for name in species) for c in complexes)
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
        B = IntegerMatrix.with_width([[] for _ in range(net.n)], 0)
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
    B = IntegerMatrix.with_width([[col[r] for col in b_cols] for r in range(len(x_idx))],
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
    # interior adjacency must be a path
    adj = {g: ((out_edges[g] | in_edges[g]) & group) for g in group}
    ends = [g for g in group if len(adj[g]) <= 1]
    if len(group) == 1:
        order = list(group)
    else:
        if len(ends) != 2 or any(len(adj[g]) > 2 for g in group):
            return False
        order = [min(ends)]
        prev = None
        while len(order) < len(group):
            nxt = [g for g in adj[order[-1]] if g != prev]
            if len(nxt) != 1:
                return False
            prev = order[-1]
            order.append(nxt[0])
    # orient so the head receives the outside input
    heads = [g for g in order if any(c not in inter_complexes for c in in_edges[g])]
    if len(heads) != 1:
        return False
    if heads[0] == order[-1]:
        order.reverse()
    if heads[0] != order[0]:
        return False
    head, tail = order[0], order[-1]
    outside_in = [c for c in in_edges[head] if c not in inter_complexes]
    if len(outside_in) != 1:
        return False
    c_in = outside_in[0]
    # forward arrows along the chain must exist
    for a, b in zip(order, order[1:]):
        if b not in out_edges[a]:
            return False
    # outside out-edges: only from the head back to the input, or from the tail
    for g in order:
        for tgt in out_edges[g]:
            if tgt in inter_complexes:
                continue
            if g == tail:
                continue
            if g == head and tgt == c_in:
                continue
            return False
    tail_outs = [t for t in out_edges[tail] if t not in inter_complexes and t != c_in]
    return len(tail_outs) >= 1


def lift_invariance(a_tilde: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """[A~ | A~ B]: invariance of the reduced system lifted to the full one."""
    if a_tilde.cols != b.rows:
        raise ValueError(f"shape mismatch: {a_tilde.shape} against {b.shape}")
    prod = [[sum(a_tilde.entry(i, k) * b.entry(k, j) for k in range(b.rows))
             for j in range(b.cols)] for i in range(a_tilde.rows)]
    return IntegerMatrix.with_width(
        [list(a_tilde.row(i)) + prod[i] for i in range(a_tilde.rows)],
        a_tilde.cols + b.cols,
    )


# ---------------------------------------------------------------------------
# Multistationarity and concentration robustness


@dataclass(frozen=True)
class MultistationarityResult:
    status: str                     # "multistationary" | "monostationary" | "inconclusive"
    sign: SignVerdict | None = None
    reason: str | None = None


def multistationarity_test(sys: VerticalSystem, inv: InvarianceResult,
                           laws: RationalMatrix, toric: bool = False) -> MultistationarityResult:
    """Square-determinant criterion on [B^T diag(al); L] with B a kernel
    basis of the invariance matrix.

    A sign-definite determinant rules the degeneracy direction out, which
    under toricity means no compatibility class holds two positive steady
    states; a zero or sign-mixed determinant yields multistationarity from
    invariance alone.
    """
    n = sys.n
    if laws.rows == 0:
        return MultistationarityResult("inconclusive", reason="no conservation laws")
    kernel_rows = sys.lattice_kernel(inv.A)
    if kernel_rows.rows + laws.rows != n:
        return MultistationarityResult(
            "inconclusive",
            reason="matrix is not square (only the determinant criterion is implemented)")
    al = tuple(f"al{k+1}" for k in range(n))
    top = [[{(k,): v} if v else {} for k, v in enumerate(row)] for row in kernel_rows.to_lists()]
    try:
        det = det_stacked(top, [1] * len(top), al, laws)
    except DeterminantSizeError as exc:
        return MultistationarityResult("inconclusive", reason=str(exc))
    sign = sign_classify(det)
    if sign in (SignVerdict.MIXED_SIGNS, SignVerdict.ZERO_POLYNOMIAL):
        return MultistationarityResult("multistationary", sign)
    if toric:
        return MultistationarityResult("monostationary", sign)
    return MultistationarityResult(
        "inconclusive", sign,
        reason="determinant sign-definite; monostationarity needs the toric verdict")


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
    raises ``SearchBudgetExceededError``.
    """
    n = net.n
    masks = []
    for src, tgt, _ in net.reactions:
        tgt_mask = sum(1 << i for i, c in enumerate(net.complexes[tgt]) if c > 0)
        if tgt_mask:
            masks.append((sum(1 << i for i, c in enumerate(net.complexes[src]) if c > 0),
                          tgt_mask))
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
    span = [[x * row[p] for x in row[first:]] for row, p in zip(rows, pivots) if p >= first]
    if len(span) <= 1:
        return bool(span) and min(span[0]) >= 0
    return strictly_positive_kernel(IntegerMatrix.with_width(span, len(inside))).is_empty


def siphon_boundary_check(net: ReactionNetwork, A: IntegerMatrix | None = None,
                          laws: RationalMatrix | None = None) -> str:
    """'yes' when every minimal siphon supports a nonnegative slice invariant.

    A nonnegative vector of the slice row space supported inside a siphon
    contradicts a boundary zero on any positively-offset slice, so 'yes'
    rules boundary zeros out; anything else is 'unknown'.  The slice row
    space is that of A, or of the conservation laws when A is absent or
    empty.  The minimal siphons come from closure branching
    (``minimal_siphons``), and each is checked by an exact rank test on
    that row space, with one strictly-positive-kernel LP (Stiemke) only
    where the vectors vanishing outside the siphon span two or more
    dimensions.  When the siphon search runs out of
    budget the 'unknown' is a ``_BudgetUnknown``, which ``analyze_network``
    reports in a note.
    """
    mat = A if A is not None and A.rows else laws
    if mat is None or mat.rows == 0:
        return "unknown"
    try:
        siphons = minimal_siphons(net)
    except SearchBudgetExceededError:
        return _BudgetUnknown("unknown")
    for z in siphons:
        if not _siphon_supported_in_rowspace(mat, z):
            return "unknown"
    return "yes"


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


def _direct_facts(sys_: VerticalSystem, inv: InvarianceResult):
    """Injectivity and all-positive nondegeneracy of the full system, which
    the reduced path records in its report but needs for no verdict."""
    if sys_.s > 12 or comb(sys_.n, sys_.s) > _INJECTIVITY_ENRICHMENT_CAP:
        injectivity = InjectivityResult(False, reason="determinant too large")
    else:
        try:
            injectivity = injectivity_test(sys_, inv)
        except ValueError:
            injectivity = None
    nondegenerate = "unknown"
    if comb(sys_.n, sys_.s) <= ALL_POSITIVE_ENRICHMENT_CAP:
        if nondegeneracy_all_positive(sys_).status == "yes":
            nondegenerate = "yes-for-all-positive"
    return injectivity, nondegenerate


_TRANSFERABLE = (Verdict.TORIC, Verdict.GENERICALLY_TORIC, Verdict.LOCALLY_TORIC,
                 Verdict.GENERICALLY_LOCALLY_TORIC)


def analyze_network(net: ReactionNetwork, mode: GroupMode = GroupMode.POSITIVE,
                    seed: int = 0, reduce: bool = True) -> NetworkAnalysis:
    """Steady-state toricity analysis of a mass-action network.

    The reduced network (single-input intermediates removed) is analyzed
    first when reduction is enabled; a positive verdict transfers to the
    full network with the lifted invariance matrix; the full system's
    injectivity and all-positive nondegeneracy, which that verdict does not
    need, are then computed when the report's fields are first read.
    Otherwise the full system is analyzed directly.  Robustness and
    multistationarity are evaluated against the final verdict.
    """
    sys_ = steady_state_system(net)
    N, _ = mass_action_matrices(net)
    laws = conservation_laws(N)
    structure = network_structure(net)

    direct_inv = None
    try:
        direct_inv = invariance_group(sys_, mode)
    except EmptyLocusError:
        pass
    boundary = siphon_boundary_check(net, direct_inv.A if direct_inv else None, laws)

    reduction = None
    red_boundary = None
    reduced_report = None
    lifted = None
    verdict_source = "direct"
    report = None

    if reduce and mode is GroupMode.POSITIVE:
        choice = find_intermediates(net)
        if len(choice):
            reduction = reduce_network(net, choice)
            try:
                red_sys = steady_state_system(reduction.network)
            except ZeroDynamicsError:
                # reduction stripped all dynamics; analyze the full network
                reduction = None
                red_sys = None
        if reduction is not None:
            red_n, _ = mass_action_matrices(reduction.network)
            red_boundary = siphon_boundary_check(reduction.network, None,
                                                 conservation_laws(red_n))
            reduced_report = analyze(red_sys, mode, seed, AnalyzeOptions(boundary=red_boundary))
            if reduced_report.invariance is not None:
                lifted_xy = lift_invariance(reduced_report.invariance.A, reduction.B)
                perm = list(reduction.x_indices) + list(reduction.y_indices)
                inverse = [perm.index(i) for i in range(net.n)]
                lifted = IntegerMatrix.with_width(
                    [[lifted_xy.entry(r, inverse[i]) for i in range(net.n)]
                     for r in range(lifted_xy.rows)], net.n)
            if reduced_report.verdict in _TRANSFERABLE:
                verdict_source = "reduced"

    if verdict_source == "reduced":
        # record direct-system facts without redoing the whole pipeline
        report = ToricityReport(mode=mode, seed=seed, n=sys_.n, m=sys_.m, s=sys_.s)
        report.verdict = reduced_report.verdict
        report.partition = None
        if direct_inv is not None:
            report.invariance = direct_inv
            report.d = direct_inv.d
            if direct_inv.d == sys_.n - sys_.s:
                report.defer(partial(_direct_facts, sys_, direct_inv))
        report.notes.append("verdict obtained on the reduced network and lifted")
    else:
        report = analyze(sys_, mode, seed, AnalyzeOptions(boundary=boundary))
    if any(isinstance(b, _BudgetUnknown) for b in (boundary, red_boundary)):
        report.notes.append("boundary zeros not excluded: the siphon search reached its budget")

    analysis = NetworkAnalysis(net, sys_, laws, structure, boundary,
                               direct_inv.A if direct_inv else IntegerMatrix.with_width([], sys_.n),
                               report, verdict_source, reduction, reduced_report, lifted)
    final_verdict = analysis.verdict

    acr_basis = direct_inv
    if acr_basis is None and lifted is not None:
        acr_basis = InvarianceResult(lifted, lifted.rows, mode)
    if acr_basis is not None:
        analysis.acr = acr_detect(acr_basis, final_verdict, net.species)
        analysis.multistationarity = multistationarity_test(
            sys_, acr_basis, laws, toric=final_verdict == Verdict.TORIC)
    if lifted is not None and direct_inv is not None:
        # direct_inv.A is in Hermite normal form already
        if hermite_normal_form(lifted) != direct_inv.A:
            report.notes.append("lifted invariance lattice disagrees with the direct one")
    return analysis
