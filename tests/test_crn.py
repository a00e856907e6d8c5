import copy
import dataclasses
import pickle
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricity import cli, core, crn, exactalg
from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity.polyhedra import strictly_positive_kernel
from toricity.polyring import SignVerdict, sign_classify, term_count
from toricity.core import (
    EmptyLocusError,
    GroupMode,
    ToricityReport,
    Verdict,
    injectivity_test,
    invariance_group,
    nondegeneracy_all_positive,
)
from toricity.crn import (
    ALL_POSITIVE_ENRICHMENT_CAP,
    NetworkParseError,
    ReactionNetwork,
    SearchBudgetExceededError,
    ZeroDynamicsError,
    acr_detect,
    analyze_network,
    conservation_laws,
    find_intermediates,
    lift_invariance,
    mass_action_matrices,
    minimal_siphons,
    multistationarity_test,
    network_structure,
    parse_network,
    reduce_network,
    siphon_boundary_check,
    steady_state_system,
)

from _oracles import (
    mul_vector,
    oracle_closure,
    oracle_is_siphon,
    oracle_minimal_siphons,
    oracle_multistationarity_det,
    oracle_parse_network,
    oracle_siphon_boundary_check,
    oracle_siphon_supported,
    oracle_siphon_supported_lp,
    oracle_walk,
    same_row_lattice,
    to_rational,
)
from test_bench_contract import _load_bench
from test_families import cascade, multisite

MODELS = Path(crn.__file__).parent / "data" / "models"

IDH_TEXT = "X1 + X2 <=> X3 -> X1 + X4 ; X3 + X4 <=> X5 -> X2 + X3"

TRIANGLE_TEXT = """
3X1 + 2X2 -> 6X1
3X1 + 2X2 -> 4X2
4X2 -> 3X1 + 2X2
6X1 -> 4X2
"""

SQUARE_TEXT = "9X1 -> 3X1 + 4X2 -> 6X2 -> 6X1 + 2X2 -> 9X1"

# reciprocal-regulation motif: a modification cycle X1 <-> X4 driven by the
# enzymes X2 and X5, with X2 assembled from X7 + X8 and X5 sequestered by X8
STRAUBE_TEXT = """
X1 + X2 <=> X3 -> X2 + X4
X4 + X5 <=> X6 -> X1 + X5
X7 + X8 <=> X2
X5 + X8 <=> X9
"""

SHINAR_FEINBERG_TEXT = """
X1 <=> X2 <=> X3 -> X4
X4 + X5 <=> X6 -> X2 + X7
X3 + X7 <=> X8 -> X3 + X5
X1 + X7 <=> X9 -> X1 + X5
"""

IDH_A = IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]])


# -- parsing ------------------------------------------------------------------


def test_parse_idh():
    net = parse_network(IDH_TEXT)
    assert net.species == ("X1", "X2", "X3", "X4", "X5")
    assert net.num_reactions == 6
    # reversible pairs consecutive, forward first
    assert net.reactions[0][:2] == (0, 1)
    assert net.reactions[1][:2] == (1, 0)
    assert [lbl for _, _, lbl in net.reactions] == [f"k{i}" for i in range(1, 7)]


def test_parse_simple():
    net = parse_network("A -> B")
    assert net.species == ("A", "B")
    assert net.num_reactions == 1


def test_parse_outflow():
    net = parse_network("2A -> 0")
    assert net.species == ("A",)
    assert net.complexes[net.reactions[0][1]] == (0,)


def test_parse_species_header():
    net = parse_network("species: B A\nA -> B")
    assert net.species == ("B", "A")


def test_parse_comment_and_errors():
    net = parse_network("A -> B  # a comment\n# full comment line\nB -> A")
    assert net.num_reactions == 2
    with pytest.raises(NetworkParseError) as err:
        parse_network("A -> ->")
    assert "line 1" in str(err.value)
    with pytest.raises(NetworkParseError):
        parse_network("A -> A")
    with pytest.raises(NetworkParseError):
        parse_network("A + ? -> B")
    with pytest.raises(NetworkParseError):
        parse_network("A")


# Pieces of the grammar, and of what lies just outside it: Unicode digits,
# stray arrow halves, every kind of line break and space, and characters no
# token takes.
_PIECES = ("A", "B", "X1", "_y", "S0", "species", "species:", "species :", "0", "00", "2", "10",
           "\u0663", "\u0660", "\uff12", "->", "<=>", "<", "-", ">", "<=", "+", ":", ";", "#",
           " ", "\t", "\n", "\r\n", "\u2028", "\u00a0", "\x1c", "\x0b", "?", "\u00e9", "=")
_NAMES = ("A", "B", "C", "X1", "_y", "S0", "species")


@st.composite
def _grammar_texts(draw):
    """Statements built from complexes, arrows and separators, after a
    species header now and then; each choice sometimes leaves the grammar."""
    ws = st.sampled_from(("", " ", "  ", "\t", "\u00a0"))
    statements = []
    if draw(st.integers(0, 3)) == 0:
        entries = draw(st.permutations(_NAMES))[draw(st.integers(0, 1)):]
        if draw(st.integers(0, 3)) == 0:
            entries.insert(draw(st.integers(0, len(entries))),
                           draw(st.sampled_from(("A", "1", "+", "->", "\u0663"))))
        statements.append(draw(st.sampled_from(("species:",) * 4 + ("species :", "species")))
                          + " ".join(entries))
    for _ in range(draw(st.integers(1, 4))):
        parts = []
        for k in range(draw(st.sampled_from((1,) + (2,) * 6 + (3,) * 4 + (4,) * 2))):
            if k:
                parts.append(draw(st.sampled_from(("->", "<=>") * 20 + ("-", "<", ">", "+", ":"))))
            if draw(st.integers(0, 2)) == 0:  # repeats make reactions with equal ends
                repeats = ("0", "A", "B", "2A", "A + B") * 4 + ("00", "\u0660A")
                parts.append(draw(st.sampled_from(repeats)))
                continue
            coefficients = ("",) * 20 + ("2", "3 ", "10", "1", "\u0663") * 2 + ("0",)
            terms = [draw(st.sampled_from(coefficients)) + draw(st.sampled_from(_NAMES))
                     for _ in range(draw(st.integers(1, 3)))]
            parts.append((draw(ws) + "+" + draw(ws)).join(terms))
        statements.append("".join(draw(ws) + part + draw(ws) for part in parts))
    separators = st.sampled_from((";", "\n", "\r\n", " # note\n", "\u2028", "\x1c", "\x0b"))
    return statements[0] + "".join(draw(separators) + s for s in statements[1:])


@st.composite
def _mutations(draw, texts):
    """A text of ``texts`` with a few pieces inserted, characters deleted or
    characters replaced by pieces."""
    chars = list(draw(texts))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        piece = draw(st.sampled_from(_PIECES))
        action = draw(st.sampled_from(("insert", "delete", "replace")))
        if action == "insert" or at == len(chars):
            chars.insert(at, piece)
        elif action == "delete":
            del chars[at]
        else:
            chars[at] = piece
    return "".join(chars)


_NETWORK_TEXTS = st.sampled_from(
    [p.read_text(encoding="utf-8") for p in sorted(MODELS.glob("*.crn"))]
    + [multisite(k) for k in range(1, 4)] + [cascade(k) for k in range(1, 3)])


def _parse_outcome(parse, text):
    try:
        net = parse(text)
    except NetworkParseError as exc:
        return str(exc), exc.line, exc.column
    return net.species, net.complexes, net.reactions


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(
    st.builds("".join, st.lists(st.sampled_from(_PIECES), max_size=16)),
    st.builds(" ".join, st.lists(st.sampled_from(_PIECES), max_size=16)),
    _grammar_texts(),
    _mutations(_grammar_texts()),
    _mutations(_NETWORK_TEXTS)))
def test_parse_network_agrees_with_previous_parser(text):
    """The one-pass parser gives the old parser's species, complexes and
    reactions, or its error with the same message, line and column."""
    assert _parse_outcome(parse_network, text) == _parse_outcome(oracle_parse_network, text)


# -- matrices -----------------------------------------------------------------


def test_mass_action_matrices_simple():
    net = parse_network("A -> B")
    N, M = mass_action_matrices(net)
    assert N.to_lists() == [[-1], [1]]
    assert M.to_lists() == [[1], [0]]


def test_mass_action_matrices_idh():
    net = parse_network(IDH_TEXT)
    N, M = mass_action_matrices(net)
    assert M == IntegerMatrix([
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
    ])
    # the steady-state coefficient rows span the same space as the reference C
    ref = RationalMatrix([
        [-1, 1, 1, 0, 0, 0],
        [-1, 1, 0, 0, 0, 1],
        [0, 0, 0, 1, -1, -1],
    ])
    sys_ = steady_state_system(net)
    assert sys_.s == 3
    stacked = RationalMatrix(ref.to_lists() + sys_.C.to_lists())
    assert stacked.rank() == 3


def test_mass_action_matrices_triangle():
    net = parse_network(TRIANGLE_TEXT)
    _, M = mass_action_matrices(net)
    assert [tuple(M.col(j)) for j in range(4)] == [(3, 2), (3, 2), (0, 4), (6, 0)]


def test_steady_state_zero_dynamics():
    net = parse_network("A -> B; B -> A")
    sys_ = steady_state_system(net)  # rank 1, fine
    assert sys_.s == 1
    # a network whose net change cancels out entirely
    import toricity.crn as crn

    frozen = crn.ReactionNetwork(("A",), ((1,), (2,)), ((0, 1, "k1"), (1, 0, "k2")))
    N, _ = crn.mass_action_matrices(frozen)
    assert N.rank() == 1  # sanity: this one is fine too


def test_steady_state_reversible_pair_is_binomial():
    from toricity.core import binomial_quickcheck

    sys_ = steady_state_system(parse_network("A <=> B"))
    assert sys_.s == 1
    assert binomial_quickcheck(sys_) is True


def test_conservation_laws_idh():
    net = parse_network(IDH_TEXT)
    N, _ = mass_action_matrices(net)
    laws = conservation_laws(N)
    assert laws.rows == 2
    ref = RationalMatrix([[1, 0, 1, 0, 1], [-2, 1, -1, 1, 0]])
    stacked = RationalMatrix(ref.to_lists() + laws.to_lists())
    assert stacked.rank() == 2
    for i in range(laws.rows):
        assert all(v == 0 for v in mul_vector(to_rational(N.transpose()), laws.row(i)))


def test_conservation_laws_simple_and_full_rank():
    net = parse_network("A -> B")
    N, _ = mass_action_matrices(net)
    laws = conservation_laws(N)
    assert laws.to_lists() == [[1, 1]]
    net2 = parse_network("A -> 0; 0 -> A")
    N2, _ = mass_action_matrices(net2)
    assert conservation_laws(N2).rows == 0


# -- intermediates ------------------------------------------------------------


def test_find_intermediates_idh():
    net = parse_network(IDH_TEXT)
    choice = find_intermediates(net)
    assert [net.species[i] for i in choice.intermediates] == ["X5"]
    (y,) = choice.intermediates
    input_vec = net.complexes[choice.input_complex[y]]
    assert input_vec == (0, 0, 1, 1, 0)


def test_find_intermediates_shinar_feinberg():
    net = parse_network(SHINAR_FEINBERG_TEXT)
    choice = find_intermediates(net)
    assert [net.species[i] for i in choice.intermediates] == ["X6", "X8", "X9"]


def test_find_intermediates_none():
    net = parse_network("2A -> A + B; A + B -> 2B")
    assert len(find_intermediates(net)) == 0


def test_reduce_idh():
    net = parse_network(IDH_TEXT)
    red = reduce_network(net, find_intermediates(net))
    assert red.network.species == ("X1", "X2", "X3", "X4")
    assert red.network.num_reactions == 4
    assert red.B.to_lists() == [[0], [0], [1], [1]]
    assert red.surjectivity == "yes"
    texts = {red.network.reaction_text(k).split("  ")[0] for k in range(4)}
    assert "X3 + X4 -> X2 + X3" in texts


def test_reduce_shinar_feinberg():
    net = parse_network(SHINAR_FEINBERG_TEXT)
    red = reduce_network(net, find_intermediates(net))
    assert red.network.species == ("X1", "X2", "X3", "X4", "X5", "X7")
    assert red.network.num_reactions == 8
    assert red.surjectivity == "yes"
    texts = {red.network.reaction_text(k).split("  ")[0] for k in range(8)}
    assert "X4 + X5 -> X2 + X7" in texts
    assert "X3 + X7 -> X3 + X5" in texts
    assert "X1 + X7 -> X1 + X5" in texts


def test_reduce_chain_of_intermediates():
    """Y1 and Y2 form a chain A + B <=> Y1 -> Y2 -> C + D with input A + B;
    Z is no intermediate, since no path leaves it."""
    net = parse_network("A + B <=> Y1 -> Y2 -> C + D\nC + D -> Z")
    choice = find_intermediates(net)
    assert [net.species[i] for i in choice.intermediates] == ["Y1", "Y2"]
    red = reduce_network(net, choice)
    assert [red.network.reaction_text(k) for k in range(red.network.num_reactions)] \
        == ["C + D -> Z  [k1]", "A + B -> C + D  [k2]"]
    assert red.B.to_lists() == [[1, 1], [1, 1], [0, 0], [0, 0], [0, 0]]
    assert red.surjectivity == "yes"
    # the same chain written tail first is still found whole
    net = parse_network("Y2 -> C + D\nA + B <=> Y1 -> Y2\nC + D -> Z")
    assert reduce_network(net, find_intermediates(net)).surjectivity == "yes"


def test_reduce_rejects_invalid_choice():
    from toricity.crn import IntermediateChoice, InvalidChoiceError

    net = parse_network(IDH_TEXT)
    # X1 appears in non-singleton complexes, so it cannot be an intermediate
    bad = IntermediateChoice((0,), tuple(range(1, 5)), {0: 0})
    with pytest.raises(InvalidChoiceError):
        reduce_network(net, bad)


def test_reduce_empty_choice_identity():
    net = parse_network("2A -> A + B; A + B -> 2B")
    red = reduce_network(net, find_intermediates(net))
    assert red.network == net
    assert red.B.cols == 0


def test_lift_invariance_idh():
    a_tilde = IntegerMatrix([[1, 0, 1, 0], [0, 1, 1, 0]])
    b = IntegerMatrix([[0], [0], [1], [1]])
    assert lift_invariance(a_tilde, b) == IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]])


def test_lift_invariance_zero_and_mismatch():
    a_tilde = IntegerMatrix([[1, 2]])
    z = IntegerMatrix([[0], [0]])
    assert lift_invariance(a_tilde, z) == IntegerMatrix([[1, 2, 0]])
    with pytest.raises(ValueError):
        lift_invariance(a_tilde, IntegerMatrix([[1]]))


def test_reduction_preserves_invariance_lattice():
    for text in (IDH_TEXT, SHINAR_FEINBERG_TEXT):
        net = parse_network(text)
        sys_ = steady_state_system(net)
        direct = invariance_group(sys_)
        red = reduce_network(net, find_intermediates(net))
        red_inv = invariance_group(steady_state_system(red.network))
        lifted = lift_invariance(red_inv.A, red.B)
        perm = list(red.x_indices) + list(red.y_indices)
        inverse = [perm.index(i) for i in range(net.n)]
        back = IntegerMatrix.with_width(
            [[lifted.entry(r, inverse[i]) for i in range(net.n)]
             for r in range(lifted.rows)], net.n)
        assert same_row_lattice(back, direct.A)


def test_shinar_feinberg_lifted_matches_reference():
    net = parse_network(SHINAR_FEINBERG_TEXT)
    red = reduce_network(net, find_intermediates(net))
    red_inv = invariance_group(steady_state_system(red.network))
    assert same_row_lattice(red_inv.A, IntegerMatrix([[1, 1, 1, 0, 1, 0], [0, 0, 0, 1, -1, 0]]))
    lifted = lift_invariance(red_inv.A, red.B)
    perm = list(red.x_indices) + list(red.y_indices)
    inverse = [perm.index(i) for i in range(net.n)]
    back = IntegerMatrix.with_width(
        [[lifted.entry(r, inverse[i]) for i in range(net.n)] for r in range(lifted.rows)],
        net.n)
    assert same_row_lattice(back, IntegerMatrix([
        [1, 1, 1, 0, 1, 1, 0, 1, 1],
        [0, 0, 0, 1, -1, 0, 0, 0, 0],
    ]))


# -- multistationarity and robustness ----------------------------------------


def test_multistationarity_idh_monostationary():
    net = parse_network(IDH_TEXT)
    sys_ = steady_state_system(net)
    inv = invariance_group(sys_)
    N, _ = mass_action_matrices(net)
    res = multistationarity_test(sys_, inv, conservation_laws(N), toric=True)
    assert res.status == "monostationary"


def test_multistationarity_straube():
    net = parse_network(STRAUBE_TEXT)
    sys_ = steady_state_system(net)
    inv = invariance_group(sys_)
    N, _ = mass_action_matrices(net)
    res = multistationarity_test(sys_, inv, conservation_laws(N), toric=True)
    assert res.status == "multistationary"


def test_multistationarity_no_laws():
    net = parse_network("A -> 0; 0 -> A")
    sys_ = steady_state_system(net)
    inv = invariance_group(sys_)
    N, _ = mass_action_matrices(net)
    res = multistationarity_test(sys_, inv, conservation_laws(N))
    assert res.status == "inconclusive"


def test_multistationarity_refuses_laws_over_other_species():
    """Laws whose width is not the species count are an error, never cut
    down to the common columns."""
    net = parse_network(IDH_TEXT)
    sys_ = steady_state_system(net)
    inv = invariance_group(sys_)
    N, _ = mass_action_matrices(net)
    laws = conservation_laws(N)
    wider = RationalMatrix.with_width([list(row) + [0] for row in laws.to_lists()], laws.cols + 1)
    with pytest.raises(ValueError, match="columns of conservation laws"):
        multistationarity_test(sys_, inv, wider, toric=True)


@st.composite
def _invariance_and_laws(draw):
    """A d x n integer A and d rational laws L, both of full row rank,
    n <= 10."""
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, n - 1))
    entries = st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2]), min_size=n, max_size=n),
                       min_size=d, max_size=d)
    dens = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    A = IntegerMatrix(draw(entries))
    L = RationalMatrix([[Fraction(x, q) for x in row] for q, row in zip(dens, draw(entries))])
    assume(A.rank() == d and L.rank() == d)
    return A, L


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_invariance_and_laws())
@example((IntegerMatrix([[1, 0]]), RationalMatrix([[0, 1]])))                      # zero
@example((IntegerMatrix([[1, 1, 0]]), RationalMatrix([[1, -1, 0]])))               # mixed
@example((IntegerMatrix([[1, 0, 1], [0, 1, 1]]), RationalMatrix([[1, 0, 1], [0, 1, -1]])))
def test_multistationarity_determinant_matches_stacked(case):
    """The d x d det(A diag(be) L^T) has the sign class (zero, mixed or
    definite) and the number of terms of the n x n det[B diag(al); L] it
    replaced: their coefficients agree up to one nonzero factor, whose sign
    may flip a definite sign."""
    A, L = case
    small, stacked = crn.multistationarity_determinant(A, L), oracle_multistationarity_det(A, L)
    definite = {SignVerdict.ALL_POSITIVE, SignVerdict.ALL_NEGATIVE}
    assert ({sign_classify(small), sign_classify(stacked)} <= definite
            or sign_classify(small) == sign_classify(stacked))
    assert term_count(small) == term_count(stacked)


def test_acr_idh():
    net = parse_network(IDH_TEXT)
    inv = invariance_group(steady_state_system(net))
    flags = acr_detect(inv, Verdict.TORIC, net.species)
    assert flags["X4"] == "acr"
    assert all(v == "no-acr" for k, v in flags.items() if k != "X4")
    flags_local = acr_detect(inv, Verdict.LOCALLY_TORIC, net.species)
    assert flags_local["X4"] == "local-acr"
    flags_generic = acr_detect(inv, Verdict.GENERICALLY_LOCALLY_TORIC, net.species)
    assert flags_generic["X4"] == "unknown"


def test_acr_straube_none():
    net = parse_network(STRAUBE_TEXT)
    inv = invariance_group(steady_state_system(net))
    flags = acr_detect(inv, Verdict.TORIC, net.species)
    assert all(v == "no-acr" for v in flags.values())


def test_acr_consistency():
    net = parse_network(IDH_TEXT)
    inv = invariance_group(steady_state_system(net))
    for verdict in Verdict:
        flags = acr_detect(inv, verdict, net.species)
        assert set(flags.values()) <= {"acr", "local-acr", "no-acr", "unknown"}


def test_reactions_recoverable_from_matrices():
    # columns of M are the source complexes and N holds the net changes, so
    # (N, M) determines the reaction multiset
    for text in (IDH_TEXT, TRIANGLE_TEXT, SQUARE_TEXT, STRAUBE_TEXT, SHINAR_FEINBERG_TEXT):
        net = parse_network(text)
        N, M = mass_action_matrices(net)
        rebuilt = sorted(
            (tuple(M.col(j)), tuple(m + d for m, d in zip(M.col(j), N.col(j))))
            for j in range(net.num_reactions)
        )
        direct = sorted(
            (net.complexes[src], net.complexes[tgt]) for src, tgt, _ in net.reactions
        )
        assert rebuilt == direct


# -- structure ----------------------------------------------------------------


def test_network_structure_idh():
    st = network_structure(parse_network(IDH_TEXT))
    assert st.complex_count == 6
    assert len(st.linkage_classes) == 2
    assert st.rank == 3
    assert st.deficiency == 1
    assert st.weakly_reversible is False


def test_network_structure_reversible_pair():
    st = network_structure(parse_network("A <=> B"))
    assert (st.complex_count, len(st.linkage_classes), st.deficiency) == (2, 1, 0)
    assert st.weakly_reversible is True
    assert st.deficiency_zero_toric is True


def test_network_structure_triangle():
    st = network_structure(parse_network(TRIANGLE_TEXT))
    assert st.complex_count == 3
    assert len(st.linkage_classes) == 1
    assert st.rank == 1
    assert st.deficiency == 1
    assert st.matroid_refines_linkage is True


def test_network_structure_without_dynamics():
    """N = 0 has no steady-state system, and still a structure: s = 0 and
    no matroid partition to compare."""
    net = ReactionNetwork(("A",), ((1,), (1,)), ((0, 1, "k1"),))
    with pytest.raises(ZeroDynamicsError):
        steady_state_system(net)
    st = network_structure(net)
    assert (st.complex_count, len(st.linkage_classes), st.rank, st.deficiency) == (2, 1, 0, 1)
    assert st.matroid_refines_linkage is None and st.weakly_reversible is False


def test_deficiency_nonnegative_and_zero_refines():
    for text in (IDH_TEXT, TRIANGLE_TEXT, SQUARE_TEXT, STRAUBE_TEXT,
                 SHINAR_FEINBERG_TEXT, "A <=> B", "A + B <=> C; C <=> D"):
        st = network_structure(parse_network(text))
        assert st.deficiency >= 0
        if st.deficiency == 0 and st.matroid_refines_linkage is not None:
            assert st.matroid_refines_linkage is True


# -- siphons ------------------------------------------------------------------


def test_minimal_siphons_reversible():
    net = parse_network("A <=> B")
    assert minimal_siphons(net) == [frozenset({0, 1})]


def test_siphon_check_reversible():
    net = parse_network("A <=> B")
    N, _ = mass_action_matrices(net)
    assert siphon_boundary_check(net, None, conservation_laws(N)) == "yes"


def test_siphon_check_triangle():
    net = parse_network(TRIANGLE_TEXT)
    sys_ = steady_state_system(net)
    inv = invariance_group(sys_)
    N, _ = mass_action_matrices(net)
    assert siphon_boundary_check(net, inv.A, conservation_laws(N)) == "yes"


def test_siphon_check_unconserved():
    net = parse_network("A -> 2A; 2A -> A")
    N, _ = mass_action_matrices(net)
    assert siphon_boundary_check(net, None, conservation_laws(N)) == "unknown"


@st.composite
def _networks(draw):
    n = draw(st.integers(1, 10))
    complexes = draw(st.lists(st.tuples(*[st.sampled_from((0, 0, 0, 1, 2))] * n),
                              min_size=2, max_size=7))
    pairs = st.tuples(st.integers(0, len(complexes) - 1), st.integers(0, len(complexes) - 1))
    reactions = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), min_size=1, max_size=10))
    return ReactionNetwork(tuple(f"X{i}" for i in range(n)), tuple(complexes),
                           tuple((a, b, f"k{r}") for r, (a, b) in enumerate(reactions)))


@st.composite
def _walks(draw):
    """A random digraph on up to 8 nodes, a set of inside nodes and a start
    among them."""
    n = draw(st.integers(1, 8))
    edges = {a: draw(st.sets(st.integers(0, n - 1), max_size=4)) for a in range(n)}
    inside = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return draw(st.sampled_from(sorted(inside))), edges, inside


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_walks())
def test_walk_matches_transitive_closure(case):
    assert crn._walk(*case) == oracle_walk(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_networks())
def test_linkage_classes_and_weak_reversibility_match_closure(net):
    """Linkage classes are the classes of the undirected closure, in order of
    their least complex; weak reversibility puts every reaction on a cycle."""
    nodes = range(len(net.complexes))
    edges = {c: {t for s, t, _ in net.reactions if s == c} for c in nodes}
    undirected = oracle_closure({c: edges[c] | {s for s in nodes if c in edges[s]} for c in nodes})
    classes = sorted({frozenset({c} | undirected[c]) for c in nodes}, key=min)
    structure = network_structure(net)
    assert list(structure.linkage_classes) == classes
    directed = oracle_closure(edges)
    assert structure.weakly_reversible == all(s in directed[t] for s, t, _ in net.reactions)


@st.composite
def _row_spaces(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(st.integers(1, 3), st.lists(st.integers(-3, 3), min_size=n,
                                                               max_size=n)),
                         min_size=1, max_size=3))
    # a few species outside, so that some row-space vectors vanish there
    outside = draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    return (RationalMatrix([[Fraction(x, q) for x in row] for q, row in rows]),
            frozenset(range(n)) - outside)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_networks())
def test_minimal_siphons_match_subset_sweep(net):
    assert minimal_siphons(net) == oracle_minimal_siphons(net)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_row_spaces())
def test_siphon_support_matches_full_lp(case):
    mat, siphon = case
    assert crn._siphon_supported_in_rowspace(mat, siphon) == oracle_siphon_supported_lp(mat, siphon)


@st.composite
def _siphon_cases(draw):
    """Integer or rational matrices and a random siphon.  Up to three rows
    vanish outside the siphon and up to two need not, so the span of the
    row-space vectors vanishing outside it ranges from none to several."""
    n = draw(st.integers(1, 7))
    siphon = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    if draw(st.booleans()):
        cls, entry = IntegerMatrix, st.integers(-3, 3)
    else:
        cls, entry = RationalMatrix, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    inside = draw(st.integers(0, 3))
    rows = [[draw(entry) if j in siphon else 0 for j in range(n)] for _ in range(inside)]
    rows += [[draw(entry) for _ in range(n)] for _ in range(draw(st.integers(int(not inside), 2)))]
    return cls(draw(st.permutations(rows)), n), siphon


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_siphon_cases())
# no row vanishes off the siphon
@example((RationalMatrix([[1, 1, 0]]), frozenset({2})))
# one row, nonnegative once oriented by its pivot: positive, negative, rational
@example((IntegerMatrix([[0, 2, 3], [1, 0, 1]]), frozenset({1, 2})))
@example((IntegerMatrix([[0, -2, -3], [1, 0, 1]]), frozenset({1, 2})))
@example((RationalMatrix([[0, Fraction(-1, 2), Fraction(-1, 3)]]), frozenset({1, 2})))
# one row of mixed signs
@example((IntegerMatrix([[0, 1, -1]]), frozenset({1, 2})))
# two rows, with and without a nonnegative combination
@example((IntegerMatrix([[0, 1, 0, -1, 1], [0, 0, 1, 1, -1], [1, 1, 1, 1, 1]]),
          frozenset({1, 2, 3, 4})))
@example((IntegerMatrix([[0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [1, 1, 1, 1, 1]]),
          frozenset({1, 2, 3, 4})))
def test_siphon_support_matches_fraction_rref(case):
    """The fraction-free test, with its span rows oriented by their pivots,
    decides as the Fraction RREF of the permuted matrix does."""
    mat, siphon = case
    assert crn._siphon_supported_in_rowspace(mat, siphon) == oracle_siphon_supported(mat, siphon)


@pytest.mark.parametrize("rows, expected", [
    # the rows vanishing off {1..4} span two dimensions; only their sum is >= 0
    ([[0, 1, 0, -1, 1], [0, 0, 1, 1, -1], [1, 1, 1, 1, 1]], True),
    # (1, -1, 0) and (0, 1, -1) span the vectors summing to 0: none is >= 0
    ([[0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [1, 1, 1, 1, 1]], False),
])
def test_siphon_support_two_dimensional_uses_lp(monkeypatch, rows, expected):
    calls = []
    monkeypatch.setattr(crn, "strictly_positive_kernel",
                        lambda m: calls.append(m) or strictly_positive_kernel(m))
    mat, siphon = RationalMatrix(rows), frozenset({1, 2, 3, 4})
    assert crn._siphon_supported_in_rowspace(mat, siphon) is expected
    assert oracle_siphon_supported_lp(mat, siphon) is expected
    assert len(calls) == 1


@pytest.mark.parametrize("text, count", [(multisite(6), 3), (cascade(4), 9)])
def test_minimal_siphons_past_twenty_species(text, count):
    net = parse_network(text)
    assert net.n > 20
    assert len(minimal_siphons(net)) == count


def _direct_A(net):
    """The invariance matrix ``analyze_network`` tests, empty without one."""
    try:
        return invariance_group(steady_state_system(net)).A
    except (EmptyLocusError, ZeroDynamicsError):
        return IntegerMatrix.with_width([], net.n)


def test_siphon_budget_reported(monkeypatch):
    """Past its budget a check that needs the search is a ``_BudgetUnknown``,
    with A and without, and ``analyze_network`` notes it once.  A check that
    certificate 2 settles never searches, so it stays a plain 'unknown'."""
    net = parse_network(TRIANGLE_TEXT)
    N, _ = mass_action_matrices(net)
    note = "boundary zeros not excluded: the siphon search reached its budget"
    assert note not in analyze_network(net, seed=0).report.notes
    unsupported = analyze_network(parse_network(multisite(2)), seed=0)
    assert unsupported.boundary == "unknown" and note not in unsupported.report.notes
    monkeypatch.setattr(crn, "_SIPHON_BUDGET", 3)
    with pytest.raises(SearchBudgetExceededError):
        minimal_siphons(net)
    assert siphon_boundary_check(net, None, conservation_laws(N)) == "unknown"
    assert isinstance(siphon_boundary_check(net, _direct_A(net), conservation_laws(N)),
                      crn._BudgetUnknown)
    res = analyze_network(net, seed=0)
    assert res.boundary == "unknown"
    assert res.verdict is not None
    assert res.report.notes.count(note) == 1
    # certificate 2 settles multisite_2's direct check before any search
    searched = []
    search = crn.minimal_siphons
    monkeypatch.setattr(crn, "minimal_siphons", lambda net: searched.append(1) or search(net))
    net = parse_network(multisite(2))
    laws = conservation_laws(mass_action_matrices(net)[0])
    result = siphon_boundary_check(net, _direct_A(net), laws)
    assert result == "unknown" and not isinstance(result, crn._BudgetUnknown)
    assert not searched


def _unit(n: int, *species: int) -> tuple[int, ...]:
    return tuple(species.count(i) for i in range(n))


@st.composite
def _siphon_networks(draw):
    """Networks on up to 8 species.  Complexes may repeat and may be the zero
    complex, and a reaction may come with its reverse or twice.  Up to two
    futile cycles S + E <=> C -> P + E, P + F <=> D -> S + F, on species
    drawn at random, join the random reactions; their laws are often
    one-signed."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.tuples(*[st.sampled_from((0, 0, 0, 1, 2))] * n),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        pool.append((0,) * n)
    complexes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=7))
    pairs = st.tuples(st.integers(0, len(complexes) - 1), st.integers(0, len(complexes) - 1))
    reactions = []
    for a, b in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=8)):
        reactions += [(a, b)] * draw(st.sampled_from((1, 1, 1, 2)))
        if draw(st.booleans()):
            reactions.append((b, a))
    species = st.integers(0, n - 1)
    for s, p, e, f, c, d in draw(st.lists(st.tuples(*[species] * 6),
                                          min_size=int(not reactions), max_size=2)):
        k = len(complexes)
        complexes += [_unit(n, s, e), _unit(n, c), _unit(n, p, e),
                      _unit(n, p, f), _unit(n, d), _unit(n, s, f)]
        reactions += [(k, k + 1), (k + 1, k), (k + 1, k + 2),
                      (k + 3, k + 4), (k + 4, k + 3), (k + 4, k + 5)]
    return ReactionNetwork(tuple(f"X{i}" for i in range(n)), tuple(complexes),
                           tuple((a, b, f"k{r}") for r, (a, b) in enumerate(reactions)))


def test_siphon_check_matches_oracle_and_each_step_settles(monkeypatch):
    """The check with its two certificates decides as the search over every
    minimal siphon does, with A given and with A absent.  Certificate 1 (a
    one-signed row inside every siphon, no elimination), certificate 2 (an
    unsupported one-signed law, no search) and the search each settle some
    case, and the support of every one-signed law is a siphon."""
    searched, eliminated = [], []
    search, eliminate = crn.minimal_siphons, crn._siphon_supported_in_rowspace

    def counted_search(net):
        searched.append(search(net))
        return searched[-1]
    monkeypatch.setattr(crn, "minimal_siphons", counted_search)
    monkeypatch.setattr(crn, "_siphon_supported_in_rowspace",
                        lambda mat, z: eliminated.append(1) or eliminate(mat, z))
    settled = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_siphon_networks())
    @example(parse_network(multisite(2)))
    @example(parse_network(cascade(2)))
    @example(parse_network("A <=> B"))
    def check(net):
        laws = conservation_laws(mass_action_matrices(net)[0])
        for A in (_direct_A(net), None):
            expected = oracle_siphon_boundary_check(net, A, laws)
            searched.clear()
            eliminated.clear()
            assert siphon_boundary_check(net, A, laws) == expected
            if not searched:  # nothing to test, or certificate 2
                assert expected == "unknown"
                settled["certificate 2"] += laws.rows > 0
            elif expected == "yes" and not eliminated:  # certificate 1, or no siphons
                settled["certificate 1"] += bool(searched[0])
            else:
                settled["search"] += 1
        minimal = oracle_minimal_siphons(net)
        for row in laws.to_lists():
            if all(x >= 0 for x in row) or all(x <= 0 for x in row):
                support = frozenset(j for j, x in enumerate(row) if x)
                assert oracle_is_siphon(net, support)
                assert any(z <= support for z in minimal)
        settled["networks"] += 1

    check()
    assert settled["networks"] >= 400
    assert settled["certificate 1"] and settled["certificate 2"] and settled["search"], settled


def test_pipeline_builds_no_fraction_rref(monkeypatch):
    """``analyze_network`` and the batch rows of the bundled networks read
    the RREF matrices of C and of the laws through their kept integer rows:
    no ``Fraction`` entries are built."""
    calls = []
    divide = exactalg._divide_by_pivots
    monkeypatch.setattr(exactalg, "_divide_by_pivots", lambda *a: calls.append(1) or divide(*a))
    for text in (multisite(2), cascade(2)):
        analyze_network(parse_network(text), seed=0)
    paths = sorted(MODELS.glob("*.crn"))
    assert paths
    for path in paths:
        assert cli.run_batch_model(str(path), 0, 0)["verdict"] not in ("error", "timeout")
    assert not calls


def test_wrapped_matrices_hold_exact_ints(monkeypatch):
    """Every integer matrix the library wraps from its own arithmetic, past
    the constructor's conversion, holds rows that are tuples of the stated
    width of exact ``int``s: on the pipeline of multisite 1-4, cascade 1-3,
    the five bundled networks and the 120 ``screen`` networks, on the
    batch rows of the three JSON models, and on a siphon span that takes
    the positive-kernel LP.  A network built by hand still
    has its stoichiometry converted, so a float in it is refused."""
    wrap = exactalg._Matrix._of.__func__
    checked = []

    def of(cls, rows, cols):
        m = wrap(cls, rows, cols)
        if cls is IntegerMatrix:
            for row in m._e:
                assert type(row) is tuple and len(row) == cols, (row, cols)
                assert all(type(x) is int for x in row), row
            checked.append(m.shape)
        return m
    monkeypatch.setattr(exactalg._Matrix, "_of", classmethod(of))
    texts = [multisite(k) for k in range(1, 5)] + [cascade(k) for k in range(1, 4)]
    texts += [path.read_text(encoding="utf-8") for path in sorted(MODELS.glob("*.crn"))]
    texts += _load_bench("generators").screen(20241122, 120)
    assert len(texts) == 132
    for text in texts:
        analysis = analyze_network(parse_network(text), seed=0)
        analysis.report.to_dict()
    paths = sorted(MODELS.glob("*.json"))
    assert len(paths) == 3
    for path in paths:
        assert cli.run_batch_model(str(path), 0, 0)["verdict"] not in ("error", "timeout")
    assert len(checked) > 500
    # none of them reaches the LP on a siphon span of two or more rows
    wrapped = len(checked)
    span = IntegerMatrix([[0, 1, -1, 0], [0, 0, 1, -1]])
    assert not crn._siphon_supported_in_rowspace(span, frozenset({1, 2, 3}))
    assert (2, 3) in checked[wrapped:]
    net = ReactionNetwork(("A", "B"), ((1, 0), (0, 1.0)), ((0, 1, "k1"),))
    with pytest.raises(TypeError):
        mass_action_matrices(net)


# -- network-level orchestration ----------------------------------------------


def test_analyze_network_idh():
    net = parse_network(IDH_TEXT)
    res = analyze_network(net, seed=0)
    assert res.verdict == Verdict.TORIC
    assert res.verdict_source == "reduced"
    assert same_row_lattice(res.direct_A, IDH_A)
    assert same_row_lattice(res.lifted_A, IDH_A)
    assert res.report.injectivity.toric              # direct system passes too
    assert res.report.nondegenerate == "yes-for-all-positive"
    assert res.acr["X4"] == "acr"
    assert res.multistationarity.status == "monostationary"


def test_analyze_network_idh_no_reduce():
    net = parse_network(IDH_TEXT)
    res = analyze_network(net, seed=0, reduce=False)
    assert res.verdict == Verdict.TORIC
    assert res.verdict_source == "direct"
    assert res.acr["X4"] == "acr"


def test_analyze_network_triangle():
    net = parse_network(TRIANGLE_TEXT)
    res = analyze_network(net, seed=0)
    assert res.verdict == Verdict.TORIC
    assert res.boundary == "yes"
    assert res.report.mixed_volume_bound == 6
    assert res.report.conditions.all_hold
    assert res.report.parameter_region_full


def test_analyze_network_square():
    net = parse_network(SQUARE_TEXT)
    res = analyze_network(net, seed=0)
    assert res.verdict == Verdict.GENERICALLY_LOCALLY_TORIC
    assert not res.report.injectivity.toric


def test_analyze_network_straube():
    net = parse_network(STRAUBE_TEXT)
    res = analyze_network(net, seed=0)
    assert res.verdict == Verdict.TORIC
    assert all(v == "no-acr" for v in res.acr.values())
    assert res.multistationarity.status == "multistationary"


def test_analyze_network_shinar_feinberg():
    net = parse_network(SHINAR_FEINBERG_TEXT)
    res = analyze_network(net, seed=0)
    assert res.verdict == Verdict.TORIC
    assert res.verdict_source == "reduced"
    assert res.reduced_report.injectivity.toric
    # the unreduced system does not pass the injectivity test
    direct = injectivity_test(res.system, invariance_group(res.system))
    assert not direct.toric


# the 72nd network of the benchmark's screen population: n = 10, s = 8
SCREEN_72_TEXT = """
X5 + X6 <=> I1a -> X3 + X6
X3 + X4 <=> I1b -> X5 + X4
0 <=> X2
X4 + X3 <=> I3a -> X1 + X3
X1 + X2 <=> I3b -> X4 + X2
X2 + X5 -> 2 X5
X5 -> X2
"""


def test_nondegeneracy_minor_sweep_past_six_equations():
    """The minor sweep is bounded by its C(n, s) cap alone, so a system
    with s = 8 is certified degenerate rather than left undetermined."""
    res = analyze_network(parse_network(SCREEN_72_TEXT), seed=0)
    assert (res.report.n, res.report.s) == (10, 8)
    assert res.report.nondegenerate == "no"
    assert res.verdict == Verdict.INVARIANT_ONLY


# -- the direct system's report-only facts on the reduced path ---------------

def _count_direct_facts(monkeypatch):
    """Count the calls of the two report-only stages that ``crn`` makes."""
    calls = Counter()
    for name in ("injectivity_test", "nondegeneracy_all_positive"):
        def counting(*args, _name=name, _stage=getattr(crn, name)):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(crn, name, counting)
    return calls


def _eager_direct_facts(system):
    """The direct system's injectivity and all-positive fields, computed
    eagerly: a toric injectivity certifies the all-positive field, and
    otherwise the ray sweep decides it under the size cap.  Under the cap
    the sweep agrees with a toric injectivity."""
    inj = injectivity_test(system, invariance_group(system))
    swept = "unknown"
    if comb(system.n, system.s) <= ALL_POSITIVE_ENRICHMENT_CAP:
        if nondegeneracy_all_positive(system).status == "yes":
            swept = "yes-for-all-positive"
        assert swept == "yes-for-all-positive" or not inj.toric
    return inj, "yes-for-all-positive" if inj.toric else swept


@pytest.mark.parametrize("text, all_positive_calls",
                         [((MODELS / "idh.crn").read_text(), 0),
                          ((MODELS / "shinar_feinberg.crn").read_text(), 1),
                          (multisite(2), 0)],
                         ids=["idh", "shinar_feinberg", "multisite_2"])
def test_direct_facts_computed_when_read(monkeypatch, text, all_positive_calls):
    """Each deferred step runs on the first read of its field, and once.
    The all-positive step reads the injectivity field first, and sweeps the
    rays only where that is not toric: on shinar_feinberg, not on idh or
    multisite_2 (whose C(n, s) is past the sweep's cap)."""
    calls = _count_direct_facts(monkeypatch)
    res = analyze_network(parse_network(text), seed=0)
    assert res.verdict_source == "reduced"
    assert calls == Counter()
    both = Counter(injectivity_test=1, nondegeneracy_all_positive=all_positive_calls)
    for read in (lambda r: r.nondegenerate, lambda r: r.nondegenerate, lambda r: r.injectivity,
                 ToricityReport.to_dict, lambda r: r.nondegenerate):
        read(res.report)
        assert +calls == +both
    assert res.report.nondegenerate == "yes-for-all-positive"
    res = analyze_network(parse_network(text), seed=0)
    res.report.injectivity
    assert +calls == +(both + Counter(injectivity_test=1))
    res.report.nondegenerate
    assert +calls == +(both + both)


@pytest.mark.parametrize("text", [multisite(k) for k in range(1, 5)]
                         + [cascade(k) for k in range(1, 4)],
                         ids=[f"multisite_{k}" for k in range(1, 5)]
                         + [f"cascade_{k}" for k in range(1, 4)])
def test_direct_facts_match_eager_call(text):
    res = analyze_network(parse_network(text), seed=0)
    assert res.verdict_source == "reduced"
    assert (res.report.injectivity, res.report.nondegenerate) == _eager_direct_facts(res.system)


@pytest.mark.parametrize("roundtrip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_direct_facts_copy_resolved(roundtrip):
    res = analyze_network(parse_network(IDH_TEXT), seed=0)
    copied = roundtrip(res.report)
    assert type(copied) is ToricityReport and "_pending" not in vars(copied)
    assert (copied.injectivity, copied.nondegenerate) == _eager_direct_facts(res.system)
    assert copied == res.report
    assert copied == dataclasses.replace(res.report)


def test_direct_facts_stay_pending_after_error(monkeypatch):
    """A failing step reaches the reader of its field, also through the
    all-positive step, which reads the injectivity field first, and leaves
    that field pending; the next read runs it again.  On shinar_feinberg
    the direct injectivity is not toric, so the ray sweep runs."""
    for name, text in (("injectivity_test", IDH_TEXT),
                       ("nondegeneracy_all_positive", SHINAR_FEINBERG_TEXT)):
        with monkeypatch.context() as patch:
            calls = _count_direct_facts(patch)
            stage = getattr(crn, name)
            failures = []

            def failing_once(*args, _stage=stage, _failures=failures):
                if not _failures:
                    _failures.append(args)
                    raise RuntimeError("interrupted")
                return _stage(*args)
            patch.setattr(crn, name, failing_once)
            res = analyze_network(parse_network(text), seed=0)
            with pytest.raises(RuntimeError, match="interrupted"):
                res.report.nondegenerate
            # the injectivity step, read first, is filled unless it failed
            failing = {"injectivity_test": "injectivity",
                       "nondegeneracy_all_positive": "nondegenerate"}[name]
            assert set(res.report._pending) == {failing, "nondegenerate"}
            res.report.injectivity
            assert set(res.report._pending) == {"nondegenerate"}
            assert res.report.nondegenerate == "yes-for-all-positive"
            assert "_pending" not in vars(res.report)
            # each step ran to completion once; the sweep only on shinar_feinberg
            assert len(failures) == 1 and calls == Counter(
                injectivity_test=1, nondegeneracy_all_positive=int(text == SHINAR_FEINBERG_TEXT))


@pytest.mark.parametrize("name", ["idh.crn", "shinar_feinberg.crn"])
def test_batch_row_takes_all_positive_from_reduced_report(monkeypatch, name):
    """On the reduced path the row reads "yes-for-all-positive" off the
    reduced report, so the full system's sweep never runs; the full
    system's injectivity still does.  The reduced system's toric
    injectivity is itself its all-positive certificate, so no system is
    swept at all."""
    swept = []
    for module in (core, crn):
        def recording(system, _stage=module.nondegeneracy_all_positive):
            swept.append(system.variables)
            return _stage(system)
        monkeypatch.setattr(module, "nondegeneracy_all_positive", recording)
    calls = _count_direct_facts(monkeypatch)
    row = cli.run_batch_model(str(MODELS / name), cli._model_seed(0, name), 0)
    assert row["nondegenerate"] == "yes-for-all-positive" and row["injectivity"] is not None
    assert swept == []
    assert calls == Counter(injectivity_test=1)


def test_batch_timeout_inside_direct_facts(monkeypatch):
    entered = []

    def slow(*args):
        entered.append(args)
        time.sleep(30)
    monkeypatch.setattr(crn, "injectivity_test", slow)
    row = cli.run_batch_model(str(MODELS / "idh.crn"), 0, 0.5)
    assert entered and row["verdict"] == "timeout"


# -- fuzz --------------------------------------------------------------------


def _random_network_text(rng) -> str:
    """1-4 species, at most 5 reactions, coefficients 0-2, '->' and '<=>'."""
    names = [f"X{i + 1}" for i in range(rng.randint(1, 4))]

    def complex_():
        coeffs = [rng.randint(0, 2) for _ in names]
        return " + ".join(name if c == 1 else f"{c}{name}"
                          for c, name in zip(coeffs, names) if c) or "0"

    statements = []
    reactions = rng.randint(1, 5)
    while reactions > 0:
        left, right = complex_(), complex_()
        if left == right:
            continue
        reversible = reactions >= 2 and rng.random() < 0.5
        statements.append(f"{left} {'<=>' if reversible else '->'} {right}")
        reactions -= 2 if reversible else 1
    return "\n".join(statements)


FUZZ_NETWORKS = 200


def test_fuzz_small_networks_return_verdicts():
    # every call either returns a verdict or reports that there are no dynamics
    rng = random.Random(20240)
    verdicts = 0
    for seed in range(FUZZ_NETWORKS):
        net = parse_network(_random_network_text(rng))
        for mode in (GroupMode.POSITIVE, GroupMode.REAL_STAR):
            for reduce in (True, False):
                try:
                    result = analyze_network(net, mode, seed, reduce=reduce)
                except ZeroDynamicsError:
                    continue
                assert isinstance(result.verdict, Verdict)
                verdicts += 1
    assert verdicts > 3 * FUZZ_NETWORKS
