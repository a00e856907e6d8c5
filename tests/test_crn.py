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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricity import cli, crn
from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity.polyhedra import strictly_positive_kernel
from toricity.core import (
    ALL_POSITIVE_ENRICHMENT_CAP,
    GroupMode,
    ToricityReport,
    Verdict,
    injectivity_test,
    invariance_group,
    nondegeneracy_all_positive,
)
from toricity.crn import (
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
    oracle_minimal_siphons,
    oracle_siphon_supported,
    oracle_siphon_supported_lp,
    oracle_walk,
    same_row_lattice,
    to_rational,
)
from test_families import cascade, multisite

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


def test_siphon_budget_reported(monkeypatch):
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
    res = analyze_network(net, seed=0)
    assert res.boundary == "unknown"
    assert res.verdict is not None
    assert res.report.notes.count(note) == 1


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

MODELS = Path(crn.__file__).parent / "data" / "models"


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
    """The direct system's injectivity and all-positive fields as the
    reduced path computed them before it deferred them."""
    inj = injectivity_test(system, invariance_group(system))
    nondegenerate = "unknown"
    if comb(system.n, system.s) <= ALL_POSITIVE_ENRICHMENT_CAP:
        if nondegeneracy_all_positive(system).status == "yes":
            nondegenerate = "yes-for-all-positive"
    return inj, nondegenerate


@pytest.mark.parametrize("text, all_positive_calls",
                         [((MODELS / "idh.crn").read_text(), 1), (multisite(2), 0)],
                         ids=["idh", "multisite_2"])
def test_direct_facts_computed_when_read(monkeypatch, text, all_positive_calls):
    calls = _count_direct_facts(monkeypatch)
    res = analyze_network(parse_network(text), seed=0)
    assert res.verdict_source == "reduced"
    assert calls == Counter()
    expected = Counter(injectivity_test=1, nondegeneracy_all_positive=all_positive_calls)
    for read in (lambda r: r.nondegenerate, lambda r: r.injectivity, ToricityReport.to_dict,
                 lambda r: r.nondegenerate, ToricityReport.to_dict):
        read(res.report)
        assert +calls == +expected


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
    stage = crn.injectivity_test
    failures = []

    def failing_once(*args):
        if not failures:
            failures.append(args)
            raise RuntimeError("interrupted")
        return stage(*args)
    monkeypatch.setattr(crn, "injectivity_test", failing_once)
    res = analyze_network(parse_network(IDH_TEXT), seed=0)
    with pytest.raises(RuntimeError, match="interrupted"):
        res.report.nondegenerate
    assert res.report.injectivity.toric
    assert res.report.nondegenerate == "yes-for-all-positive"
    assert len(failures) == 1


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
