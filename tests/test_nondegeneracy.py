"""The shared minor sweep of the two nondegeneracy tests against the
one-determinant-per-minor oracles, its caps, and the work it saves.

``nondegeneracy`` tries one random kernel vector, then sweeps the s x s
minors up to the first nonzero one, and only then tries ten more vectors;
``nondegeneracy_all_positive`` sweeps for a sign-definite minor.  Both
must give exactly the status, witness, minor columns and certificate of
the oracles in ``_oracles.py``: eleven random vectors first, then one
``det_symbolic`` per minor.
"""

import contextlib
import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricity import GroupMode, Verdict, core, crn, parse_network, polyring
from toricity.core import (
    EmptyLocusError,
    VerticalSystem,
    analyze,
    nondegeneracy,
    nondegeneracy_all_positive,
)
from toricity.crn import ZeroDynamicsError
from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity.fileio import read_model
from toricity.polyring import (DeterminantSizeError, SparsePolynomial, det_stacked,
                                det_symbolic, minor_sweep)

import _oracles
from test_crn import _random_network_text
from test_polyhedra import _screen_pass
from _oracles import (
    oracle_all_positive,
    oracle_extreme_rays,
    oracle_nondegeneracy,
    oracle_scaled_jacobian,
)

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "src" / "toricity" / "data" / "models"

REFUTED = ([[1, -1]], [[1, 1]])
# M of rank one with columns of different lengths: every entry of the
# Jacobian is nonzero, every 2 x 2 minor vanishes
RANK_ONE = ([[1, -1, 0, 0], [0, 0, 1, -1]], [[1, 2, 1, 2], [1, 2, 1, 2], [1, 2, 1, 2]])
# degenerate, with a Jacobian pencil of term rank 3 and stacked rank 3:
# only the minor sweep shows that every 3 x 3 minor vanishes
UNCERTIFIED = ([[0, 0, 2, 2, -1], [-1, 1, 0, 0, 2], [0, 0, 0, 2, -1]],
               [[1, 2, 2, 2, 1], [2, 2, 1, 0, 1], [0, 0, 2, 2, 1], [2, 1, 0, 0, 2]])


def _system(C, M) -> VerticalSystem:
    return VerticalSystem(RationalMatrix(C), IntegerMatrix(M, len(C[0])))


def _assert_matches_oracles(sys_, seed=0):
    """Both tests give the oracles' results, and the integer pencil over
    the integer circuits, over C's row denominators, is the Fraction
    Jacobian over the same generators."""
    assert nondegeneracy(sys_, seed) == oracle_nondegeneracy(sys_, seed)
    if len(sys_.circuits) and sys_.s:
        lam = tuple(f"l{k+1}" for k in range(len(sys_.circuits)))
        units = [tuple(int(u == t) for u in range(len(lam))) for t in range(len(lam))]
        rows, scales = core._jacobian_pencil(sys_, sys_.circuits.vectors)
        pencil = [[SparsePolynomial(lam, {e: Fraction(c, scale) for e, c in zip(units, coeffs)})
                   for coeffs in row] for row, scale in zip(rows, scales)]
        assert pencil == oracle_scaled_jacobian(sys_, sys_.circuits.vectors, lam)
    try:
        expected = oracle_all_positive(sys_)
    except EmptyLocusError:
        with pytest.raises(EmptyLocusError):
            nondegeneracy_all_positive(sys_)
        return
    assert nondegeneracy_all_positive(sys_) == expected


@st.composite
def small_systems(draw):
    """s <= 3 equations in n <= 4 variables and m <= 6 monomials; the
    monomials come from a pool of exponent vectors that is often smaller
    than m, so repeated monomial columns and degenerate systems are common."""
    s = draw(st.integers(1, 3))
    n = draw(st.integers(s, 4))
    m = draw(st.integers(s + 1, 6))
    pool = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * n), min_size=1, max_size=m,
                         unique=True))
    cols = pool + [draw(st.sampled_from(pool)) for _ in range(m - len(pool))]
    C = [draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)) for _ in range(s)]
    M = [[col[k] for col in cols] for k in range(n)]
    return C, M, draw(st.integers(0, 3)), draw(st.integers(0, 11))


def _assert_unlucky_matches_oracles(C, M, seed, unlucky):
    """The first ``unlucky`` random kernel vectors are replaced by the
    first circuit, which often falls short of full rank on its own: the
    later attempts and the witness drawn from the sweep's first nonzero
    minor are compared too."""
    random_combination, oracle_combination = core.random_combination, _oracles.oracle_combination

    def unlucky_attempt(attempt_seed):
        return (attempt_seed - seed) // 7919 < unlucky

    def combination(basis, attempt_seed):
        if unlucky_attempt(attempt_seed):  # the first circuit over its denominator
            return basis.vectors[0], basis.vectors[0][max(basis.supports[0])]
        return random_combination(basis, attempt_seed)

    def fraction_combination(vectors, attempt_seed):
        if unlucky_attempt(attempt_seed):
            return vectors[0]
        return oracle_combination(vectors, attempt_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "random_combination", combination)
        mp.setattr(_oracles, "oracle_combination", fraction_combination)
        _assert_matches_oracles(_system(C, M), seed)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(small_systems())
@example((*REFUTED, 0, 0))
@example((*RANK_ONE, 0, 0))
@example((*UNCERTIFIED, 0, 0))
@example(([[1, -1, 0], [0, 1, -1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, 0))
def test_nondegeneracy_matches_oracles(case):
    _assert_unlucky_matches_oracles(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_systems())
# the circuits have denominator 2, the first falls short, and the first
# nonzero minor is the second column: M's first row is zero
@example(([[2, -1, -1]], [[0, 0, 0], [1, 1, 0]], 0, 11))
def test_witness_from_the_first_nonzero_minor_matches_oracle(case):
    """All eleven attempts take the first circuit, so every system whose
    first circuit falls short of full rank but has a nonzero minor draws
    its witness from that minor's columns, over the circuits' common
    denominator."""
    C, M, seed, _ = case
    _assert_unlucky_matches_oracles(C, M, seed, 11)


def _reached_systems(monkeypatch, analyses):
    """Every (system, seed) that the nondegeneracy tests see while the
    analyses run, deferred report fields included."""
    seen = {}

    def recording(fn):
        def record(sys_, *args):
            seen.setdefault((id(sys_), args), (sys_, args[0] if args else 0))
            return fn(sys_, *args)
        return record
    monkeypatch.setattr(core, "nondegeneracy", recording(nondegeneracy))
    for module in (core, crn):
        monkeypatch.setattr(module, "nondegeneracy_all_positive",
                            recording(nondegeneracy_all_positive))
    for run in analyses:
        result = run()
        for report in (getattr(result, "report", result), getattr(result, "reduced_report", None)):
            if report is not None:
                report.nondegenerate  # runs a deferred all-positive test
    monkeypatch.undo()
    return list(seen.values())


def _network_runs(texts):
    return [lambda t=t: crn.analyze_network(parse_network(t), GroupMode.POSITIVE, 0)
            for t in texts]


def _corpus_runs():
    runs = []
    for path in sorted(MODELS.iterdir()):
        model = read_model(path)
        if model.kind == "network":
            runs += _network_runs([path.read_text()])
        else:
            runs.append(lambda model=model: analyze(model.system, model.mode, 0))
    return runs


def _generators():
    spec = importlib.util.spec_from_file_location("bench_generators",
                                                  ROOT / "bench" / "generators.py")
    generators = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generators)
    return generators


@pytest.mark.parametrize("name", ["corpus", "families", "screen"])
def test_reached_systems_match_oracles(monkeypatch, name):
    """Replays every system that analysing the corpus, multisite 1-6 and
    cascade 1-5, or the 120 screen networks hands to either test."""
    generators = _generators()
    if name == "corpus":
        runs = _corpus_runs()
    elif name == "families":
        runs = _network_runs([generators.multisite(k) for k in range(1, 7)]
                             + [generators.cascade(k) for k in range(1, 6)])
    else:
        runs = _network_runs(generators.screen(20241122, 120))
    reached = _reached_systems(monkeypatch, runs)
    assert reached
    for sys_, seed in reached:
        _assert_matches_oracles(sys_, seed)


def test_sweep_budget_gives_named_inconclusive(monkeypatch):
    """Past the term budget the sweep makes nondegeneracy undetermined and
    all-positive nondegeneracy unknown with the budget named; neither
    raises.  RANK_ONE's stacked rank settles its nondegeneracy before any
    sweep, so a budget of 1 leaves that "no" as it is."""
    sys_ = _system(*UNCERTIFIED)
    rank_one = _system(*RANK_ONE)
    assert nondegeneracy(sys_).status == "no"
    assert nondegeneracy_all_positive(rank_one).reason == "no sign-definite minor"
    monkeypatch.setattr(polyring, "_DET_TERM_BUDGET", 1)
    assert nondegeneracy(sys_) == core.NondegeneracyResult("undetermined")
    assert nondegeneracy(rank_one) == core.NondegeneracyResult("no")
    result = nondegeneracy_all_positive(rank_one)
    assert result.status == "unknown"
    assert result.reason == "symbolic determinant exceeds its budget of 1 terms"


def _counting_sweeps(monkeypatch):
    """Calls of ``minor_sweep`` made by ``nondegeneracy``, counted as they
    happen."""
    calls = []

    def counting(*args):
        if sys._getframe(1).f_code.co_name == "nondegeneracy":
            calls.append(args)
        return minor_sweep(*args)
    monkeypatch.setattr(core, "minor_sweep", counting)
    return calls


@pytest.mark.parametrize("system, certificate", [(REFUTED, "term rank"),
                                                  (RANK_ONE, "stacked rank")])
def test_certificates_refute_without_a_sweep(monkeypatch, system, certificate):
    """REFUTED's one Jacobian entry is zero on the kernel, so its term rank
    is 0; every entry of RANK_ONE's pencil is nonzero, so its term rank is
    2, but its stacked Jacobians have rank 1."""
    sys_ = _system(*system)
    rows, _ = core._jacobian_pencil(sys_, sys_.circuits.vectors)
    pattern = [[k for k, entry in enumerate(row) if any(entry)] for row in rows]
    assert (core._term_rank(pattern) < sys_.s) == (certificate == "term rank")
    assert core._pencil_rank_deficient(rows, sys_.n)
    sweeps = _counting_sweeps(monkeypatch)
    assert nondegeneracy(sys_).status == "no"
    assert sweeps == []


def test_uncertified_degenerate_system_still_sweeps(monkeypatch):
    """Neither certificate decides UNCERTIFIED: its pencil matches all three
    rows and its stacked Jacobians have rank 3, yet every 3 x 3 minor is
    zero, which the one sweep finds."""
    sys_ = _system(*UNCERTIFIED)
    rows, _ = core._jacobian_pencil(sys_, sys_.circuits.vectors)
    assert not core._pencil_rank_deficient(rows, sys_.n)
    sweeps = _counting_sweeps(monkeypatch)
    assert nondegeneracy(sys_) == oracle_nondegeneracy(sys_, 0) == core.NondegeneracyResult("no")
    assert len(sweeps) == 1


def test_screen_degenerate_systems_need_no_sweep(monkeypatch):
    """On the 117 networks of a screen pass, analysed with the benchmark's
    seeds, nondegeneracy answers 102 systems "yes" and 16 "no", and the
    certificates settle all 16 before any sweep."""
    sweeps = _counting_sweeps(monkeypatch)
    statuses = []

    def recording(sys_, seed=0):
        result = nondegeneracy(sys_, seed)
        statuses.append(result.status)
        return result
    monkeypatch.setattr(core, "nondegeneracy", recording)
    _screen_pass()
    assert Counter(statuses) == {"yes": 102, "no": 16}
    assert sweeps == []


def test_nondegeneracy_past_the_size_limit_is_undetermined():
    """s = 13 > DET_SIZE_LIMIT, one column subset, and a zero row of M that
    keeps every Jacobian below full rank."""
    n = 13
    C = [[int(j == i) for j in range(n)] + [-1] for i in range(n)]
    M = [[0] * (n + 1)] + [[int(j == k) for j in range(n + 1)] for k in range(1, n)]
    assert nondegeneracy(_system(C, M)).status == "undetermined"


def test_degenerate_system_tries_one_random_vector(monkeypatch):
    calls = []
    combination = core.random_combination
    monkeypatch.setattr(core, "random_combination",
                        lambda *args: calls.append(args) or combination(*args))
    assert nondegeneracy(_system(*REFUTED), seed=0).status == "no"
    assert len(calls) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda s: st.tuples(
    st.lists(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                      min_size=s + 2, max_size=s + 2), min_size=s, max_size=s),
    st.lists(st.integers(1, 4), min_size=s, max_size=s))))
def test_minor_sweep_matches_det_symbolic(case):
    """Each minor of the sweep, in combinations order, equals det_symbolic
    of the same columns; zero minors and odd row orders included."""
    rows, scales = case
    variables = ("a", "b")
    polys = [[SparsePolynomial(variables, {(1, 0): Fraction(c[0], scale),
                                           (0, 1): Fraction(c[1], scale)})
              for c in row] for row, scale in zip(rows, scales)]
    swept = list(minor_sweep(rows, scales, variables))
    n, s = len(rows[0]), len(rows)
    assert [cols for cols, _ in swept] == list(combinations(range(n), s))
    for cols, det in swept:
        assert det == det_symbolic([[row[j] for j in cols] for row in polys])


def test_minor_sweep_of_no_rows_is_the_empty_minor():
    """Like ``det_stacked`` of no top rows, a sweep of no rows yields the
    one 0 x 0 minor, 1."""
    assert det_stacked([], [], (), IntegerMatrix([], 0)).terms == {(): 1}
    assert [(cols, det.terms) for cols, det in minor_sweep([], [], ())] == [((), {(): 1})]


def test_minor_sweep_budget_bounds_the_terms_it_holds(monkeypatch):
    """The budget counts the memo and the minor being yielded, not the
    minors already yielded: one row of 2-term entries fits a budget of 2."""
    rows = [[(1, k) for k in range(1, 6)]]
    monkeypatch.setattr(polyring, "_DET_TERM_BUDGET", 2)
    assert len(list(minor_sweep(rows, [1], ("a", "b")))) == 5
    monkeypatch.setattr(polyring, "_DET_TERM_BUDGET", 1)
    with pytest.raises(DeterminantSizeError, match="budget of 1 terms"):
        next(minor_sweep(rows, [1], ("a", "b")))


def test_minor_sweep_refuses_past_the_size_limit_at_the_first_minor():
    rows = [[(1,)] * 13 for _ in range(13)]
    sweep = minor_sweep(rows, [1] * 13, ("a",))
    with pytest.raises(DeterminantSizeError, match="limited to 12x12"):
        next(sweep)


# -- a toric injectivity certifies all-positive nondegeneracy ---------------


def _toric_injectivity_settles_all_positive(sys_, seed=0) -> str | None:
    """Analyses ``sys_`` counting the all-positive sweep and the extreme
    rays.  When the binomial certificate settles it, or its injectivity is
    toric, the report reads the all-positive stage off that certificate
    with neither, whatever C(n, s) is; the independent oracles agree:
    C diag(w) M^T has rank s at strictly positive rational combinations w of
    the Fraction extreme rays, and the minor sweep over Fractions never
    refutes.  Returns that sweep's status, or None with neither
    certificate."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("nondegeneracy_all_positive", "extreme_rays"):
            def counting(*args, _name=name, _stage=getattr(core, name)):
                calls[_name] += 1
                return _stage(*args)
            mp.setattr(core, name, counting)
        rep = analyze(sys_, GroupMode.POSITIVE, seed)
    stages = {e.test: e.outcome for e in rep.evidence}
    if "binomial_certificate" in stages:
        assert rep.binomial and "injectivity" not in stages
        assert (stages["binomial_certificate"], rep.verdict) == ("toric", Verdict.TORIC)
    elif rep.injectivity is None or not rep.injectivity.toric:
        return None
    else:
        assert stages["all_positive_nondegeneracy"] == "yes"
    assert not calls
    assert rep.nondegenerate == "yes-for-all-positive"
    rays = oracle_extreme_rays(sys_.C)
    lam = tuple(f"l{k+1}" for k in range(len(rays)))
    jacobian = oracle_scaled_jacobian(sys_, rays, lam)
    rng = random.Random(seed)
    for _ in range(4):
        point = {name: Fraction(rng.randint(1, 1 << 8), rng.randint(1, 1 << 8)) for name in lam}
        w = [sum(point[name] * ray[j] for name, ray in zip(lam, rays)) for j in range(sys_.m)]
        assert all(x > 0 for x in w)  # the rays' supports cover every column
        values = [[_oracles.evaluate(entry, point) for entry in row] for row in jacobian]
        assert len(_oracles.oracle_rref(values, sys_.n)[1]) == sys_.s
    status = oracle_all_positive(sys_).status
    assert status != "no"
    return status


@settings(max_examples=600, deadline=None, derandomize=True)
@given(small_systems())
@example(([[1, -1, 0], [0, 1, -1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1, 0))
def test_toric_injectivity_certifies_all_positive(case):
    """On the small systems of the oracle tests above."""
    C, M, seed, _ = case
    _toric_injectivity_settles_all_positive(_system(C, M), seed)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, (1 << 32) - 1))
def test_toric_injectivity_certifies_all_positive_on_networks(seed):
    """The fuzz networks of ``test_crn``, direct and reduced systems alike."""
    net = parse_network(_random_network_text(random.Random(seed)))
    systems = []
    with contextlib.suppress(ZeroDynamicsError):
        systems.append(crn.steady_state_system(net))
    reduced = crn._reduced_system(net)
    if reduced is not None:
        systems.append(reduced[1])
    for sys_ in systems:
        _toric_injectivity_settles_all_positive(sys_, seed & 0xFF)
