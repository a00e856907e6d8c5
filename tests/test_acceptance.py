"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is exact; the time budgets are wall-clock upper
bounds for the whole criterion.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from toricity.cli import main as cli_main
from toricity.core import (
    GroupMode,
    Verdict,
    VerticalSystem,
    analyze,
    coset_counting_system,
    count_positive_cosets,
    injectivity_test,
    invariance_group,
    matroid_partition,
    positive_locus_nonempty,
    quasihomogeneity_weights,
)
from toricity.crn import (
    analyze_network,
    find_intermediates,
    parse_network,
    steady_state_system,
)
from toricity.exactalg import IntegerMatrix, RationalMatrix
from toricity.fileio import read_model
from toricity.polyhedra import SupportSet, mixed_volume
from toricity.polyring import SparsePolynomial, count_distinct_roots, det_symbolic

from _oracles import (
    evaluate,
    mul_vector,
    oracle_det,
    oracle_minkowski,
    oracle_positive_roots,
    oracle_rref,
    oracle_shoelace,
    same_row_lattice,
)

MODELS = Path(__file__).resolve().parents[1] / "src" / "toricity" / "data" / "models"


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number} ({description}): PASS in {elapsed:.2f}s")


IDH_A = IntegerMatrix([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1]])


def _idh_expected_determinant():
    mu = tuple(f"mu{j}" for j in range(1, 7))
    al = tuple(f"al{k}" for k in range(1, 6))
    vs = mu + al

    def term(mus, als):
        e = [0] * 11
        for j in mus:
            e[j - 1] = 1
        for i in als:
            e[5 + i] = 1
        return tuple(e)

    return SparsePolynomial(vs, {
        term((1, 3, 4), (1, 3, 4)): -1,
        term((1, 4, 6), (1, 4, 5)): -1,
        term((1, 3, 4), (2, 3, 4)): -1,
        term((1, 4, 6), (2, 4, 5)): -1,
        term((2, 4, 6), (3, 4, 5)): -1,
        term((3, 4, 6), (3, 4, 5)): -1,
    })


def test_criterion_1_idh_end_to_end(capsys):
    with criterion(1, "IDH end-to-end from the network file", 5.0):
        net = parse_network((MODELS / "idh.crn").read_text())
        result = analyze_network(net, seed=0)
        assert result.verdict == Verdict.TORIC
        assert same_row_lattice(result.direct_A, IDH_A)
        assert same_row_lattice(result.lifted_A, IDH_A)
        assert result.report.nondegenerate == "yes-for-all-positive"
        inj = result.report.injectivity
        assert inj is not None and inj.toric
        expected = _idh_expected_determinant()
        assert inj.determinant == expected or inj.determinant == -expected
        assert sorted(k for k, v in result.acr.items() if v == "acr") == ["X4"]
        assert result.multistationarity.status == "monostationary"
        # and the command-line tool reports the same facts
        code = cli_main(["network", str(MODELS / "idh.crn"), "--acr",
                         "--multistationarity", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "toric"
        assert payload["acr"]["X4"] == "acr"
        assert payload["multistationarity"]["status"] == "monostationary"


def test_criterion_2_sparse_pair_systems():
    with criterion(2, "shared-support pair: invariance vs free coefficients", 1.0):
        first = read_model(MODELS / "sparse_pair.json").system
        inv = invariance_group(first)
        assert inv.d == 1
        assert same_row_lattice(inv.A, IntegerMatrix([[10, 15, 2]]))
        assert quasihomogeneity_weights(first).rows == 0
        second = read_model(MODELS / "sparse_pair_free.json").system
        assert invariance_group(second).d == 0


def test_criterion_3_homogeneous_surface():
    with criterion(3, "homogeneous surface: invariant but not locally toric", 1.0):
        sys_ = read_model(MODELS / "homogeneous_surface.json").system
        rep = analyze(sys_, seed=0)
        assert same_row_lattice(rep.invariance.A, IntegerMatrix([[1, 1, 1]]))
        assert rep.nondegenerate == "yes"
        assert sys_.s + rep.d == 2 < sys_.n
        assert rep.verdict == Verdict.NOT_LOCALLY_TORIC


def test_criterion_4_square_cycle_counts():
    with criterion(4, "square cycle: exact slice counts 3 and 1", 2.0):
        net = parse_network((MODELS / "square_cycle.crn").read_text())
        sys_ = steady_state_system(net)
        inv = invariance_group(sys_)
        assert not injectivity_test(sys_, inv).toric
        kappa_three = (Fraction(1, 100), 3, 1, 1)
        kappa_one = (Fraction(1, 100), 1, 1, 1)
        counts = set()
        for seed in (11, 22, 33):  # three random slice offsets b = A p
            ccs = coset_counting_system(sys_, inv, kappa_three, seed=seed)
            res = count_positive_cosets(ccs)
            assert res.kind == "exact"
            counts.add(res.count)
        assert counts == {3}
        res = count_positive_cosets(coset_counting_system(sys_, inv, kappa_one, seed=11))
        assert (res.kind, res.count) == ("exact", 1)


def test_criterion_5_triangle_constant_count():
    with criterion(5, "triangle: bound 6, constant-count conditions, count 1", 5.0):
        net = parse_network((MODELS / "triangle_cycle.crn").read_text())
        result = analyze_network(net, seed=0)
        rep = result.report
        assert rep.mixed_volume_bound == 6
        assert rep.conditions is not None
        assert rep.conditions.boundary_empty == "yes"
        assert rep.conditions.rank_all_positive == "yes"
        assert rep.conditions.row_space_positive is True
        assert rep.coset_count == 1 and rep.count.kind == "exact"
        assert result.verdict == Verdict.TORIC
        assert rep.parameter_region_full  # all positive parameters admit zeros


def test_criterion_6_shinar_feinberg_reduction():
    with criterion(6, "three-intermediate reduction: lifted lattice and injectivity", 10.0):
        net = parse_network((MODELS / "shinar_feinberg.crn").read_text())
        choice = find_intermediates(net)
        assert len(choice) == 3
        result = analyze_network(net, seed=0)
        assert result.verdict == Verdict.TORIC
        assert result.verdict_source == "reduced"
        assert result.reduced_report.injectivity.toric
        assert same_row_lattice(result.lifted_A, IntegerMatrix([
            [1, 1, 1, 0, 1, 1, 0, 1, 1],
            [0, 0, 0, 1, -1, 0, 0, 0, 0],
        ]))
        direct = injectivity_test(result.system, invariance_group(result.system))
        assert not direct.toric


def test_criterion_7_reciprocal_regulation():
    with criterion(7, "reciprocal regulation: toric, no ACR, multistationary", 10.0):
        net = parse_network((MODELS / "reciprocal_regulation.crn").read_text())
        result = analyze_network(net, seed=0)
        assert result.verdict == Verdict.TORIC
        assert all(v == "no-acr" for v in result.acr.values())
        assert result.multistationarity.status == "multistationary"


def _brute_force_partition(c: RationalMatrix):
    cols = [c.col(j) for j in range(c.cols)]

    def dependent(idx):
        sub = [[cols[j][i] for j in idx] for i in range(c.rows)]
        return len(oracle_rref(sub, len(idx))[1]) < len(idx)

    circuits = []
    for size in range(1, c.cols + 1):
        for idx in combinations(range(c.cols), size):
            s = frozenset(idx)
            if any(cc < s for cc in circuits):
                continue
            if dependent(idx):
                circuits.append(s)
    parent = list(range(c.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in circuits:
        items = sorted(s)
        for a, b in zip(items, items[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for j in range(c.cols):
        groups.setdefault(find(j), set()).add(j)
    return set(frozenset(g) for g in groups.values())


def test_criterion_8_property_suites():
    with criterion(8, "property suites against independent oracles", 300.0):
        # (a) matroid partition vs brute-force circuit enumeration
        rng = random.Random(801)
        done = 0
        while done < 200:
            s = rng.randint(1, 3)
            m = rng.randint(max(2, s), 8)
            n = rng.randint(max(1, s), 5)
            try:
                sys_ = VerticalSystem(
                    RationalMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(s)]),
                    IntegerMatrix([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]),
                )
            except ValueError:
                continue
            part = matroid_partition(sys_)
            assert set(part.blocks) == _brute_force_partition(sys_.C)
            done += 1

        # (b) invariance rows annihilate exponent differences inside blocks
        rng = random.Random(802)
        done = 0
        while done < 200:
            s = rng.randint(1, 3)
            m = rng.randint(max(2, s), 7)
            n = rng.randint(max(1, s), 5)
            try:
                sys_ = VerticalSystem(
                    RationalMatrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(s)]),
                    IntegerMatrix([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]),
                )
            except ValueError:
                continue
            if not positive_locus_nonempty(sys_, GroupMode.COMPLEX_STAR):
                continue
            part = matroid_partition(sys_)
            inv = invariance_group(sys_, GroupMode.COMPLEX_STAR)
            for block in part.blocks:
                cols = sorted(block)
                for a, b in zip(cols, cols[1:]):
                    diff = [sys_.M.entry(k, a) - sys_.M.entry(k, b) for k in range(sys_.n)]
                    assert all(v == 0 for v in mul_vector(inv.A, diff))
            done += 1

        # (c) planar two-polytope mixed volume identity
        rng = random.Random(803)
        for _ in range(100):
            p = tuple((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(3, 6)))
            q = tuple((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(3, 6)))
            expect = oracle_shoelace(oracle_minkowski(p, q)) \
                - oracle_shoelace(p) - oracle_shoelace(q)
            assert mixed_volume([SupportSet(p), SupportSet(q)]) == expect

        # (d) positive-root counts vs interval-bisection oracle
        rng = random.Random(804)
        done = 0
        while done < 100:
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = rng.choice([-2, -1, 1, 2])
            assert count_distinct_roots(coeffs, 0) == oracle_positive_roots(coeffs)
            done += 1

        # (e) symbolic determinants vs numeric evaluation
        rng = random.Random(805)
        vs = ("x", "y", "z")
        for _ in range(50):
            size = rng.randint(1, 4)
            rows = []
            for _ in range(size):
                row = []
                for _ in range(size):
                    terms = {}
                    for _ in range(rng.randint(0, 2)):
                        e = tuple(rng.randint(0, 1) for _ in range(3))
                        terms[e] = rng.randint(-3, 3)
                    row.append(SparsePolynomial(vs, terms))
                rows.append(row)
            det = det_symbolic(rows)
            for _ in range(10):
                point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in vs}
                numeric = [[evaluate(rows[i][j], point) for j in range(size)]
                           for i in range(size)]
                assert evaluate(det, point) == oracle_det(numeric)


def test_criterion_9_batch_determinism(tmp_path, capsys):
    with criterion(9, "batch reports byte-identical across --jobs 1 and 8", 120.0):
        r1 = tmp_path / "jobs1.json"
        r8 = tmp_path / "jobs8.json"
        assert cli_main(["batch", str(MODELS), "--report", str(r1), "--jobs", "1"]) == 0
        assert cli_main(["batch", str(MODELS), "--report", str(r8), "--jobs", "8"]) == 0
        capsys.readouterr()
        assert r1.read_bytes() == r8.read_bytes()
        report = json.loads(r1.read_text())
        assert len(report["models"]) == 8
