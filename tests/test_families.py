"""Literature verdicts on two generated families of reaction networks.

Every k-site distributive phosphorylation network and every k-layer cascade
of one-site cycles has toric steady states (Perez Millan, Dickenstein, Shiu,
Conradi 2012).  The k-site network is multistationary if and only if k >= 2
(Wang & Sontag 2008); a cascade with its own phosphatase in every layer is
monostationary (Feliu & Wiuf 2012).
"""

from pathlib import Path

import pytest

from toricity import GroupMode, Verdict, analyze_network, cli, core, crn, parse_network, polyring
from toricity.crn import multistationarity_test
from toricity.polyring import SparsePolynomial, det_stacked, det_symbolic, term_count

from _oracles import RingPolynomial, oracle_multistationarity, polynomial_rows
from test_bench_contract import _load_bench

MODELS = Path(cli.__file__).resolve().parent / "data" / "models"


def multisite(k: int) -> str:
    """Kinase E and phosphatase F on S0..Sk: 3k + 3 species, 6k reactions."""
    lines = []
    for i in range(k):
        lines.append(f"S{i} + E <=> ES{i} -> S{i + 1} + E")
        lines.append(f"S{i + 1} + F <=> FS{i + 1} -> S{i} + F")
    return "\n".join(lines) + "\n"


def cascade(k: int) -> str:
    """E phosphorylates S1, each S(j)p phosphorylates S(j+1), layer j has
    phosphatase Fj: 5k + 1 species, 6k reactions."""
    lines = []
    kinase = "E"
    for j in range(1, k + 1):
        lines.append(f"S{j} + {kinase} <=> C{j} -> S{j}p + {kinase}")
        lines.append(f"S{j}p + F{j} <=> D{j} -> S{j} + F{j}")
        kinase = f"S{j}p"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", range(1, 6))
def test_multisite_phosphorylation(k):
    analysis = analyze_network(parse_network(multisite(k)), GroupMode.POSITIVE, 0)
    assert analysis.verdict == Verdict.TORIC
    expected = "multistationary" if k >= 2 else "monostationary"
    assert analysis.multistationarity.status == expected


@pytest.mark.parametrize("k", range(1, 6))
def test_cascade(k):
    analysis = analyze_network(parse_network(cascade(k)), GroupMode.POSITIVE, 0)
    assert analysis.verdict == Verdict.TORIC
    assert analysis.multistationarity.status == "monostationary"


@pytest.mark.parametrize("k", [6, 7])
def test_cascade_past_the_injectivity_enrichment_cap(k):
    """The reduced cascade's injectivity determinant decides the verdict and
    is bounded by the term budget alone; the direct system's determinant is
    report-only and stays behind its enrichment cap."""
    analysis = analyze_network(parse_network(cascade(k)), GroupMode.POSITIVE, 0)
    assert analysis.verdict == Verdict.TORIC
    assert analysis.multistationarity.status == "monostationary"
    assert analysis.reduced_report.injectivity.toric
    assert analysis.report.injectivity.reason == "determinant too large"


@pytest.mark.parametrize("text", [multisite(1), multisite(2), multisite(3), cascade(1), cascade(2)],
                         ids=["multisite_1", "multisite_2", "multisite_3", "cascade_1", "cascade_2"])
def test_det_stacked_replays_as_det_symbolic(monkeypatch, text):
    """Every stacked determinant the analysis takes, injectivity's, condition
    (ii)'s and the multistationarity test's, equals the plain symbolic
    determinant of the whole stacked matrix rebuilt from its integer rows."""
    calls = []
    for module in (core, crn):
        def recording(rows, scales, variables, bottom, _caller=module.__name__):
            calls.append((_caller, rows, scales, variables, bottom))
            return det_stacked(rows, scales, variables, bottom)
        monkeypatch.setattr(module, "det_stacked", recording)
    analysis = analyze_network(parse_network(text), GroupMode.POSITIVE, 0)
    core._augmented_all_positive(analysis.system, analysis.report.invariance)
    assert {caller for caller, *_ in calls} == {"toricity.core", "toricity.crn"}
    for _, rows, scales, variables, bottom in calls:
        full = polynomial_rows(rows, scales, variables)
        full += [[RingPolynomial.constant(variables, x) for x in bottom.row(i)]
                 for i in range(bottom.rows)]
        assert len(full) <= 12
        assert det_stacked(rows, scales, variables, bottom) == det_symbolic(full)


def test_det_term_budget_gives_named_inconclusive(monkeypatch):
    """A stacked determinant past its term budget costs only the results
    that need it: multistationarity is inconclusive with the budget named,
    condition (ii) is unknown, and the network still gets a verdict.  The
    full one-site system is not binomial, so its toric verdict rests on the
    injectivity determinant (a binomial reduced system would settle it by
    the binomial certificate, with no expansion)."""
    net = parse_network(multisite(1))
    full = analyze_network(net, GroupMode.POSITIVE, 0, reduce=False)
    assert full.report.binomial is False and full.verdict == Verdict.TORIC
    assert core._augmented_all_positive(full.system, full.report.invariance) == "yes"
    monkeypatch.setattr(polyring, "_DET_TERM_BUDGET", 10)
    analysis = analyze_network(net, GroupMode.POSITIVE, 0, reduce=False)
    assert analysis.multistationarity.status == "inconclusive"
    assert analysis.multistationarity.reason == (
        "symbolic determinant exceeds its budget of 10 terms")
    assert core._augmented_all_positive(analysis.system, analysis.report.invariance) == "unknown"
    # toric needs the injectivity determinant; local toricity does not
    assert analysis.verdict == Verdict.LOCALLY_TORIC


def test_analysis_decodes_no_determinant(monkeypatch):
    """The verdicts read each determinant's signs in packed form: analysing
    multisite 1-4, cascade 1-3 and the triangle cycle decodes no
    determinant, not even the minors of the nondegeneracy sweeps, and the
    reports are those of an analysis that decodes every determinant as it
    is taken.  The triangle cycle is toric by a mixed volume of 1 with an
    inconclusive injectivity, so its all-positive sweep runs."""
    nets = [parse_network(multisite(k)) for k in range(1, 5)]
    nets += [parse_network(cascade(k)) for k in range(1, 4)]
    nets.append(parse_network((MODELS / "triangle_cycle.crn").read_text()))
    decoded = []
    unpack = polyring._unpack
    monkeypatch.setattr(polyring, "_unpack", lambda *args: decoded.append(args) or unpack(*args))
    packed = [analyze_network(net, GroupMode.POSITIVE, 0) for net in nets]
    assert decoded == []
    # text output prints a determinant of at most 24 terms and counts the rest packed
    large = [a.report for a in packed if term_count(a.report.injectivity.determinant) > 24]
    assert len(large) >= 2
    for report in large:
        assert "determinant =" not in cli.render_report(report)
    assert decoded == []
    for module in (core, crn):
        def decoding(*args, _det=module.det_stacked):
            det = _det(*args)
            return SparsePolynomial(det.variables, det.terms)
        monkeypatch.setattr(module, "det_stacked", decoding)
    swept = []

    def decoding_sweep(*args):
        for cols, det in polyring.minor_sweep(*args):
            swept.append(cols)
            yield cols, SparsePolynomial(det.variables, det.terms)
    monkeypatch.setattr(core, "minor_sweep", decoding_sweep)
    eager = [analyze_network(net, GroupMode.POSITIVE, 0) for net in nets]
    assert decoded and swept
    for a, b in zip(packed, eager):
        assert a.report.to_dict() == b.report.to_dict()
        # the triangle cycle has no intermediates, hence no reduced report
        assert (a.reduced_report and a.reduced_report.to_dict()) \
            == (b.reduced_report and b.reduced_report.to_dict())
        assert a.multistationarity == b.multistationarity


def test_multistationarity_matches_stacked_oracle(monkeypatch):
    """Every multistationarity test the pipeline runs gives the result of the
    n x n stacked determinant: on multisite 1-8, cascade 1-6, the bundled
    corpus through the batch rows, and the 117 ``screen`` networks of the
    benchmark (its population of 120 from seed 20241122, less the three it
    leaves out for their 40 s mixed volumes)."""
    pairs = []

    def both(sys_, inv, laws, toric=False):
        result = multistationarity_test(sys_, inv, laws, toric)
        pairs.append((result, oracle_multistationarity(sys_, inv, laws, toric)))
        return result
    for module in (crn, cli):
        monkeypatch.setattr(module, "multistationarity_test", both)
    texts = [multisite(k) for k in range(1, 9)] + [cascade(k) for k in range(1, 7)]
    texts += [text for index, text in enumerate(_load_bench("generators").screen(20241122, 120))
              if index not in (6, 21, 78)]
    for text in texts:
        analyze_network(parse_network(text), GroupMode.POSITIVE, 0)
    for path in sorted(MODELS.iterdir()):
        cli._model_row(path, 0)
    assert len(pairs) > 100
    statuses = {result.status for result, _ in pairs}
    assert statuses == {"multistationary", "monostationary", "inconclusive"}
    for result, expected in pairs:
        assert result == expected
