"""Correctness oracles for the benchmark workloads.

Each oracle returns ``None`` when the library's answer is consistent with
what is known, or a one-line reason when it is not.  The arithmetic here is
the benchmark's own (``fractions.Fraction`` over the network's reactions),
so a certificate is never checked by the code that produced it.
"""

from __future__ import annotations

from fractions import Fraction

# Golden corpus verdicts, as pinned by tests/test_cli.py::GOLDEN_VERDICTS.
CORPUS_VERDICTS = {
    "homogeneous_surface.json": "not_locally_toric",
    "idh.crn": "toric",
    "reciprocal_regulation.crn": "toric",
    "shinar_feinberg.crn": "toric",
    "sparse_pair.json": "locally_toric",
    "sparse_pair_free.json": "not_locally_toric",
    "square_cycle.crn": "generically_locally_toric",
    "triangle_cycle.crn": "toric",
}

# Absolute concentration robustness known for two corpus networks.
CORPUS_ACR = {"idh.crn": "X4", "shinar_feinberg.crn": "X7"}


def check_corpus_row(name: str, row: dict) -> str | None:
    """Golden verdict and known ACR species for one batch row."""
    expected = CORPUS_VERDICTS[name]
    if row["verdict"] != expected:
        return f"verdict {row['verdict']}, expected {expected}"
    species = CORPUS_ACR.get(name)
    if species is not None and species not in (row["acr"] or ()):
        return f"ACR species {species} missing from {row['acr']}"
    return None


def family_expectation(family: str, k: int) -> str:
    """Multistationarity status known from the literature.

    Every instance is toric (Perez Millan, Dickenstein, Shiu, Conradi 2012).
    k-site distributive phosphorylation is multistationary iff k >= 2 (Wang
    & Sontag 2008); cascades with a distinct phosphatase per layer are
    monostationary (Feliu & Wiuf 2012).
    """
    if family == "multisite" and k >= 2:
        return "multistationary"
    return "monostationary"


def check_family(family: str, k: int, analysis) -> str | None:
    verdict = analysis.verdict.value if analysis.verdict else None
    if verdict != "toric":
        return f"verdict {verdict}, expected toric"
    expected = family_expectation(family, k)
    status = analysis.multistationarity.status if analysis.multistationarity else None
    if status != expected:
        return f"multistationarity {status}, expected {expected}"
    return None


def _network_matrices(net):
    """Stoichiometric columns and source complexes, one per reaction."""
    columns = []
    sources = []
    for src, tgt, _ in net.reactions:
        columns.append([t - s for s, t in zip(net.complexes[src], net.complexes[tgt])])
        sources.append(net.complexes[src])
    return columns, sources


def _in_kernel(columns, v) -> bool:
    n = len(columns[0]) if columns else 0
    return all(sum(col[i] * vj for col, vj in zip(columns, v)) == 0 for i in range(n))


def check_certificate(net, witness, rows) -> str | None:
    """Positive kernel witness and invariance rows of a network analysis.

    ``witness`` must be a strictly positive vector with N v = 0.  Each
    invariance row a must keep it a steady state after scaling x by 2^a,
    i.e. N (2^{a . y_j} v_j)_j = 0 with y_j the source complex of
    reaction j.  N replaces the library's row basis C: both have the same
    kernel.
    """
    columns, sources = _network_matrices(net)
    v = [Fraction(x) for x in witness]
    if len(v) != len(columns):
        return f"witness has {len(v)} entries for {len(columns)} reactions"
    if any(x <= 0 for x in v):
        return "witness is not strictly positive"
    if not _in_kernel(columns, v):
        return "witness is not in the kernel"
    for a in rows:
        scaled = [vj * Fraction(2) ** sum(ai * yi for ai, yi in zip(a, y))
                  for vj, y in zip(v, sources)]
        if not _in_kernel(columns, scaled):
            return f"invariance row {list(a)} does not preserve the kernel witness"
    return None


def inconclusive(verdict: str | None, multistationarity: str | None) -> bool:
    return verdict == "invariant_only" or multistationarity == "inconclusive"
