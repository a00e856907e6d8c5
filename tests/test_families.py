"""Literature verdicts on two generated families of reaction networks.

Every k-site distributive phosphorylation network and every k-layer cascade
of one-site cycles has toric steady states (Perez Millan, Dickenstein, Shiu,
Conradi 2012).  The k-site network is multistationary if and only if k >= 2
(Wang & Sontag 2008); a cascade with its own phosphatase in every layer is
monostationary (Feliu & Wiuf 2012).
"""

import pytest

from toricity import GroupMode, Verdict, analyze_network, parse_network


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


@pytest.mark.parametrize("k", range(1, 5))
def test_cascade(k):
    analysis = analyze_network(parse_network(cascade(k)), GroupMode.POSITIVE, 0)
    assert analysis.verdict == Verdict.TORIC
    assert analysis.multistationarity.status == "monostationary"
