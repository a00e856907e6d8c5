"""Seeded generators for the benchmark's reaction networks.

Every generator is a pure function of its arguments and returns network
text in the library's reaction grammar, so the library under test sees
only the text, never the seed.
"""

from __future__ import annotations

import random


def multisite(k: int) -> str:
    """k-site sequential distributive phosphorylation.

    Kinase E and phosphatase F act on S0..Sk through the enzyme complexes
    ES0..ES(k-1) and FS1..FSk: 3k + 3 species and 6k reactions.
    """
    lines = []
    for i in range(k):
        lines.append(f"S{i} + E <=> ES{i} -> S{i + 1} + E")
        lines.append(f"S{i + 1} + F <=> FS{i + 1} -> S{i} + F")
    return "\n".join(lines) + "\n"


def cascade(k: int) -> str:
    """k-layer cascade of one-site phosphorylation cycles.

    E phosphorylates S1; the phosphorylated Sjp phosphorylates S(j+1); each
    layer has its own phosphatase Fj, so no enzyme is shared: 5k + 1 species
    and 6k reactions.
    """
    lines = []
    kinase = "E"
    for j in range(1, k + 1):
        lines.append(f"S{j} + {kinase} <=> C{j} -> S{j}p + {kinase}")
        lines.append(f"S{j}p + F{j} <=> D{j} -> S{j} + F{j}")
        kinase = f"S{j}p"
    return "\n".join(lines) + "\n"


MOTIFS = ("futile", "binding", "conversion", "flow", "autocatalysis")


def _motif(rng: random.Random, kind: str, base: list[str], tag: int) -> list[str]:
    if kind == "futile":
        x, y, e, f = rng.sample(base, 4) if len(base) >= 4 else rng.sample(base, 3) + [None]
        f = f or e
        return [f"{x} + {e} <=> I{tag}a -> {y} + {e}",
                f"{y} + {f} <=> I{tag}b -> {x} + {f}"]
    if kind == "binding":
        x, y, z = rng.sample(base, 3)
        return [f"{x} + {y} <=> {z}"]
    if kind == "conversion":
        x, y = rng.sample(base, 2)
        return [f"{x} <=> {y}" if rng.random() < 0.5 else f"{x} -> {y}"]
    if kind == "flow":
        x = rng.choice(base)
        return [f"0 <=> {x}"]
    x, y = rng.sample(base, 2)
    return [f"{x} + {y} -> 2 {y}", f"{y} -> {x}"]


def screen_network(rng: random.Random, tag: int) -> str:
    """One random network: 3-6 base species and 2-4 motifs."""
    base = [f"X{i + 1}" for i in range(rng.randint(3, 6))]
    lines = []
    for motif in range(rng.randint(2, 4)):
        lines.extend(_motif(rng, rng.choice(MOTIFS), base, motif + 1))
    return f"# screen model {tag}\n" + "\n".join(lines) + "\n"


def screen(seed: int, count: int) -> list[str]:
    """The first ``count`` networks of the screen stream for ``seed``."""
    rng = random.Random(seed)
    return [screen_network(rng, i) for i in range(count)]

