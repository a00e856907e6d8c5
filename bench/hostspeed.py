"""Host speed probe for a shared machine.

Other tenants of a shared host slow every Python process on it by up to 2x,
in phases that last from seconds to minutes.  The probe times a fixed
piece of exact arithmetic, in the same interpreter and right next to each
model, so a model's time can be scaled to what it would be on a quiet host:

    scaled = elapsed * NOMINAL_S / probe

On a 2-core Xeon VM at 2.0 GHz, scaling each screen model by the mean of
the probes before and after it cut the spread (quartile distance over
median) of per-pass totals from 0.23 to 0.06, and of per-pass medians
from 0.26 to 0.05.
"""

from __future__ import annotations

import time
from fractions import Fraction

# probe time on a quiet host: the 1st percentile of 3,276 probes on the
# machine above was 444 us, the median 562 us
NOMINAL_S = 450e-6

_SIZE = 7
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(_SIZE)]
           for i in range(_SIZE)]


def _determinant() -> Fraction:
    """Gaussian elimination over Fraction, the library's kind of work."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(_SIZE):
        pivot = next((r for r in range(c, _SIZE) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        a[c], a[pivot] = a[pivot], a[c]
        det *= a[c][c]
        for r in range(c + 1, _SIZE):
            f = a[r][c] / a[c][c]
            for k in range(c, _SIZE):
                a[r][k] -= f * a[c][k]
    return det


def probe() -> float:
    """Fastest of three timed runs of the reference, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _determinant()
        best = min(best, time.perf_counter() - start)
    return best
