"""Scaling of measured times to a reference host speed.

The hosts this benchmark runs on are shared: the speed of one core drifts by
up to a factor of two within a minute, as other tenants come and go.  A run
therefore times a fixed pure-Python kernel, which tauvi's code cannot touch,
before its first operation and then between operations at least every
``EVERY_S`` seconds.  Every operation's time is multiplied by
``REFERENCE_S / k``, where k is the mean of the kernel times taken just
before and just after it.  The result is the time the operation would have
taken on a host where the kernel takes ``REFERENCE_S``: a change to tauvi
still moves it in full, and a drift of the host's speed moves it much less.
On a two-core shared host, over 150 s of back-to-back oracle-sweep rounds,
scaling cut the coefficient of variation of the round time from 0.11 to
0.056.  Set-up is not scaled: imports track this kernel poorly.

The kernel mixes what tauvi's own inner loops do: tuple exponent sums and
dictionary accumulation of big integers, and ``Fraction`` arithmetic.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time measured on the reference host (2 cores, Python 3.11).
REFERENCE_S = 0.006
EVERY_S = 0.25
REPEATS = 5


def kernel() -> int:
    acc: dict = {}
    for i in range(2000):
        exp = tuple(x + y for x, y in zip((i & 7, 1, i & 3), (3, i & 15, 5)))
        acc[exp] = acc.get(exp, 0) + i * 12345678901234567
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return len(acc) + f.denominator % 7


def measure() -> float:
    """Median time of ``REPEATS`` runs of the kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, rescaled."""
    return seconds * REFERENCE_S / kernel_s
