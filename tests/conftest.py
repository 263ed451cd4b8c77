"""Shared fixtures: the worked 6x6 example family and golden expressions.

The running example throughout the suite is the scaling data
mu = (-4, -2, 0), nu = (-3, -2, -1), whose tau function reduces to a
cubic-over-t^3 rational function of t with coefficients

    D  = w33*(w22*w33 - w23*w32)
    D1 = w33*(w12*w23 - w13*w22)
    D2 = w23*(w13*w32 - w12*w33)

Golden rational functions below are written as coefficient tables in
(D1, D2, t) and expanded into the full weight-symbol ring on demand, so
exactness checks are plain polynomial identities (cross-multiplied --
no dependence on how RatFunc chooses to normalize).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from tauvi.exactalg import MultiPoly, PolyRing, RatFunc
from tauvi.taudet import WeightMatrix, normalize_params, tau_ring


@pytest.fixture(scope="session")
def params6():
    return normalize_params((-4, -2, 0), (-3, -2, -1))


@pytest.fixture(scope="session")
def wsym():
    return WeightMatrix.symbolic()


@pytest.fixture(scope="session")
def ring6(wsym):
    return tau_ring(wsym)


def d_polys(ring: PolyRing):
    """The three 3x3-minor combinations D, D1, D2 as ring elements."""
    w12, w22, w32 = ring.var("w12"), ring.var("w22"), ring.var("w32")
    w13, w23, w33 = ring.var("w13"), ring.var("w23"), ring.var("w33")
    D = w33 * (w22 * w33 - w23 * w32)
    D1 = w33 * (w12 * w23 - w13 * w22)
    D2 = w23 * (w13 * w32 - w12 * w33)
    return D, D1, D2


def expand_d_table(ring: PolyRing, table) -> MultiPoly:
    """Expand {(i, j, k): coeff} meaning coeff * D1^i * D2^j * t^k."""
    _, D1, D2 = d_polys(ring)
    t = ring.var("t")
    out = ring.zero()
    for (i, j, k), coeff in table.items():
        out = out + ring.const(Fraction(coeff)) * D1**i * D2**j * t**k
    return out


def ratfunc_at(r: RatFunc, bindings) -> RatFunc:
    """r with symbols bound to exact rationals: numerator and denominator
    are evaluated separately, and the denominator must not vanish."""
    return RatFunc(r.num.subs(bindings), r.den.subs(bindings))


def assert_ratfunc_equals(r: RatFunc, num: MultiPoly, den: MultiPoly):
    """r == num/den as abstract rational functions (cross-multiplied)."""
    diff = r.num * den - num * r.den
    assert diff.is_zero, f"mismatch: residual {diff.text()[:200]}"


# -- golden expressions for the worked example ------------------------------

TAU0_NUM = {(1, 0, 0): 1, (0, 1, 2): 3, (0, 1, 3): -2}  # times D, /(6 t^3)

SIGMA_NUM = {(1, 0, 0): 2, (1, 0, 1): -4, (0, 1, 3): -4, (0, 1, 4): 2}
SIGMA_DEN = {(1, 0, 0): 1, (0, 1, 2): 3, (0, 1, 3): -2}

Y_ID_NUM = {
    (0, 2, 5): -1,
    (0, 2, 4): 3,
    (1, 1, 3): 2,
    (1, 1, 2): 2,
    (2, 0, 1): 3,
    (2, 0, 0): -1,
}
Y_ID_DEN = {(2, 0, 0): 1, (1, 1, 1): 4, (1, 1, 2): -6, (1, 1, 3): 4, (0, 2, 4): 1}

Y_FLIP13_NUM = {
    (0, 3, 9): -1,
    (0, 3, 8): 3,
    (1, 2, 7): -6,
    (1, 2, 6): 42,
    (1, 2, 5): -57,
    (2, 1, 5): 27,
    (1, 2, 4): 27,
    (2, 1, 4): -57,
    (2, 1, 3): 42,
    (2, 1, 2): -6,
    (3, 0, 1): 3,
    (3, 0, 0): -1,
}
Y_FLIP13_DEN_A = {(1, 0, 0): -3, (1, 0, 1): 6, (0, 1, 3): 6, (0, 1, 4): -3}
Y_FLIP13_DEN_B = Y_ID_DEN

Y_SWAP23_PREFIX = {(0, 1, 1): 1}  # (D2 t) overall factor on the numerator
Y_SWAP23_NUM = {
    (2, 0, 2): -15,
    (2, 0, 1): 7,
    (2, 0, 3): 9,
    (2, 0, 0): -1,
    (1, 1, 2): 6,
    (1, 1, 3): -26,
    (1, 1, 5): -6,
    (1, 1, 4): 26,
    (0, 2, 4): -9,
    (0, 2, 6): -7,
    (0, 2, 5): 15,
    (0, 2, 7): 1,
}
Y_SWAP23_DEN_A = {(1, 0, 0): 1, (0, 1, 3): 1, (0, 1, 2): -3, (0, 1, 1): 3}
Y_SWAP23_DEN_B = Y_ID_DEN
