"""Elementary Schur polynomials: frozen values and the generating function."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvi.exactalg import MultiPoly, PolyRing
from tauvi.schur import TimeVector, elementary_schur, sequence_diff

S_RING = PolyRing(("s1", "s2", "s3", "s4", "s5"))


def _svars():
    return tuple(S_RING.var(f"s{i}") for i in range(1, 6))


def test_negative_index_is_zero():
    assert elementary_schur(-1, (Fraction(1),)) == 0
    s1 = S_RING.var("s1")
    assert elementary_schur(-3, (s1,)).is_zero


def test_index_zero_is_one():
    assert elementary_schur(0, ()) == 1
    assert elementary_schur(0, (S_RING.var("s1"),)) == S_RING.one()


def test_single_time_cubed():
    s1 = S_RING.var("s1")
    assert elementary_schur(3, (s1,)) == s1**3 * Fraction(1, 6)


def test_first_five_frozen():
    """S_1..S_5 written out longhand (independent of the recurrence)."""
    s1, s2, s3, s4, s5 = _svars()
    s = (s1, s2, s3, s4, s5)
    expect = [
        s1,
        s1**2 * Fraction(1, 2) + s2,
        s1**3 * Fraction(1, 6) + s1 * s2 + s3,
        s1**4 * Fraction(1, 24)
        + s1**2 * s2 * Fraction(1, 2)
        + s2**2 * Fraction(1, 2)
        + s1 * s3
        + s4,
        s1**5 * Fraction(1, 120)
        + s1**3 * s2 * Fraction(1, 6)
        + s1 * s2**2 * Fraction(1, 2)
        + s1**2 * s3 * Fraction(1, 2)
        + s2 * s3
        + s1 * s4
        + s5,
    ]
    for j, want in enumerate(expect, start=1):
        assert elementary_schur(j, s) == want


def _truncated_exp(s, order):
    """Coefficients of exp(sum_n s_n lambda^n) up to lambda^order, directly."""
    # exp series term by term; coeffs[j] accumulates lambda^j
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    # power = (sum s_n lambda^n)^k / k!
    base = [Fraction(0)] * (order + 1)
    for n, sn in enumerate(s, start=1):
        if n <= order:
            base[n] = Fraction(sn)
    power = list(coeffs)  # k = 0 term
    for k in range(1, order + 1):
        nxt = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            if power[i] == 0:
                continue
            for j in range(1, order + 1 - i):
                nxt[i + j] += power[i] * base[j]
        power = [x * Fraction(1, k) for x in nxt]
        for i in range(order + 1):
            coeffs[i] += power[i]
    return coeffs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_generating_function_identity(data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    order = data.draw(st.integers(1, 8))
    s = tuple(
        Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order)
    )
    want = _truncated_exp(s, order)
    for j in range(order + 1):
        assert elementary_schur(j, s) == want[j]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cauchy_translation_property(data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    s = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
    sp = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
    total = tuple(a + b for a, b in zip(s, sp))
    for j in range(7):
        conv = sum(
            elementary_schur(k, s) * elementary_schur(j - k, sp)
            for k in range(j + 1)
        )
        assert elementary_schur(j, total) == conv


def test_single_time_specialization_is_divided_power():
    for j in range(8):
        x = Fraction(3, 2)
        assert elementary_schur(j, (x,)) == x**j / factorial(j)


def test_divided_power_examples():
    # S_j of the single time t is the divided power t^j / j!
    t = PolyRing(("t",)).var("t")
    assert elementary_schur(-2, (t,)).is_zero
    assert elementary_schur(0, (t,)) == 1
    assert elementary_schur(3, (t,)) == t**3 * Fraction(1, 6)


def test_sequence_diff_examples():
    s = (Fraction(1), Fraction(2))
    assert sequence_diff(s, s) == (0, 0)
    h = Fraction(5)
    assert sequence_diff((h, 0), (0, 0)) == (h, 0)
    # ragged lengths pad with zeros
    assert sequence_diff((h,), (0, 1)) == (h, -1)


def test_time_vector_accessors():
    ring = PolyRing(tuple(f"u{a}{n}" for a in (1, 2, 3) for n in (1, 2)))
    u = TimeVector.symbolic(ring, 2)
    assert len(u.u1) == len(u.u2) == len(u.u3) == 2
    assert u.component(2) == u.u2
    with pytest.raises(ValueError):
        u.component(4)
    d = u.diff(2, 1)
    assert d[0] == ring.var("u21") - ring.var("u11")


def test_time_vector_first_time_difference():
    # only first times set, u2 - u1 = h
    h = Fraction(7, 3)
    u = TimeVector((Fraction(0),), (h,), (Fraction(0),))
    assert u.diff(2, 1) == (h,)


def test_time_vector_schur_table_matches_elementary_schur():
    ring = PolyRing(tuple(f"u{a}{n}" for a in (1, 2, 3) for n in (1, 2, 3)))
    numeric = TimeVector((Fraction(1, 2), Fraction(-3)), (Fraction(2),), (Fraction(0),))
    for u in (TimeVector.symbolic(ring, 3), numeric):
        for a, b in ((1, None), (2, None), (3, None), (2, 1), (3, 1), (3, 2)):
            seq = u.component(a) if b is None else u.diff(a, b)
            for n in (4, 0, 2, 6, 4, 1):  # out of order, with a repeat
                got = u.schur(n, a, b)
                want = elementary_schur(n, seq)
                assert got == want
                if isinstance(got, MultiPoly):
                    assert list(got.terms.items()) == list(want.terms.items())
                assert u.schur(n, a, b) is got  # read back, not recomputed
