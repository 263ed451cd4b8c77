"""Exact polynomial/rational arithmetic: identities, determinants, gcd."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvi import exactalg
from tauvi.exactalg import (
    DegenerateSpecialization,
    ExactAlgError,
    InexactDivision,
    MultiPoly,
    PolyRing,
    RatFunc,
    SymbolMismatch,
    ZeroDenominator,
    fraction_free_det,
    poly_gcd,
    poly_json_text,
)
from tauvi.painleve import solve_family
from tauvi.taudet import WeightMatrix

XY = PolyRing(("x", "y"))
T = PolyRing(("t",))


def _rand_poly(ring: PolyRing, rng: Random, terms=4, max_exp=3, max_coeff=6):
    out = ring.zero()
    for _ in range(terms):
        mono = ring.one()
        for name in ring.symbols:
            mono = mono * ring.var(name) ** rng.randint(0, max_exp)
        out = out + ring.const(rng.randint(-max_coeff, max_coeff)) * mono
    return out


def _to_sympy(p: MultiPoly):
    """content * (integer part), rebuilt as a sympy expression."""
    syms = sympy.symbols(p.ring.symbols)
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Integer(c)
        for s, e in zip(syms, exp):
            term *= s**e
        expr += term
    return sympy.expand(sympy.Rational(p.content.numerator, p.content.denominator) * expr)


# -- ring / polynomial basics -------------------------------------------------


def test_difference_of_squares():
    x = XY.var("x")
    assert (x + 1) * (x - 1) == x**2 - 1


def test_additive_identity():
    p = XY.var("x") * 3 + XY.var("y") ** 2
    assert p + XY.zero() == p
    assert p + 0 == p


def test_zero_coefficients_drop_out():
    x = XY.var("x")
    assert (x - x).is_zero
    assert not (x * 0).terms


def test_constant_value_and_coercion():
    c = XY.const(Fraction(3, 4))
    assert c.is_constant and c.constant_value() == Fraction(3, 4)
    assert XY.var("x") * 2 == 2 * XY.var("x")
    with pytest.raises(ExactAlgError):
        XY.var("x").constant_value()


def test_ring_mismatch_raises():
    with pytest.raises(SymbolMismatch):
        XY.var("x") + T.var("t")


def test_substitute_t_equals_one():
    t = T.var("t")
    p = t**3 - 2 * t + 5
    assert p.subs({"t": 1}) == T.const(4)
    assert p.eval_all({"t": Fraction(1)}) == 4


def test_partial_substitution_keeps_remaining_symbols():
    x, y = XY.var("x"), XY.var("y")
    p = x * y + y**2
    assert p.subs({"x": 2}) == 2 * y + y**2


def test_degrees_and_leading_term():
    x, y = XY.var("x"), XY.var("y")
    p = x**2 * y + 3 * y**2
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 2
    exp, lc = p.leading()
    assert exp == (2, 1) and lc == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_rule(data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    p = _rand_poly(XY, rng)
    q = _rand_poly(XY, rng)
    lhs = (p * q).derivative("x")
    rhs = p.derivative("x") * q + p * q.derivative("x")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_specialize_commutes_with_derivative(data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    p = _rand_poly(XY, rng)
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    # bind y, differentiate in x: order must not matter
    assert p.derivative("x").subs({"y": a}) == p.subs({"y": a}).derivative("x")


def test_derivative_examples():
    t = T.var("t")
    assert (t**2).derivative("t") == 2 * t
    r = RatFunc(T.one(), t)  # 1/t
    dr = r.derivative("t")
    assert dr == RatFunc(-T.one(), t**2)


def test_derivative_matches_finite_difference():
    t = T.var("t")
    f = RatFunc(t**2 - 1, t**3 + 2)
    df = f.derivative("t")
    h = Fraction(1, 10**6)
    for t0 in (Fraction(1, 3), Fraction(5, 7), Fraction(-2, 5)):
        num = f.eval_all({"t": t0 + h}) - f.eval_all({"t": t0 - h})
        approx = num / (2 * h)
        exact = df.eval_all({"t": t0})
        assert abs(float(approx - exact)) < 1e-8 * max(1.0, abs(float(exact)))


# -- the content x primitive kernel against sympy -----------------------------

_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
# A random polynomial times a random scale, so operands rarely share a
# content; the large scale pushes coefficients past float precision.
_polys = st.builds(
    lambda terms, scale: MultiPoly(XY, terms) * scale,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), _rationals, max_size=6
    ),
    st.sampled_from(
        [Fraction(1), Fraction(1, 7), Fraction(6), Fraction(-10, 3), Fraction(3**40, 7)]
    ),
)


def _assert_canonical(p: MultiPoly):
    assert isinstance(p.content, Fraction)
    if not p.terms:
        assert p.content == 0 and p == XY.zero()
        return
    assert p.content > 0
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    g = 0
    for c in p.terms.values():
        g = gcd(g, c)
    assert g == 1


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _rationals, _rationals)
def test_kernel_matches_sympy(a, b, x0, y0):
    x, y = sympy.symbols("x y")
    sa, sb = _to_sympy(a), _to_sympy(b)
    for p, want in (
        (a + b, sa + sb),
        (a - b, sa - sb),
        (a * b, sa * sb),
        (a.derivative("x"), sympy.diff(sa, x)),
        (a.derivative("y"), sympy.diff(sa, y)),
    ):
        _assert_canonical(p)
        assert sympy.expand(_to_sympy(p) - want) == 0
    _assert_canonical(a - a)
    assert (a - a).is_zero
    if not b.is_zero:
        q = (a * b).divexact(b)
        _assert_canonical(q)
        assert q == a
        # eval_float sums in this order, so the quotient keeps it.
        assert list(q.terms) == sorted(q.terms, key=lambda e: (sum(e), e), reverse=True)
        _, rem = sympy.div(sympy.Poly(sa, x, y), sympy.Poly(sb, x, y))
        try:
            a.divexact(b)
            divisible = True
        except InexactDivision:
            divisible = False
        assert divisible == rem.is_zero
    want = sa.subs({x: sympy.Rational(str(x0)), y: sympy.Rational(str(y0))})
    assert a.eval_all({"x": x0, "y": y0}) == Fraction(str(want))


@settings(max_examples=100, deadline=None)
@given(_polys, st.floats(-3, 3), st.floats(-3, 3))
def test_eval_float_sums_exact_coefficients_in_term_order(p, x0, y0):
    want = 0.0
    for exp, c in p.terms.items():
        term = float(p.content * c)
        for v, e in zip((x0, y0), exp):
            if e:
                term *= v**e
        want += term
    assert p.eval_float({"x": x0, "y": y0}) == want


def test_text_shows_exact_coefficients():
    x = XY.var("x")
    p = x * Fraction(3, 2) - 5
    assert p.content == Fraction(1, 2)
    assert p.terms == {(1, 0): 3, (0, 0): -10}
    assert p.text() == "3/2*x - 5"


# -- exact division and gcd ---------------------------------------------------


def test_divexact_recovers_factor():
    x, y = XY.var("x"), XY.var("y")
    a = x**2 - y**2
    b = x + y
    assert a.divexact(b) == x - y


def test_divexact_rejects_inexact():
    x, y = XY.var("x"), XY.var("y")
    with pytest.raises(InexactDivision):
        (x**2 + y).divexact(x + 1)


def test_gcd_of_common_factor_products():
    x, y = XY.var("x"), XY.var("y")
    g = x * y + 1
    a = g * (x + 2)
    b = g * (y - 3) * (y - 3)
    got = poly_gcd(a, b)
    # normalized to leading coefficient 1, so compare directly
    assert got == g


def test_gcd_coprime_is_constant():
    x, y = XY.var("x"), XY.var("y")
    assert poly_gcd(x + 1, y + 2).is_constant


def test_gcd_zero_operands():
    x = XY.var("x")
    assert poly_gcd(XY.zero(), x + 1) == x + 1
    assert poly_gcd(XY.zero(), XY.zero()).is_zero


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_gcd_matches_sympy(data):
    rng = Random(data.draw(st.integers(0, 10**6)))
    g = _rand_poly(XY, rng, terms=2, max_exp=2, max_coeff=3)
    a = g * _rand_poly(XY, rng, terms=2, max_exp=2, max_coeff=3)
    b = g * _rand_poly(XY, rng, terms=2, max_exp=2, max_coeff=3)
    if a.is_zero or b.is_zero:
        return
    got = _to_sympy(poly_gcd(a, b))
    want = sympy.gcd(_to_sympy(a), _to_sympy(b))
    # both are defined up to a rational scalar; compare monic-normalized
    x, y = sympy.symbols("x y")
    ratio = sympy.simplify(got / want)
    assert ratio.is_constant(x, y), f"{got} vs {want}"


XYZW = PolyRing(("x", "y", "z", "w"))
_monos = st.tuples(*[st.integers(0, 2)] * 4)
_sparse = st.dictionaries(_monos, st.integers(-9, 9), max_size=4)


@st.composite
def _gcd_operands(draw):
    """Operands sharing a factor g and a monomial, in three or four symbols.

    Covers coprime pairs (g = 1), constant and zero operands, negative
    leading coefficients, and a g with coefficients up to 10**30.
    """
    nvars = draw(st.sampled_from([3, 4]))

    def poly(terms):
        return MultiPoly(XYZW, {e[:nvars] + (0,) * (4 - nvars): c for e, c in terms.items()})

    g = poly(draw(_sparse)) if draw(st.booleans()) else XYZW.one()
    if draw(st.booleans()):
        x, y = XYZW.var("x"), XYZW.var("y")
        g = g * (x + draw(st.integers(10**6, 10**30)) * y)
    shared = XYZW.poly({draw(_monos)[:nvars] + (0,) * (4 - nvars): 1})
    a = g * poly(draw(_sparse)) * shared
    b = g * poly(draw(_sparse)) * shared
    return draw(st.sampled_from([a, -a, XYZW.const(-6)])), b


def _gcd_fallback(a, b):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_heu_gcd", lambda *args: None)
        return poly_gcd(a, b)


@settings(max_examples=80, deadline=None)
@given(_gcd_operands())
def test_gcd_heuristic_fallback_and_sympy_agree(operands):
    a, b = operands
    got = poly_gcd(a, b)
    assert got == _gcd_fallback(a, b)
    want = sympy.gcd(_to_sympy(a), _to_sympy(b))
    if want == 0:
        assert got.is_zero
    else:
        assert not sympy.cancel(_to_sympy(got) / want).free_symbols
        assert got.leading()[1] == 1


def test_gcd_heuristic_retries_after_an_unlucky_point():
    # The first point is xi = 31, where x + 1 and x + 33 take the values 32
    # and 64: their gcd 32 is no image of the gcd 1, so no candidate divides.
    x = XYZW.var("x")
    retries = [exactalg._HEU_RETRIES]
    g = exactalg._heu_gcd(x + 1, x + 33, retries)
    assert retries == [exactalg._HEU_RETRIES - 1]
    assert g == XYZW.one()


def test_solve_family_is_independent_of_the_gcd_route(params6, wsym, monkeypatch):
    runs = [
        (wsym, ["id"]),
        (WeightMatrix.random(3), None),
    ]
    heuristic = [solve_family(params6, w, branches=br) for w, br in runs]
    monkeypatch.setattr(exactalg, "_heu_gcd", lambda *args: None)
    for got, (w, br) in zip(heuristic, runs):
        want = solve_family(params6, w, branches=br)
        assert got.sigma == want.sigma
        assert [d.branch for d in got.branches] == [d.branch for d in want.branches]
        assert all(d.y == e.y for d, e in zip(got.branches, want.branches))


def test_gcd_divides_both_operands():
    rng = Random(7)
    for _ in range(8):
        a = _rand_poly(XY, rng, terms=3)
        b = _rand_poly(XY, rng, terms=3)
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        a.divexact(g)
        b.divexact(g)  # raises InexactDivision on failure


# -- determinants -------------------------------------------------------------


def _cofactor_det(rows, ring):
    n = len(rows)
    if n == 0:
        return ring.one()
    if n == 1:
        return rows[0][0]
    total = ring.zero()
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total = total + ring.const(sign) * rows[0][j] * _cofactor_det(minor, ring)
        sign = -sign
    return total


def test_det_identity_3x3():
    one, zero = XY.one(), XY.zero()
    eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert fraction_free_det(eye) == one


def test_det_zero_row():
    x = XY.var("x")
    rows = [[x, x + 1], [XY.zero(), XY.zero()]]
    assert fraction_free_det(rows).is_zero


def test_det_empty_is_one():
    assert fraction_free_det([], ring=XY) == XY.one()
    with pytest.raises(ValueError):
        fraction_free_det([])


def test_det_rejects_non_square():
    x = XY.var("x")
    with pytest.raises(ValueError):
        fraction_free_det([[x, x], [x, x], [x, x]])


def test_det_matches_cofactor_on_random_integer_matrices():
    rng = Random(1)
    ring = PolyRing(("x",))
    for n in (2, 3, 4, 5):
        for _ in range(4):
            rows = [
                [ring.const(rng.randint(-9, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            assert fraction_free_det(rows) == _cofactor_det(rows, ring)


def test_det_matches_cofactor_on_symbolic_matrix():
    rng = Random(2)
    rows = [
        [_rand_poly(XY, rng, terms=2, max_exp=1, max_coeff=3) for _ in range(3)]
        for _ in range(3)
    ]
    assert fraction_free_det(rows) == _cofactor_det(rows, XY)


def test_det_sparse_singleton_elimination():
    # one nonzero per row/column exercises the expansion pass, incl. signs
    x, y = XY.var("x"), XY.var("y")
    z = XY.zero()
    rows = [[z, x, z], [y, z, z], [z, z, x + y]]
    assert fraction_free_det(rows) == -(x * y * (x + y))


# -- rational functions -------------------------------------------------------


def test_ratfunc_reduces_to_canonical_form():
    t = T.var("t")
    r = RatFunc((t**2 - 1) * 2, (t - 1) * 4)
    # common factor cancelled, denominator normalized to leading coeff 1
    assert r == RatFunc(t + 1, T.const(2))
    assert r.den == T.one()
    assert r.num == (t + 1) * Fraction(1, 2)


def test_ratfunc_arithmetic_field_axioms():
    t = T.var("t")
    a = RatFunc(t, t + 1)
    b = RatFunc(t - 2, t**2 + 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == 0
    assert (a / a) == 1


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc(T.one(), T.zero())
    t = T.var("t")
    with pytest.raises(ZeroDenominator):
        RatFunc(t) / RatFunc(T.zero())


def test_specialize_examples():
    t = T.var("t")
    r = RatFunc(t**2 + 1, t - 1)
    assert r.specialize({"t": 2}) == 5
    with pytest.raises(DegenerateSpecialization):
        r.specialize({"t": 1})
    with pytest.raises(DegenerateSpecialization):
        r.eval_all({"t": Fraction(1)})


def test_ratfunc_negative_power():
    t = T.var("t")
    r = RatFunc(t, t + 1)
    assert r**-2 == RatFunc((t + 1) ** 2, t**2)


# -- serialization ------------------------------------------------------------


def test_text_is_deterministic_and_ordered():
    x, y = XY.var("x"), XY.var("y")
    p = y**2 + x * y + 1
    q = 1 + x * y + y**2
    assert p.text() == q.text()
    assert p.text() == "x*y + y^2 + 1"


def test_json_round_trip_poly():
    x, y = XY.var("x"), XY.var("y")
    p = x**2 * Fraction(3, 7) - y + 2
    back = MultiPoly.from_json(json.loads(poly_json_text(p)))
    assert back == p


def test_json_round_trip_ratfunc():
    t = T.var("t")
    r = RatFunc(t**2 - Fraction(1, 3), t + 5)
    back = RatFunc.from_json(json.loads(poly_json_text(r)))
    assert back == r


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int/str digit limit",
)
def test_text_and_json_exact_beyond_int_str_digit_limit():
    x, y = XY.var("x"), XY.var("y")
    big = 10**5000 + 7
    p = XY.const(big) * x - Fraction(3, 2 * big + 1) * y**2 + Fraction(-big, 9)
    r = RatFunc(x + big, y - 1)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = f"-3/{2 * big + 1}*y^2 + {big}*x - {big}/9"
        sys.set_int_max_str_digits(640)  # the smallest limit CPython allows
        assert p.text() == want
        assert MultiPoly.from_json(json.loads(poly_json_text(p))) == p
        assert RatFunc.from_json(json.loads(poly_json_text(r))) == r
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_text_is_stable():
    x = XY.var("x")
    assert poly_json_text(x) == poly_json_text(XY.var("x"))
