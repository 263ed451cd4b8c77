"""Exact polynomial/rational arithmetic: identities, determinants, gcd."""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvi import exactalg
from tauvi.exactalg import (
    ExactAlgError,
    InexactDivision,
    MultiPoly,
    PolyRing,
    RatFunc,
    SymbolMismatch,
    ZeroDenominator,
    fraction_free_det,
    poly_gcd,
)
from tauvi.painleve import solve_family
from tauvi.taudet import WeightMatrix

from conftest import ratfunc_at

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
    assert p.subs({"t": Fraction(1)}).constant_value() == 4


def test_partial_substitution_keeps_remaining_symbols():
    x, y = XY.var("x"), XY.var("y")
    p = x * y + y**2
    assert p.subs({"x": 2}) == 2 * y + y**2


def test_degrees_and_leading_term():
    x, y = XY.var("x"), XY.var("y")
    p = x**2 * y + 3 * y**2
    assert set(p.terms) == {(2, 1), (0, 2)}  # total degree 3, degree 2 in each
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
        num = ratfunc_at(f, {"t": t0 + h}) - ratfunc_at(f, {"t": t0 - h})
        approx = num.constant_value() / (2 * h)
        exact = ratfunc_at(df, {"t": t0}).constant_value()
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
    _assert_canonical_in(p, XY)


def _assert_canonical_in(p: MultiPoly, ring: PolyRing):
    assert isinstance(p.content, Fraction)
    if not p.terms:
        assert p.content == 0 and p == ring.zero()
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
    assert a.subs({"x": x0, "y": y0}).constant_value() == Fraction(str(want))


# -- the one evaluation map ------------------------------------------------------

# 0, negative and non-integer points all take their own branches of the map.
_points = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-9, max_value=9, max_denominator=7)
)


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _points, _points)
def test_subs_at_rational_points_matches_sympy(p, q, x0, y0):
    x, y = sympy.symbols("x y")
    at = {"x": x0, "y": y0}
    sp = _to_sympy(p)
    for names in (("x",), ("y",), ("x", "y")):
        got = p.subs({n: at[n] for n in names})
        _assert_canonical(got)
        want = sp.subs({sympy.Symbol(n): sympy.Rational(str(at[n])) for n in names})
        assert sympy.expand(_to_sympy(got) - want) == 0
    # every coefficient of (x - x0) * q in y cancels at x = x0
    padded = p + (XY.var("x") - x0) * q
    assert padded.subs({"x": x0}) == p.subs({"x": x0})


def test_subs_rejects_polynomial_values():
    x, y = XY.var("x"), XY.var("y")
    with pytest.raises(TypeError):
        (x * y).subs({"x": y})


def test_subs_and_gcdheu_share_the_evaluation_map(monkeypatch):
    calls = []
    original = exactalg._eval_at

    def counted(p, i, x):
        calls.append(i)
        return original(p, i, x)

    monkeypatch.setattr(exactalg, "_eval_at", counted)
    x, y = XY.var("x"), XY.var("y")
    p = (x + y) * (x - 2 * y + 3)
    assert p.subs({"x": 1, "y": Fraction(1, 2)}) == XY.const(Fraction(9, 2))
    assert calls == [0, 1]
    calls.clear()
    assert poly_gcd(p, (x + y) * (x + 5)) == x + y
    assert calls


def _eval_at_int_reference(p: MultiPoly, i: int, xi: int) -> MultiPoly:
    """GCDHEU's evaluation map before it took rational points: p with symbol
    i set to the nonzero int xi."""
    out: dict = {}
    powers: dict = {}
    for exp, c in p.terms.items():
        e = exp[i]
        if e:
            pw = powers.get(e)
            if pw is None:
                pw = powers[e] = xi**e
            c *= pw
            exp = exp[:i] + (0,) + exp[i + 1 :]
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            del out[exp]
    return exactalg._from_ints(p.ring, p.content, out)


@settings(max_examples=150, deadline=None)
@given(_polys, st.integers(0, 1), st.integers(-(10**6), 10**6).filter(bool))
def test_eval_at_an_integer_matches_the_integer_map(p, i, xi):
    got = exactalg._eval_at(p, i, xi)
    want = _eval_at_int_reference(p, i, xi)
    assert type(got.content) is Fraction and got.content == want.content
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is int for c in got.terms.values())


def _tuple_product(a: dict, b: dict) -> dict:
    """The tuple-key multiply loop: the reference for packed products."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(exp, 0) + ca * cb
            if s:
                out[exp] = s
            else:
                del out[exp]
    return out


def _packed_operand(data, ring: PolyRing, size: int, top: int, slot: int):
    """``size`` terms: exponents in 0..2 and coefficients in +-1, +-2, so that
    many term pairs meet and cancel, plus one term whose exponent in ``slot``
    is ``top``, the operand's largest."""
    n = ring.nvars
    exps = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, 2)] * n),
            min_size=size - 1, max_size=size - 1, unique=True,
        )
    )
    peak = list(data.draw(st.tuples(*[st.integers(0, 2)] * n)))
    peak[slot] = top
    coeffs = st.sampled_from([-2, -1, 1, 2])
    terms = {e: data.draw(coeffs) for e in exps + [tuple(peak)]}
    scale = data.draw(st.sampled_from([Fraction(1), Fraction(-10, 3), Fraction(3**40, 7)]))
    return MultiPoly(ring, terms) * scale


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_product_matches_tuple_loop_and_sympy(data):
    n = data.draw(st.integers(3, 4))
    ring = PolyRing(("x", "y", "z", "u")[:n])
    # The two peak exponents, in one slot, sum to 2**k - 1, the most that k
    # bits hold, or to 2**k, the least that needs k + 1: the packed slot width.
    k = data.draw(st.integers(3, 6))
    total = 2**k - data.draw(st.integers(0, 1))
    top_a = data.draw(st.integers(3, total - 3))
    slot = data.draw(st.integers(0, n - 1))
    cap = min(40, 3**n + 1)
    small = data.draw(st.integers(exactalg._PACK_MIN_TERMS, cap))
    a = _packed_operand(data, ring, small, top_a, slot)
    b = _packed_operand(data, ring, data.draw(st.integers(small, cap)), total - top_a, slot)
    if data.draw(st.booleans()):
        a, b = b, a
    p = a * b
    assert min(len(a.terms), len(b.terms)) >= exactalg._PACK_MIN_TERMS
    assert list(p.terms.items()) == list(_tuple_product(a.terms, b.terms).items())
    assert p.content == a.content * b.content
    _assert_canonical(p)
    gens = sympy.symbols(ring.symbols)

    def poly(q: MultiPoly):
        content = sympy.Rational(q.content.numerator, q.content.denominator)
        return sympy.Poly.from_dict(q.terms, gens, domain=sympy.QQ) * content

    assert poly(p) == poly(a) * poly(b)


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


def _heap_quotient(a: dict, d: dict) -> dict:
    """Monagan & Pearce heap division of integer parts ``a / d``: the
    reference for the one-term divisor pass.  Pops remainder terms in
    descending graded-lex order; raises InexactDivision on a remainder."""

    def entry(exp):
        return (-sum(exp), tuple(-e for e in exp), exp)

    dexp = max(d, key=lambda e: (sum(e), e))
    rem = dict(a)
    heap = [entry(exp) for exp in rem]
    heapify(heap)
    q: dict = {}
    while heap:
        rexp = heappop(heap)[2]
        if rexp not in rem:
            continue
        qexp = tuple(x - y for x, y in zip(rexp, dexp))
        qc, r = divmod(rem[rexp], d[dexp])
        if r or min(qexp) < 0:
            raise InexactDivision(f"remainder term at exponent {rexp}")
        q[qexp] = qc
        for exp, c in d.items():
            key = tuple(x + y for x, y in zip(qexp, exp))
            s = rem.get(key, 0) - qc * c
            if s:
                if key not in rem:
                    heappush(heap, entry(key))
                rem[key] = s
            else:
                del rem[key]
    return q


_one_term = st.builds(
    lambda exp, c: MultiPoly(XYZW, {exp: c}),
    st.tuples(*[st.integers(0, 2)] * 4),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(-6, 7), Fraction(3**40, 11)]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), _rationals, max_size=12),
    _one_term,
    st.booleans(),
)
def test_one_term_divexact_matches_heap_division(terms, d, multiply):
    # Half the dividends are multiples of d, so that most divisions are exact;
    # the rest are arbitrary and usually fail on an exponent.
    a = MultiPoly(XYZW, terms)
    if multiply:
        a = a * d
    try:
        want = _heap_quotient(a.terms, d.terms)
    except InexactDivision:
        with pytest.raises(InexactDivision):
            a.divexact(d)
        return
    q = a.divexact(d)
    # Same quotient, and the same key order: eval_float sums in that order.
    assert list(q.terms.items()) == list(want.items())
    assert q.content == (a.content / d.content if want else 0)
    if multiply:
        assert q == MultiPoly(XYZW, terms)
    _assert_canonical_in(q, XYZW)


def test_one_term_divexact_rejects_inexact():
    x, y = XY.var("x"), XY.var("y")
    with pytest.raises(InexactDivision):
        x.divexact(y)  # the quotient would have the exponent -1 in y
    with pytest.raises(InexactDivision):
        (x * y).divexact(x**2)  # too small a degree in x
    assert (6 * x**2 * y).divexact(-4 * x) == Fraction(-3, 2) * x * y


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
    shared = MultiPoly(XYZW, {draw(_monos)[:nvars] + (0,) * (4 - nvars): 1})
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


# The symbolic flip13 and swap23 branches reduce y over denominators with
# t-power factors, which the fallback must find through contents and
# remainders like any other factor.
def test_solve_family_is_independent_of_the_gcd_route(params6, wsym, monkeypatch):
    runs = [
        (wsym, ["id", "flip13", "swap23"]),
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
    # Sparse shapes for the expansion step: a zero column, a singleton that
    # only a column shows, and singletons that appear as others are removed.
    shaped = [
        [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
        [[1, 2, 0], [3, 4, 5], [6, 7, 0]],
        [[2, 0, 0], [3, 4, 0], [5, 6, 7]],
        [[2, 4, 0, 0], [1, 3, 0, 4], [1, 0, 1, 4], [2, 1, 0, 0]],
    ]
    sparse = [
        [
            [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(n)
        ]
        for n in (3, 4, 5, 6)
        for _ in range(8)
    ]
    for ints in shaped + sparse:
        rows = [[ring.const(v) for v in r] for r in ints]
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


XYZ = PolyRing(("x", "y", "z"))


def _sparse_entry(rng: Random):
    # uneven term counts, so that the sparsest-pivot search has a choice
    out = XYZ.zero()
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3, 4])):
        mono = XYZ.const(rng.choice([-3, -2, -1, 1, 2, 3]))
        for name in XYZ.symbols:
            mono = mono * XYZ.var(name) ** rng.randint(0, 2)
        out = out + mono
    return out


def test_det_matches_cofactor_on_random_sparse_multivariate_matrices():
    rng = Random(3)
    for n in (2, 3, 4, 5, 6):
        for _ in range(12 if n < 6 else 4):
            rows = [[_sparse_entry(rng) for _ in range(n)] for _ in range(n)]
            assert fraction_free_det(rows) == _cofactor_det(rows, XYZ)


def _record_quotients(monkeypatch) -> list:
    """Record each (dividend, divisor) that Bareiss divides, decoded from
    packed keys into XYZ polynomials with content 1.  The top slot's guard
    bit is the highest bit of the guard mask, so it gives the slot width."""
    calls = []
    quotient = exactalg._packed_quotient

    def recording(num, den, guard):
        w = guard.bit_length() // XYZ.nvars
        calls.append(
            tuple(
                exactalg._from_ints(XYZ, Fraction(1), exactalg._unpack(d, w, XYZ.nvars))
                for d in ({k: c for k, c in num.items() if c}, den)
            )
        )
        return quotient(num, den, guard)

    monkeypatch.setattr(exactalg, "_packed_quotient", recording)
    return calls


def _det_and_first_pivot(monkeypatch, rows):
    """The determinant and the first Bareiss pivot, read off as the first
    divisor other than 1 (step 1 divides by 1, step 2 by the first pivot).
    No row of ``rows`` has a fractional content, so no row is scaled."""
    calls = _record_quotients(monkeypatch)
    det = fraction_free_det(rows)
    monkeypatch.undo()
    return det, next(d for _, d in calls if d != XYZ.one())


@pytest.mark.parametrize(
    "at", [(2, 0), (0, 2), (1, 2)], ids=["row-swap", "column-swap", "both-swaps"]
)
def test_det_pivots_on_the_sparsest_trailing_entry(monkeypatch, at):
    # ``rows`` starts as the matrix after the first pivot is in place.  Its
    # only one-term entry is rows[0][0] = p, and rows[1][1] is chosen so that
    # the second step's rows[1][1]*p - rows[1][0]*rows[0][1] is again p, so
    # the second pivot needs no swap and each case makes exactly the swaps
    # its name says.  Undoing those swaps puts p at ``at``.
    x, y, z = (XYZ.var(s) for s in XYZ.symbols)
    p = 2 * x * y
    rows = [
        [p, p * (y + 1), y - z + 1],
        [x + 1, (x + 1) * (y + 1) + 1, z + 2],
        [y + z, x + z, y * z + 3],
    ]
    i, j = at
    rows[0], rows[i] = rows[i], rows[0]
    for r in rows:
        r[0], r[j] = r[j], r[0]
    det, pivot = _det_and_first_pivot(monkeypatch, rows)
    assert not det.is_zero
    assert det == _cofactor_det(rows, XYZ)
    assert pivot == p


def test_det_skips_updates_whose_products_are_all_zero(monkeypatch):
    # A tridiagonal matrix has no line with a single entry, so all of it
    # reaches Bareiss, and most of its trailing updates multiply zeros.
    x, y, z = (XYZ.var(s) for s in XYZ.symbols)
    n = 6
    rows = [[XYZ.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = x + y + i
        if i + 1 < n:
            rows[i][i + 1] = z * (i + 1)
            rows[i + 1][i] = x * y - i
    calls = _record_quotients(monkeypatch)
    det = fraction_free_det(rows)
    monkeypatch.undo()
    dividends = [num for num, _ in calls]
    assert det == _cofactor_det(rows, XYZ)
    assert not det.is_zero
    # Every division has a nonzero dividend, so fewer divisions run than the
    # 25 + 16 + ... + 1 trailing updates of the five Bareiss steps.
    assert all(not q.is_zero for q in dividends)
    assert 0 < len(dividends) < sum(k * k for k in range(1, n))


def test_det_sparsest_pivot_ties_go_to_the_first_in_row_major_order(monkeypatch):
    x, y, z = (XYZ.var(s) for s in XYZ.symbols)
    rows = [[x + y + k, y - z + 2 * k, x * z + k + 1] for k in (1, 2, 3)]
    rows[2][0] = y  # later in row-major order than ...
    rows[1][2] = x  # ... this one-term entry, which must win the tie
    det, pivot = _det_and_first_pivot(monkeypatch, rows)
    assert det == _cofactor_det(rows, XYZ)
    assert pivot == x


def _multipoly_bareiss_det(rows, ring):
    """The MultiPoly Bareiss loop that ``fraction_free_det`` ran before its
    packed kernel: the reference for content, terms and term order.  The
    singleton expansion pass is the same as in ``fraction_free_det``."""
    m = [list(r) for r in rows]
    sign = 1
    prefactor = ring.one()

    def lines():
        k = len(m)
        for i in range(k):
            yield [(i, j) for j in range(k) if not m[i][j].is_zero]
        for j in range(k):
            yield [(i, j) for i in range(k) if not m[i][j].is_zero]

    while m:
        nz = next((nz for nz in lines() if len(nz) <= 1), None)
        if nz is None:
            break
        if not nz:
            return ring.zero()
        [(i, j)] = nz
        if (i + j) % 2:
            sign = -sign
        prefactor = prefactor * m[i][j]
        del m[i]
        for r in m:
            del r[j]

    if not m:
        return prefactor if sign > 0 else -prefactor
    k = len(m)
    prev = ring.one()
    for col in range(k - 1):
        best = min(
            (
                (len(m[i][j].terms), i, j)
                for i in range(col, k)
                for j in range(col, k)
                if m[i][j].terms
            ),
            default=None,
        )
        if best is None:
            return ring.zero()
        _, pi, pj = best
        if pi != col:
            m[col], m[pi] = m[pi], m[col]
            sign = -sign
        if pj != col:
            for r in m:
                r[col], r[pj] = r[pj], r[col]
            sign = -sign
        pivot, pivot_row = m[col][col], m[col]
        for i in range(col + 1, k):
            row = m[i]
            lead = row[col]
            for j in range(col + 1, k):
                if row[j].terms or lead.terms and pivot_row[j].terms:
                    num = row[j] * pivot - lead * pivot_row[j]
                    row[j] = num.divexact(prev)
            row[col] = ring.zero()
        prev = pivot
    det = prefactor * m[k - 1][k - 1]
    return det if sign > 0 else -det


def _assert_same_det(rows, ring):
    got = fraction_free_det(rows, ring)
    want = _multipoly_bareiss_det(rows, ring)
    assert got.content == want.content
    # The same terms in the same order: eval_float sums in that order.
    assert list(got.terms.items()) == list(want.terms.items())


@st.composite
def _det_matrices(draw):
    """A k x k matrix over a ring of 1 to 15 symbols.

    * Each entry has its own content denominator, so rows scale differently.
    * ``multi``: every entry has at least two terms, so from the second step
      on Bareiss divides by a multi-term pivot.
    * ``peak``: each diagonal entry gains x0^top, the largest exponent
      drawn, so the determinant reaches the degree bound k*top in x0.
    * A zero row or column, or a row that repeats a multiple of another, so
      that the expansion pass or the elimination finds a zero.
    """
    n = draw(st.integers(1, 15))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    k = draw(st.integers(2, 4))
    top = draw(st.integers(1, 5))
    multi = draw(st.booleans())
    monos = st.tuples(*[st.integers(0, top)] * n)
    terms = st.dictionaries(
        monos, st.integers(-9, 9).filter(bool), min_size=2 if multi else 0, max_size=3
    )
    dens = st.sampled_from([1, 2, 3, 5, 12])
    rows = [
        [MultiPoly(ring, draw(terms)) * Fraction(1, draw(dens)) for _ in range(k)]
        for _ in range(k)
    ]
    if draw(st.booleans()):
        peak = ring.var("x0") ** top
        for i in range(k):
            rows[i][i] = rows[i][i] + peak
    shape = draw(st.sampled_from(["dense", "zero row", "zero column", "dependent"]))
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if shape == "zero row":
        rows[i] = [ring.zero()] * k
    elif shape == "zero column":
        for r in rows:
            r[j] = ring.zero()
    elif shape == "dependent" and i != j:
        rows[i] = [p * Fraction(-2, 3) for p in rows[j]]
    return rows, ring


@settings(max_examples=200, deadline=None)
@given(_det_matrices())
def test_packed_bareiss_matches_the_multipoly_loop(case):
    _assert_same_det(*case)


def test_packed_bareiss_matches_the_multipoly_loop_on_tau_matrices():
    # E and A matrices of every support charge with m1 <= 4 at order 2.
    from tauvi.taudet import (
        WEIGHT_SYMBOLS, TimeVector, build_A, build_E, normalize_params,
        time_symbols,
    )

    weights = WeightMatrix.symbolic()
    ring = PolyRing(WEIGHT_SYMBOLS + time_symbols(2))
    u = TimeVector.symbolic(ring, 2)
    matrices = 0
    for m1 in range(5):
        for m2 in range(m1 + 1):
            for m3 in range(m2 + 1):
                params = normalize_params((-m1, -m2, -m3), (-m1, -m2, -m3))
                for n1 in range(-m1, -m3 + 1):
                    for n2 in range(-m1, -m3 + 1):
                        nu = (n1, n2, -(m1 + m2 + m3) - n1 - n2)
                        if not params.in_support(nu):
                            continue
                        for build in (build_E, build_A):
                            rows = build(params, weights, u, ring, nu=nu)
                            if rows:
                                _assert_same_det(rows, ring)
                                matrices += 1
    assert matrices > 300


def test_packed_quotient_rejects_a_borrow_a_negative_key_and_a_remainder():
    w = 3
    guard = exactalg._pack((4, 4), w)

    def packed(terms):
        return {exactalg._pack(e, w): c for e, c in terms.items()}

    quotient = exactalg._packed_quotient
    assert quotient(packed({(2, 1): 6, (1, 1): -4}), packed({(1, 1): 2}), guard) == (
        packed({(1, 0): 3, (0, 0): -2})
    )
    # Multi-term divisors take the heap: (x + y)(x - y) / (x + y).
    x_plus_y = packed({(1, 0): 1, (0, 1): 1})
    assert quotient(packed({(2, 0): 1, (0, 2): -1}), x_plus_y, guard) == (
        packed({(1, 0): 1, (0, 1): -1})
    )
    failing = [
        ({(1, 0): 1}, {(0, 1): 1}),  # x - y borrows: the y slot reads 7, its guard set
        ({(0, 1): 1}, {(1, 0): 1}),  # a negative key
        ({(1, 0): 3}, {(1, 0): 2}),  # 3 / 2
        ({(5, 0): 1}, {(0, 0): 1}),  # a dividend past the bound
        ({(1, 0): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): 1}),  # a borrow on the heap
        ({(0, 1): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): 1}),  # a negative key
        ({(2, 0): 1}, {(1, 0): 2, (0, 1): 1}),  # 1 / 2
        ({(5, 0): 1, (4, 1): 1}, {(1, 0): 1, (0, 1): 1}),  # past the bound
    ]
    for num, den in failing:
        with pytest.raises(InexactDivision):
            quotient(packed(num), packed(den), guard)


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


# -- serialization ------------------------------------------------------------


def test_text_is_deterministic_and_ordered():
    x, y = XY.var("x"), XY.var("y")
    p = y**2 + x * y + 1
    q = 1 + x * y + y**2
    assert p.text() == q.text()
    assert p.text() == "x*y + y^2 + 1"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int/str digit limit",
)
def test_text_exact_beyond_int_str_digit_limit():
    x, y = XY.var("x"), XY.var("y")
    big = 10**5000 + 7
    p = XY.const(big) * x - Fraction(3, 2 * big + 1) * y**2 + Fraction(-big, 9)
    r = RatFunc(x + big, y - 1)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = f"-3/{2 * big + 1}*y^2 + {big}*x - {big}/9"
        want_r = f"x + {big}"
        sys.set_int_max_str_digits(640)  # the smallest limit CPython allows
        assert p.text() == want
        assert r.text() == f"({want_r}) / (y - 1)"
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
