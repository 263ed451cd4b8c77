"""Painleve pipeline: scalar constants, branches, extraction, residuals."""

from __future__ import annotations

import itertools
from decimal import Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tauvi.exactalg import MultiPoly, PolyRing, RatFunc, ZeroDenominator
import tauvi.painleve as painleve
from tauvi.painleve import (
    A_from_c,
    A_from_pvi,
    A_from_v,
    BranchError,
    DegenerateBranchError,
    FixedSingularityError,
    PainleveError,
    ZeroTauError,
    all_branches,
    apply_branch,
    branch_key,
    c_coefficients,
    canonical_branch,
    distinct_branches,
    f_from_tau0,
    okamoto_y,
    omega_products,
    pvi_params,
    pvi_residual,
    shift_ab,
    sigma_form_residual,
    sigma_from_f,
    solve_family,
    v_values,
)
from tauvi.taudet import WeightMatrix, normalize_params

from conftest import (
    SIGMA_DEN,
    SIGMA_NUM,
    Y_FLIP13_DEN_A,
    Y_FLIP13_DEN_B,
    Y_FLIP13_NUM,
    Y_ID_DEN,
    Y_ID_NUM,
    Y_SWAP23_DEN_A,
    Y_SWAP23_DEN_B,
    Y_SWAP23_NUM,
    Y_SWAP23_PREFIX,
    assert_ratfunc_equals,
    expand_d_table,
)

GOLDEN_BRANCHES = ("id", "flip13", "swap23")

fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


def _tring() -> PolyRing:
    return PolyRing(("t",))


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------


def test_c_coefficients_worked_example(params6):
    assert c_coefficients(params6) == (
        Fraction(-1),
        Fraction(4),
        Fraction(-13, 4),
        Fraction(-3),
        Fraction(3, 2),
        Fraction(-9, 4),
    )


def test_shift_ab_worked_example(params6):
    cs = c_coefficients(params6)
    assert shift_ab(cs[0], cs[1]) == (Fraction(1), Fraction(1))


def test_c5_and_c8_vanish_when_outer_nu_collide():
    params = normalize_params((-3, 0, 0), (-1, -1, -1))
    cs = c_coefficients(params)
    assert cs[0] == 0 and cs[3] == 0


def test_c9_vanishes_when_nu1_equals_nu2():
    params = normalize_params((-4, 0, 0), (-2, -2, 0))
    assert params.nu[0] == params.nu[1]
    assert c_coefficients(params)[4] == 0


def test_A_from_c_worked_example(params6):
    assert A_from_c(c_coefficients(params6)) == (9, 0, 24, 16)


def test_A_from_v_matches_A_from_c(params6):
    assert A_from_v(v_values(params6)) == A_from_c(c_coefficients(params6))


def test_A_from_pvi_uses_the_signed_root():
    alpha, beta, gamma, delta = Fraction(1, 2), Fraction(-2), Fraction(2), Fraction(-3, 2)
    assert A_from_pvi(alpha, beta, gamma, delta, -2) == (9, 0, 24, 16)
    # the other root of 1 - 2*delta = 4 lands on a different quartic
    assert A_from_pvi(alpha, beta, gamma, delta, 2) == (5, 0, 4, 0)


def test_A_from_pvi_rejects_non_root():
    with pytest.raises(PainleveError):
        A_from_pvi(Fraction(1, 2), Fraction(-2), Fraction(2), Fraction(-3, 2), 3)


def test_three_A_routes_agree_on_worked_example(params6):
    via_c = A_from_c(c_coefficients(params6))
    for branch in GOLDEN_BRANCHES:
        v = v_values(params6, branch)
        assert A_from_v(v) == via_c
        alpha, beta, gamma, delta = pvi_params(v)
        assert A_from_pvi(alpha, beta, gamma, delta, v[2] + v[3] + 1) == via_c


@given(
    vs=st.tuples(fractions_st, fractions_st, fractions_st, fractions_st),
    perm_ix=st.integers(min_value=0, max_value=191),
)
@settings(max_examples=60, deadline=None)
def test_A_from_v_branch_invariant(vs, perm_ix):
    branch = all_branches()[perm_ix]
    assert A_from_v(apply_branch(vs, branch)) == A_from_v(vs)


def test_v_values_worked_example(params6):
    assert v_values(params6, "id") == (2, 0, -2, -1)
    assert v_values(params6, "flip13") == (-2, 0, 2, -1)
    assert v_values(params6, "swap23") == (2, -2, 0, -1)


def test_v_values_invariant_under_common_shift():
    base = normalize_params((-4, -2, 0), (-3, -2, -1))
    shifted = normalize_params((-2, 0, 2), (-1, 0, 1))
    assert shifted.shift_c != base.shift_c
    for branch in GOLDEN_BRANCHES:
        assert v_values(shifted, branch) == v_values(base, branch)


def test_pvi_params_worked_example(params6):
    expected = {
        "id": (Fraction(1, 2), Fraction(-2), Fraction(2), Fraction(-3, 2)),
        "flip13": (Fraction(9, 2), Fraction(-2), Fraction(2), Fraction(-3, 2)),
        "swap23": (Fraction(1, 2), Fraction(0), Fraction(8), Fraction(1, 2)),
    }
    for branch, params in expected.items():
        assert pvi_params(v_values(params6, branch)) == params


# ---------------------------------------------------------------------------
# branch bookkeeping
# ---------------------------------------------------------------------------


def test_branch_aliases_canonicalize():
    assert canonical_branch("id") == "0123++++"
    assert canonical_branch("flip13") == "0123-+-+"
    assert canonical_branch("swap23") == "0213++++"


def test_apply_branch_permutes_then_signs():
    v = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert apply_branch(v, "1032+--+") == (2, -1, -4, 3)


@pytest.mark.parametrize(
    "bad",
    ["0123", "0124++++", "0123+++-", "0123+*++", "00123+++", "3210+-+-x"],
)
def test_malformed_branches_rejected(bad):
    with pytest.raises(BranchError):
        canonical_branch(bad)


def test_all_branches_count_and_validity():
    ids = all_branches()
    assert len(ids) == 192
    assert len(set(ids)) == 192
    for bid in ids:
        assert canonical_branch(bid) == bid


def test_branch_key_collapses_swaps_inside_pairs():
    v = (Fraction(5, 2), Fraction(-1), Fraction(3), Fraction(0))
    assert branch_key(apply_branch(v, "1023++++")) == branch_key(v)
    assert branch_key(apply_branch(v, "0132++++")) == branch_key(v)
    assert branch_key(apply_branch(v, "0123--++")) != branch_key(v)


def test_distinct_branches_worked_example(params6):
    reps = distinct_branches(params6)
    assert len(reps) == 28
    assert len({branch_key(v_values(params6, b)) for b in reps}) == 28
    for alias in GOLDEN_BRANCHES:
        assert canonical_branch(alias) in reps


# ---------------------------------------------------------------------------
# rational-function stages
# ---------------------------------------------------------------------------


def test_f_from_tau0_monomial():
    t = _tring().var("t")
    f = f_from_tau0(RatFunc(t**3))
    assert f == RatFunc(3 * t - 3)


def test_f_from_tau0_constant_is_zero():
    ring = _tring()
    assert f_from_tau0(RatFunc(ring.const(7))).is_zero


def test_f_from_tau0_rejects_zero():
    ring = _tring()
    with pytest.raises(ZeroTauError):
        f_from_tau0(RatFunc(ring.zero(), ring.one()))


def test_sigma_from_f_is_a_linear_shift():
    t = _tring().var("t")
    f = RatFunc(t**2)
    sigma = sigma_from_f(f, Fraction(3), Fraction(-1, 2))
    assert sigma == RatFunc(t**2 - 3 * t + Fraction(1, 2))


def test_omega_products_sum_to_minus_r2(params6, wsym):
    res = solve_family(params6, wsym, branches=["id"])
    p1, p2, p3 = omega_products(res.f, params6.R2)
    total = p1 + p2 + p3
    assert total == RatFunc(res.f.ring.const(-params6.R2))


def test_omega_products_zero_f():
    ring = _tring()
    p1, p2, p3 = omega_products(RatFunc(ring.zero(), ring.one()), 5)
    assert p1.is_zero and p2.is_zero
    assert p3 == RatFunc(ring.const(-5))


def test_omega_product_derivatives_share_f_double_prime(params6, wsym):
    res = solve_family(params6, wsym, branches=["id"])
    p1, p2, p3 = omega_products(res.f, params6.R2)
    t = res.f.ring.var("t")
    d1, d2, d3 = (p.derivative("t") for p in (p1, p2, p3))
    assert d1 == RatFunc(t - 1) * d2
    assert d3 == RatFunc(-t) * d2


# ---------------------------------------------------------------------------
# worked-example goldens (symbolic weights, exact)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden(params6, wsym):
    return solve_family(params6, wsym, branches=GOLDEN_BRANCHES)


def test_golden_sigma(golden, ring6):
    assert_ratfunc_equals(
        golden.sigma, expand_d_table(ring6, SIGMA_NUM), expand_d_table(ring6, SIGMA_DEN)
    )


def test_golden_branch_scalars(golden):
    assert golden.a == 1 and golden.b == 1
    assert golden.A == (9, 0, 24, 16)
    by = {b.branch: b for b in golden.branches}
    assert set(by) == {"0123++++", "0123-+-+", "0213++++"}
    assert by["0123++++"].v == (2, 0, -2, -1)
    for data in golden.branches:
        assert data.sigma == golden.sigma


def test_golden_y_identity_branch(golden, ring6):
    by = {b.branch: b for b in golden.branches}
    assert_ratfunc_equals(
        by["0123++++"].y,
        expand_d_table(ring6, Y_ID_NUM),
        expand_d_table(ring6, Y_ID_DEN),
    )


def test_golden_y_flip13_branch(golden, ring6):
    by = {b.branch: b for b in golden.branches}
    assert_ratfunc_equals(
        by["0123-+-+"].y,
        expand_d_table(ring6, Y_FLIP13_NUM),
        expand_d_table(ring6, Y_FLIP13_DEN_A) * expand_d_table(ring6, Y_FLIP13_DEN_B),
    )


def test_golden_y_swap23_branch(golden, ring6):
    by = {b.branch: b for b in golden.branches}
    assert_ratfunc_equals(
        by["0213++++"].y,
        expand_d_table(ring6, Y_SWAP23_PREFIX) * expand_d_table(ring6, Y_SWAP23_NUM),
        expand_d_table(ring6, Y_SWAP23_DEN_A) * expand_d_table(ring6, Y_SWAP23_DEN_B),
    )


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residuals_vanish_for_numeric_weight_draws(params6):
    for seed in (3, 5, 7, 11, 13):
        weights = WeightMatrix.random(seed)
        res = solve_family(params6, weights, branches=GOLDEN_BRANCHES)
        assert len(res.branches) == 3
        for data in res.branches:
            assert pvi_residual(
                data.y, data.alpha, data.beta, data.gamma, data.delta
            ).is_zero
            assert sigma_form_residual(res.sigma, data.v).is_zero


def test_pvi_residual_detects_perturbation(params6):
    res = solve_family(params6, WeightMatrix.random(3), branches=["id"])
    data = res.branches[0]
    t = data.y.ring.var("t")
    perturbed = data.y + RatFunc(t**2)
    assert not pvi_residual(
        perturbed, data.alpha, data.beta, data.gamma, data.delta
    ).is_zero


def test_sigma_residual_detects_perturbation(params6):
    res = solve_family(params6, WeightMatrix.random(3), branches=["id"])
    shifted = res.sigma + RatFunc(res.sigma.ring.one())
    assert not sigma_form_residual(shifted, res.branches[0].v).is_zero


def test_sigma_residual_is_the_same_on_every_branch(params6):
    res = solve_family(params6, WeightMatrix.random(3), branches=["id"])
    branches = distinct_branches(params6)
    for sigma in (res.sigma, res.sigma + RatFunc(res.sigma.ring.var("t") ** 2)):
        residuals = [sigma_form_residual(sigma, v_values(params6, b)) for b in branches]
        assert all(r == residuals[0] for r in residuals)
        assert residuals[0].is_zero == (sigma is res.sigma)


def _u2v2w2_numerator(y, alpha, beta, gamma, delta):
    """Reference for ``pvi_residual``: the PVI residual's numerator over
    2 t^2 (t-1)^2 Q^3 U^2 V^2 W^2, one term per term of the equation, and
    the factor U V W by which it exceeds the numerator over 2 t^2 (t-1)^2
    Q^3 U V W."""
    t = y.ring.var("t")
    P, Q = y.num, y.den
    U, V, W = P, P - Q, P - t * Q
    dP, dQ = P.derivative("t"), Q.derivative("t")
    N1 = dP * Q - P * dQ
    N2 = N1.derivative("t") * Q - 2 * dQ * N1
    tt1 = t * (t - 1)
    UVW = U * V * W
    num = (
        2 * tt1**2 * UVW**2 * N2
        - tt1**2 * N1**2 * (U * V + U * W + V * W) * UVW
        + 2 * N1 * Q * tt1 * (U * V) ** 2 * W * ((2 * t - 1) * W + tt1 * Q)
        - 2 * alpha * UVW**3
        - 2 * beta * t * Q**2 * U * (V * W) ** 3
        - 2 * gamma * (t - 1) * Q**2 * V * (U * W) ** 3
        - 2 * delta * tt1 * Q**2 * W * (U * V) ** 3
    )
    return num, UVW


def test_pvi_numerator_matches_the_u2v2w2_form():
    families = (
        (normalize_params((-4, -2, 0), (-3, -2, -1)), 3),
        (normalize_params((-3, -1, 0), (-2, -1, -1)), 5),
    )
    for params, seed in families:
        res = solve_family(params, WeightMatrix.random(seed))
        assert len(res.branches) >= 14
        t = res.sigma.ring.var("t")
        perturbed = res.branches[0].y + RatFunc(t**2, t.ring.const(7))
        cases = [(d.y, pvi_params(d.v), True) for d in res.branches]
        cases.append((perturbed, pvi_params(res.branches[0].v), False))
        for y, pvi, solves in cases:
            old, uvw = _u2v2w2_numerator(y, *pvi)
            new = pvi_residual(y, *pvi)
            assert old == new * uvw
            assert new.is_zero == solves


_ty_ring = PolyRing(("t", "w"))
_ty_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), fractions_st, max_size=5
).map(lambda terms: MultiPoly(_ty_ring, terms))


@settings(max_examples=60, deadline=None)
@given(_ty_polys, _ty_polys, st.tuples(*[fractions_st] * 4))
def test_pvi_numerator_matches_the_u2v2w2_form_on_random_y(p, q, pvi):
    t = _ty_ring.var("t")
    assume(not q.is_zero)
    y = RatFunc(p, q)
    assume(not any(x.is_zero for x in (y.num, y.num - y.den, y.num - t * y.den)))
    old, uvw = _u2v2w2_numerator(y, *pvi)
    assert old == pvi_residual(y, *pvi) * uvw


def test_failed_residuals_on_symbolic_weights_run_no_gcd(golden, monkeypatch):
    import tauvi.exactalg as exactalg

    data = {b.branch: b for b in golden.branches}["0123++++"]
    t = golden.sigma.ring.var("t")
    y = data.y + RatFunc(t**2, t.ring.const(7))
    sigma = golden.sigma + RatFunc(t**2)

    def no_gcd(a, b):
        raise AssertionError("a residual check ran poly_gcd")

    monkeypatch.setattr(exactalg, "poly_gcd", no_gcd)
    assert not pvi_residual(y, data.alpha, data.beta, data.gamma, data.delta).is_zero
    assert not sigma_form_residual(sigma, data.v).is_zero


# ---------------------------------------------------------------------------
# the Kronecker image behind both residual verdicts
# ---------------------------------------------------------------------------

# Every generic family whose Schur matrix is at most 4x4: mu with distinct
# entries, m1 <= 3 or m = (4,3,2), (4,3,1), and nu strictly inside the
# support box.  Twelve families.
SMALL_GENERIC = tuple(
    (mu, nu)
    for mu in ((-2, -1, 0), (-3, -1, 0), (-3, -2, 0), (-3, -2, -1), (-4, -3, -2), (-4, -3, -1))
    for nu in itertools.product(range(min(mu) + 1, max(mu)), repeat=3)
    if sum(nu) == sum(mu)
)


@pytest.fixture(scope="module")
def numeric_results():
    results = [
        solve_family(normalize_params(mu, nu), WeightMatrix.random(3)) for mu, nu in SMALL_GENERIC
    ]
    assert len(results) == 12
    assert sum(len(r.branches) for r in results) >= 100
    return results


def _perturbed(data, shift):
    return tuple(p + s for p, s in zip((data.alpha, data.beta, data.gamma, data.delta), shift))


def _pvi_image(y, params):
    P, Q = y.num, y.den
    return painleve._image(
        painleve._pvi_numerator, P, Q, *painleve._wronskians(P, Q), params, degree=6, den_power=1
    )


def _sigma_scalars(v):
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    return (v1 * v2 * v3 * v4, v1 * v1, v2 * v2, v3 * v3, v4 * v4)


def _sigma_image(sigma, v):
    sp, sq = sigma.num, sigma.den
    return painleve._image(
        painleve._sigma_numerator,
        sp,
        sq,
        *painleve._wronskians(sp, sq),
        _sigma_scalars(v),
        degree=8,
        den_power=4,
    )


def _kronecker_sum(R, image):
    """scale * R at the image's Kronecker point, summed term by term, with
    the strides a mixed radix over the image's degree bounds."""
    strides, s = [], 1
    for d in image.degrees:
        strides.append(s)
        s *= d + 1
    total = Decimal(0)
    with localcontext(painleve._EXACT):
        for e, c in R.terms.items():
            coeff = image.scale * R.content * c
            assert coeff.denominator == 1
            n = sum(e[i] * stride for i, stride in zip(image.pivots, strides))
            total += Decimal(coeff.numerator).scaleb(image.digits * n)
    return total


def _assert_image_bounds_hold(R, image):
    """On a residual R that does not vanish, the image's bounds dominate
    what R actually has, and the image is its Kronecker sum."""
    assert not R.is_zero
    for i, d in zip(image.pivots, image.degrees):
        assert max(e[i] for e in R.terms) <= d
    assert max(abs(image.scale * R.content * c) for c in R.terms.values()) <= image.bound
    assert 10**image.digits > 2 * image.bound + 1
    assert _kronecker_sum(R, image) == image.value != 0


def _assert_pvi_image_bounds_hold(y, params):
    _assert_image_bounds_hold(pvi_residual(y, *params), _pvi_image(y, params))


def _assert_sigma_image_bounds_hold(sigma, v):
    _assert_image_bounds_hold(sigma_form_residual(sigma, v), _sigma_image(sigma, v))


# The numerator of a failed check costs about 1.2 s on flip13 and swap23, so
# delta - 1 runs on id alone.
@pytest.mark.parametrize(
    "branch, shift",
    [(b, (Fraction(1, 7), 0, 0, 0)) for b in GOLDEN_BRANCHES] + [("id", (0, 0, 0, -1))],
)
def test_image_bounds_hold_on_perturbed_symbolic_branches(golden, branch, shift):
    data = {b.branch: b for b in golden.branches}[canonical_branch(branch)]
    _assert_pvi_image_bounds_hold(data.y, _perturbed(data, shift))


def test_image_bounds_hold_on_perturbed_numeric_branches(numeric_results):
    for res in numeric_results:
        for data in res.branches:
            _assert_pvi_image_bounds_hold(data.y, _perturbed(data, (0, Fraction(1, 3), 0, 0)))


# The image alone must decide: a nonzero image sends ``pvi_residual`` to the
# MultiPoly numerator, which would hide an image that is wrongly nonzero.
def test_image_verdict_matches_the_multipoly_numerator(numeric_results):
    for res in numeric_results:
        for data in res.branches:
            y = data.y
            N1, N2 = painleve._wronskians(y.num, y.den)
            for shift in ((0, 0, 0, 0), (0, Fraction(1, 3), 0, 0)):
                params = _perturbed(data, shift)
                image = _pvi_image(y, params)
                numerator = painleve._pvi_numerator(y.ring.var("t"), y.num, y.den, N1, N2, *params)
                assert (image.value == 0) == numerator.is_zero == (shift[1] == 0)
                assert pvi_residual(y, *params).is_zero == numerator.is_zero


def test_image_takes_coefficients_past_the_int_to_str_digit_limit():
    # 6000-digit coefficients: int's str() refuses more than 4300 digits.
    ring = PolyRing(("t", "w"))
    t, w = ring.var("t"), ring.var("w")
    big = 10**6000 + 7
    y = RatFunc(big * t * w + 1, t - 3 * w)
    pvi = (Fraction(1, 2), Fraction(-2), Fraction(2), Fraction(-3, 2))
    old, uvw = _u2v2w2_numerator(y, *pvi)
    assert old == pvi_residual(y, *pvi) * uvw != 0


def test_image_under_low_precision_raises_instead_of_rounding(golden, monkeypatch):
    low = Context(prec=50, Emax=painleve._EXACT.Emax, Emin=painleve._EXACT.Emin, traps=[Inexact, Rounded])
    monkeypatch.setattr(painleve, "_EXACT", low)
    data = golden.branches[0]
    with pytest.raises((Inexact, Rounded)):
        pvi_residual(data.y, data.alpha, data.beta, data.gamma, data.delta)
    with pytest.raises((Inexact, Rounded)):
        sigma_form_residual(golden.sigma, data.v)


# -- the same image behind the sigma-form verdict -----------------------------


def _old_sigma_residual(sigma, v):
    """Reference for ``sigma_form_residual``: the sigma form's numerator over
    sq^8, built term by term as a MultiPoly."""
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    ring = sigma.ring
    t = ring.var("t")
    sp, sq = sigma.num, sigma.den
    sd1, sd2 = painleve._wronskians(sp, sq)
    sq2 = sq * sq
    tt1 = t * (t - 1)
    e4 = v1 * v2 * v3 * v4
    term1 = sd1 * (tt1 * sd2) ** 2
    inner = sd1 * (2 * sp * sq - (2 * t - 1) * sd1) + e4 * (sq2 * sq2)
    term2 = inner * inner
    term3 = ring.one()
    for vk in (v1, v2, v3, v4):
        term3 = term3 * (sd1 + vk * vk * sq2)
    return term1 + term2 - term3


def _shifted_v(v, shift):
    return tuple(x + s for x, s in zip(v, shift))


@pytest.mark.parametrize("shift", [(Fraction(1, 7), 0, 0, 0), (0, 0, 0, -1)])
def test_sigma_image_bounds_hold_on_perturbed_symbolic_branches(golden, shift):
    for data in golden.branches:
        _assert_sigma_image_bounds_hold(golden.sigma, _shifted_v(data.v, shift))


def test_sigma_image_bounds_hold_on_perturbed_numeric_branches(numeric_results):
    for res in numeric_results:
        for data in res.branches:
            _assert_sigma_image_bounds_hold(res.sigma, _shifted_v(data.v, (Fraction(1, 3), 0, 0, 0)))


def test_sigma_image_verdict_matches_the_multipoly_numerator(numeric_results):
    for res in numeric_results:
        sp, sq = res.sigma.num, res.sigma.den
        sd1, sd2 = painleve._wronskians(sp, sq)
        t = res.sigma.ring.var("t")
        for data in res.branches:
            for shift in ((0, 0, 0, 0), (Fraction(1, 3), 0, 0, 0)):
                v = _shifted_v(data.v, shift)
                numerator = painleve._sigma_numerator(t, sp, sq, sd1, sd2, *_sigma_scalars(v))
                assert (_sigma_image(res.sigma, v).value == 0) == numerator.is_zero == (shift[0] == 0)
                assert sigma_form_residual(res.sigma, v).is_zero == numerator.is_zero


def test_failed_sigma_check_returns_the_old_numerator(golden, numeric_results):
    t = golden.sigma.ring.var("t")
    v = golden.branches[0].v
    cases = [(golden.sigma + RatFunc(t**2), v), (golden.sigma, _shifted_v(v, (0, 0, 0, -1)))]
    for res in numeric_results[:4]:
        for data in res.branches:
            cases.append((res.sigma, _shifted_v(data.v, (Fraction(1, 3), 0, 0, 0))))
    for sigma, v in cases:
        old = _old_sigma_residual(sigma, v)
        assert not old.is_zero
        assert sigma_form_residual(sigma, v) == old


_sigma_ring = PolyRing(("t", "w"))
_sigma_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), fractions_st, max_size=4
).map(lambda terms: MultiPoly(_sigma_ring, terms))


@settings(max_examples=30, deadline=None)
@given(_sigma_polys, _sigma_polys, st.tuples(*[fractions_st] * 4))
def test_sigma_residual_matches_the_old_numerator_on_random_sigma(p, q, v):
    assume(not q.is_zero)
    sigma = RatFunc(p, q)
    assert sigma_form_residual(sigma, v) == _old_sigma_residual(sigma, v)


# -- k and the strides decide a verdict ---------------------------------------


def _difference(t, P, Q, N1, N2, den):
    """P - t Q: a formula of degree 1 with no scalars."""
    return P - t * Q


def _difference_image(P, Q):
    N1, N2 = painleve._wronskians(P, Q)
    return painleve._image(_difference, P, Q, N1, N2, (), degree=1, den_power=0)


def test_one_digit_less_reads_a_nonzero_image_as_zero(monkeypatch):
    # R = c - t with c = 10^6: B = c + 1, so k = 7 and R(10^7) != 0, but the
    # digit c cancels the carry of t read at 10^6.
    ring = PolyRing(("t",))
    P, Q = ring.const(10**6), ring.one()
    image = _difference_image(P, Q)
    assert image.digits == 7 and image.value != 0
    width = painleve._width
    monkeypatch.setattr(painleve, "_width", lambda top: width(top) - 1)
    assert _difference_image(P, Q).value == 0


def test_one_stride_less_reads_a_nonzero_image_as_zero(monkeypatch):
    # R = w - t with pivots (t, w) and strides (1, 2): t and w land on X and
    # X^2.  A stride of 1 for w puts both on X, where they cancel.
    ring = PolyRing(("t", "w"))
    P, Q = ring.var("w"), ring.one()
    image = _difference_image(P, Q)
    assert image.pivots == (0, 1) and image.degrees == (1, 1) and image.value != 0
    strides = painleve._strides
    monkeypatch.setattr(painleve, "_strides", lambda d: [s - (i == 1) for i, s in enumerate(strides(d))])
    assert _difference_image(P, Q).value == 0


def test_linear_sigma_satisfies_sigma_form():
    # sigma = t + 1 with v = (1, -1, 1, -1): both sides reduce to the constant
    # identity (p(2q+p) + e4)^2 = prod(p + vk^2) with p = q = 1.
    t = _tring().var("t")
    sigma = RatFunc(t + 1)
    assert sigma_form_residual(sigma, (1, -1, 1, -1)).is_zero
    assert not sigma_form_residual(sigma, (1, -1, 2, 0)).is_zero


@pytest.mark.parametrize("which", ["zero", "one", "t"])
def test_fixed_points_raise(which):
    ring = _tring()
    t = ring.var("t")
    y = {"zero": RatFunc(ring.zero(), ring.one()), "one": RatFunc(ring.one()), "t": RatFunc(t)}[
        which
    ]
    with pytest.raises(FixedSingularityError):
        pvi_residual(y, Fraction(1, 2), Fraction(-2), Fraction(2), Fraction(-3, 2))


def test_y_equals_t_blocked_only_by_delta_term():
    # With y = t the alpha/beta/gamma bracket terms are honest rational
    # functions, but the delta term's denominator (y - t)^2 is the zero
    # polynomial -- it cannot even be written down.
    ring = _tring()
    t = ring.var("t")
    y = t
    RatFunc(ring.const(Fraction(1, 2)))  # alpha term
    RatFunc(Fraction(-2) * t, y**2)  # beta term
    RatFunc(Fraction(2) * (t - 1), (y - 1) ** 2)  # gamma term
    with pytest.raises(ZeroDenominator):
        RatFunc(Fraction(-3, 2) * t * (t - 1), (y - t) ** 2)


# ---------------------------------------------------------------------------
# extraction degeneracies and family-level behavior
# ---------------------------------------------------------------------------


def test_constant_sigma_with_zero_v3_is_degenerate():
    ring = _tring()
    with pytest.raises(DegenerateBranchError):
        okamoto_y(RatFunc(ring.const(1)), (1, -1, 0, 2))


def _okamoto_y_by_one_gcd(sigma, v):
    """Reference for ``okamoto_y``: y over 2 (sigma'+v3^2)(sigma'+v4^2),
    reduced by one gcd against the whole product."""
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    t = sigma.ring.var("t")
    sp, sq = sigma.num, sigma.den
    sd1, sd2 = painleve._wronskians(sp, sq)
    sq2 = sq * sq
    a_num = (sd1 + v3 * v3 * sq2) * (sd1 + v4 * v4 * sq2)
    vs = (v1, v2, v3, v4)
    e2 = sum(a * b for a, b in itertools.combinations(vs, 2))
    e3 = sum(a * b * c for a, b, c in itertools.combinations(vs, 3))
    b_num = t * (t - 1) * sd2 + sum(vs) * sd1 * sq - e3 * (sq * sq2)
    c_num = 2 * t * sd1 - 2 * sp * sq - e2 * sq2
    y_num = (v3 + v4) * b_num * sq + (sd1 - v3 * v4 * sq2) * c_num
    return RatFunc(y_num, 2 * a_num)


def _assert_split_gcd_matches_one_gcd(sigma, v):
    try:
        ref = _okamoto_y_by_one_gcd(sigma, v)
    except ZeroDenominator:
        with pytest.raises(DegenerateBranchError):
            okamoto_y(sigma, v)
        return
    y = okamoto_y(sigma, v)
    assert y.num == ref.num and y.den == ref.den


def test_okamoto_y_split_gcd_matches_one_gcd(numeric_results, params6, wsym):
    symbolic = solve_family(params6, wsym, branches=["id"])
    for res in numeric_results + [symbolic]:
        for b in distinct_branches(res.params):
            _assert_split_gcd_matches_one_gcd(res.sigma, v_values(res.params, b))


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[fractions_st] * 4))
def test_okamoto_y_split_gcd_matches_one_gcd_on_random_v(golden, v):
    _assert_split_gcd_matches_one_gcd(golden.sigma, v)


def test_every_branch_of_the_trivial_family_degenerates():
    params = normalize_params((-1, -1, 0), (-1, -1, 0))
    assert params.R2 == 0
    res = solve_family(params, WeightMatrix.random(1))
    assert res.branches == ()
    assert len(res.degenerate) == 5
    for _, reason in res.degenerate:
        assert "identically zero" in reason


def test_solve_family_rejects_off_support_nu():
    params = normalize_params((-4, -2, 0), (-5, 0, -1))
    with pytest.raises(ZeroTauError):
        solve_family(params, WeightMatrix.random(2))


def test_solve_family_shift_invariance():
    weights = WeightMatrix.random(9)
    base = solve_family(normalize_params((-4, -2, 0), (-3, -2, -1)), weights, branches=["id"])
    moved = solve_family(normalize_params((-1, 1, 3), (0, 1, 2)), weights, branches=["id"])
    assert moved.sigma == base.sigma
    assert moved.branches[0].y == base.branches[0].y


def test_solve_family_dedupes_aliased_branches(params6):
    weights = WeightMatrix.random(4)
    deduped = solve_family(params6, weights, branches=["id", "0123++++", "1023++++"])
    assert len(deduped.branches) == 1
