"""Tau determinants: normalization, matrices, signs, rotation coefficients."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from tauvi.exactalg import (
    DegenerateSpecialization,
    PolyRing,
    RatFunc,
    fraction_free_det,
)
from tauvi.schur import TimeVector
from tauvi.taudet import (
    ScalingDataError,
    TauFamily,
    WeightMatrix,
    build_A,
    build_E,
    build_T,
    normalize_params,
    rotation_beta,
    rotation_beta_bar,
    sign_A,
    sign_E,
    tau_from_A,
    tau_from_E,
    tau_ring,
    time_symbols,
)

from conftest import TAU0_NUM, assert_ratfunc_equals, d_polys, expand_d_table


def _u_ring(order: int) -> PolyRing:
    from tauvi.taudet import WEIGHT_SYMBOLS

    return PolyRing(time_symbols(order) + WEIGHT_SYMBOLS)


# -- parameter normalization --------------------------------------------------


def test_normalize_worked_example(params6):
    assert params6.m == (4, 2, 0)
    assert params6.R2 == 3
    assert params6.p == 3
    assert params6.shift_c == 0
    assert params6.mu == (-4, -2, 0)


def test_normalize_all_zero():
    p = normalize_params((0, 0, 0), (0, 0, 0))
    assert p.m == (0, 0, 0)
    assert p.R2 == 0
    assert p.in_support((0, 0, 0))
    assert not p.in_support((1, -1, 0))


def test_normalize_r2_direct_evaluation():
    p = normalize_params((-3, -1, -1), (-2, -2, -1))
    assert p.R2 == 1


def test_normalize_applies_common_shift():
    # raw data shifted by +1 relative to the worked example
    p = normalize_params((-3, -1, 1), (-2, -1, 0))
    assert p.shift_c == 1
    assert p.mu == (-4, -2, 0)
    assert p.nu == (-3, -2, -1)
    assert p.R2 == 3


def test_normalize_sorts_m_descending():
    p = normalize_params((0, -3, -1), (-2, -1, -1))
    assert p.m == (3, 1, 0)


def test_trace_violation_rejected():
    with pytest.raises(ScalingDataError):
        normalize_params((-4, -2, 0), (-3, -2, 0))


def test_support_box(params6):
    # -m1 <= nu_i <= -m3 and the trace condition
    assert params6.in_support((-3, -2, -1))
    assert params6.in_support((-4, -2, 0))  # boundary
    assert not params6.in_support((-5, -1, 0))  # nu1 < -m1
    assert not params6.in_support((-3, -4, 1))  # nu3 > -m3
    assert params6.r2_of((-4, -2, 0)) == 0


# -- weight matrices ----------------------------------------------------------


def test_weight_random_is_deterministic():
    assert WeightMatrix.random(5) == WeightMatrix.random(5)
    assert WeightMatrix.random(5) != WeightMatrix.random(6)


def test_weight_random_is_invertible():
    for seed in range(12):
        assert WeightMatrix.random(seed)._numeric_det() != 0


def test_weight_singular_rejected():
    with pytest.raises(ValueError):
        WeightMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


def test_weight_mixed_entries_rejected():
    rows = [[None, 1, 1], [1, 1, 1], [1, 1, 2]]
    with pytest.raises(ValueError):
        WeightMatrix(tuple(tuple(r) for r in rows))


def test_weight_entry_and_value():
    w = WeightMatrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    assert w.value(1, 2) == 2
    assert w.value(3, 1) == 5
    ring = tau_ring(WeightMatrix.symbolic())
    sym = WeightMatrix.symbolic()
    assert sym.entry(2, 3, ring) == ring.var("w23")
    with pytest.raises(ValueError):
        sym.value(1, 1)


def test_weight_json_forms():
    assert WeightMatrix.symbolic().to_json() == "symbolic"
    w = WeightMatrix.from_rows([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 3]])
    assert w.to_json()[1][1] == "1/2"


# -- sign factors -------------------------------------------------------------


def test_sign_pins_worked_example(params6):
    nu = params6.nu
    assert sign_E(4, nu) == -1
    assert sign_A(3, 4, nu) == -1
    assert sign_E(0, (0, 0, 0)) == 1
    assert sign_A(0, 0, (0, 0, 0)) == 1


# -- the T matrix and tau0 ----------------------------------------------------


def test_build_T_worked_example_structure(params6, wsym, ring6):
    mat = build_T(params6, wsym, ring6)
    texts = [[e.text() for e in row] for row in mat]
    assert texts == [
        ["w33", "w33", "0", "0", "0", "0"],
        ["1/2*w33", "w33", "w33", "0", "w32", "0"],
        ["1/6*w33", "1/2*w33", "w33", "w33", "w32", "w32"],
        ["1/2*t^2*w23", "t*w23", "w23", "0", "w22", "0"],
        ["1/6*t^3*w23", "1/2*t^2*w23", "t*w23", "w23", "t*w22", "w22"],
        ["0", "0", "0", "w13", "0", "w12"],
    ]


def test_tau0_worked_example_golden(params6, wsym, ring6):
    got = TauFamily(params6, wsym).tau0()
    D, _, _ = d_polys(ring6)
    t = ring6.var("t")
    num = D * expand_d_table(ring6, TAU0_NUM)
    den = 6 * t**3
    assert_ratfunc_equals(got, num, den)


def test_tau0_empty_family_is_one():
    p = normalize_params((0, 0, 0), (0, 0, 0))
    w = WeightMatrix.symbolic()
    assert TauFamily(p, w).tau0() == 1


def test_tau0_off_support_is_zero(params6, wsym):
    fam = TauFamily(params6, wsym)
    assert fam.tau0((-3, 1, -4)).is_zero  # nu2 > -m3
    assert fam.tau0((-5, 0, -1)).is_zero  # nu1 < -m1
    assert build_T(params6, wsym, fam.ring, nu=(-5, 0, -1)) is None


def test_tau0_boundary_point_nonzero(params6, wsym):
    fam = TauFamily(params6, wsym)
    r = fam.tau0((-4, -2, 0))
    assert not r.is_zero
    # R2 = 0 on this boundary point: no t-pole at all
    assert params6.r2_of((-4, -2, 0)) == 0


def test_one_by_one_matrix_case():
    p = normalize_params((-1, -1, 0), (-1, -1, 0))
    w = WeightMatrix.symbolic()
    ring = tau_ring(w)
    mat = build_T(p, w, ring)
    assert len(mat) == 1
    got = TauFamily(p, w).tau0()
    assert not got.is_zero


# -- E and A matrices ---------------------------------------------------------


def test_E_with_projected_times_is_T(params6, wsym, ring6):
    t = ring6.var("t")
    u = TimeVector((Fraction(0),), (t,), (ring6.one(),))
    E = build_E(params6, wsym, u, ring6)
    T = build_T(params6, wsym, ring6)
    assert all(a == b for ra, rb in zip(E, T) for a, b in zip(ra, rb))


def test_E_zero_times_pure_weight_polynomial():
    # R2 = 0 family: the constant term in u of tau is a nonzero w-polynomial
    p = normalize_params((-1, -1, 0), (-1, -1, 0))
    w = WeightMatrix.symbolic()
    ring = tau_ring(w, extra=())
    det = tau_from_E(p, w, TimeVector.zero(1), ring)
    assert not det.is_zero
    assert det.total_degree() > 0  # made of w symbols only


def test_E_zero_times_vanishes_when_r2_positive(params6, wsym):
    # deg_u tau = R2 = 3 > 0 forces the all-times-zero value to vanish
    ring = tau_ring(wsym, extra=())
    det = tau_from_E(params6, wsym, TimeVector.zero(1), ring)
    assert det.is_zero


def test_factorization_into_h_power_times_tau0(params6, wsym):
    """tau evaluated at u = (0, h, h/t) equals h^R2 * tau0(t) exactly."""
    fam = TauFamily(params6, wsym)
    ring0 = tau_ring(wsym, extra=())
    base = fam.tau0()
    for t0, h0 in ((Fraction(2, 3), Fraction(3)), (Fraction(1, 2), Fraction(-2))):
        u = TimeVector((Fraction(0),), (h0,), (h0 / t0,))
        val = tau_from_E(params6, wsym, u, ring0, nu=params6.nu).embed(fam.ring)
        assert RatFunc(val) == base.specialize({"t": t0}) * h0**params6.R2


def test_A_matches_E_on_worked_example(params6, wsym):
    ring = _u_ring(1)
    u = TimeVector.symbolic(ring, 1)
    assert tau_from_A(params6, wsym, u, ring) == tau_from_E(
        params6, wsym, u, ring
    )


def test_A_is_3p_by_3p():
    p = normalize_params((-1, 0, 0), (-1, 0, 0))
    w = WeightMatrix.random(2)
    ring = PolyRing(time_symbols(1))
    u = TimeVector.symbolic(ring, 1)
    mat = build_A(p, w, u, ring)
    assert len(mat) == 3  # p = max(m1 + nu_i) = 1
    # det agrees with tau0 after the projection substitution
    t0 = Fraction(3, 7)
    proj = tau_from_A(p, w, u, ring, nu=p.nu).eval_all(
        {"u11": 0, "u21": t0, "u31": 1}
    )
    fam = TauFamily(p, w)
    assert proj == fam.tau0().eval_all({"t": t0}) * t0**p.R2


# -- scaling identities -------------------------------------------------------


def test_unity_field_annihilates_tau(params6, wsym):
    ring = _u_ring(1)
    u = TimeVector.symbolic(ring, 1)
    tau = tau_from_E(params6, wsym, u, ring)
    total = (
        tau.derivative("u11") + tau.derivative("u21") + tau.derivative("u31")
    )
    assert total.is_zero


def test_homogeneity_in_first_times(params6, wsym):
    ring = _u_ring(1)
    u = TimeVector.symbolic(ring, 1)
    tau = tau_from_E(params6, wsym, u, ring)
    lam = Fraction(3, 5)
    scaled = tau.subs({f"u{a}1": ring.var(f"u{a}1") * lam for a in (1, 2, 3)})
    assert scaled == tau * lam**params6.R2


def test_weighted_degree_equals_r2():
    # grading deg(u_{a,n}) = n: every monomial of tau has weighted degree R2
    p = normalize_params((-2, -1, 0), (-1, -1, -1))
    w = WeightMatrix.symbolic()
    ring = _u_ring(2)
    u = TimeVector.symbolic(ring, 2)
    tau = tau_from_E(p, w, u, ring)
    weights = {}
    for a in (1, 2, 3):
        for n in (1, 2):
            weights[ring.index(f"u{a}{n}")] = n
    for exp in tau.terms:
        wd = sum(n * exp[i] for i, n in weights.items())
        assert wd == p.R2


def test_support_sweep_small_families():
    """tau0 vanishes exactly on the lattice points outside the box."""
    w = WeightMatrix.symbolic()
    for mu in ((-2, -1, 0), (-2, -2, -1), (-1, -1, -1)):
        total = sum(mu)
        m1, m3 = -min(mu), -max(mu)
        fam = None
        # sweep one ring beyond the box in both free coordinates
        for n1 in range(-m1 - 1, -m3 + 2):
            for n2 in range(-m1 - 1, -m3 + 2):
                nu = (n1, n2, total - n1 - n2)
                params = normalize_params(mu, nu)
                if fam is None:
                    fam = TauFamily(params, w)
                assert fam.tau0(nu).is_zero == (not params.in_support(nu)), (
                    mu,
                    nu,
                )


# -- rotation coefficients ----------------------------------------------------


def test_rotation_beta_off_support_shift_is_zero(params6, wsym):
    fam = TauFamily(params6, wsym)
    # nu + e3 - e1 = (-4, -2, 0): in support; nu + e1 - e3 = (-2, -2, -2): in
    # support too, so use a family where some shift leaves the box.
    p = normalize_params((-1, -1, 0), (-1, -1, 0))
    fam_small = TauFamily(p, WeightMatrix.symbolic())
    assert rotation_beta(fam_small, 3, 1).is_zero  # nu -> (-2, -1, 1)


def test_rotation_beta_is_determinant_ratio(params6):
    w = WeightMatrix.random(3)
    fam = TauFamily(params6, w)
    ring = fam.ring
    beta = rotation_beta(fam, 1, 2, t0=Fraction(1, 2))
    # independent route: both determinants straight from the matrices
    num = fraction_free_det(build_T(params6, w, ring, nu=(-2, -3, -1)), ring)
    den = fraction_free_det(build_T(params6, w, ring, nu=params6.nu), ring)
    nu = params6.nu
    # -sgn(i-j) = +1 for (i,j) = (1,2); parity m1*([i=2]+[j=2]) + tr + nu_k
    sign = -1 if (4 * (0 + 1) + sum(nu) + nu[2]) % 2 else 1
    power = nu[1] - nu[0] - 1
    t0 = Fraction(1, 2)
    want = (
        sign
        * t0 ** (-power)
        * num.eval_all({"t": t0})
        / den.eval_all({"t": t0})
    )
    assert beta.constant_value() == want


def test_rotation_beta_scaling_in_h(params6, wsym):
    """beta_ij picks up lambda^{-(1 + nu_i - nu_j)} when u is scaled."""
    fam = TauFamily(params6, wsym)
    lam = Fraction(2, 7)
    t0 = Fraction(1, 3)
    nu = params6.nu
    for i, j in itertools.permutations((1, 2, 3), 2):
        base = rotation_beta(fam, i, j, t0=t0, h0=Fraction(1))
        scaled = rotation_beta(fam, i, j, t0=t0, h0=lam)
        expect = base * lam ** (-(1 + nu[i - 1] - nu[j - 1]))
        assert scaled == expect


def test_rotation_beta_bar_definition(params6, wsym):
    fam = TauFamily(params6, wsym)
    h0 = Fraction(5, 2)
    nu = params6.nu
    for i, j in ((1, 2), (2, 3), (3, 1)):
        left = rotation_beta_bar(fam, i, j, t0=Fraction(1, 3), h0=h0)
        right = rotation_beta(fam, i, j, t0=Fraction(1, 3), h0=h0) * h0 ** (
            nu[i - 1] - nu[j - 1]
        )
        assert left == right


def test_rotation_beta_rejects_bad_indices(params6, wsym):
    fam = TauFamily(params6, wsym)
    with pytest.raises(ValueError):
        rotation_beta(fam, 1, 1)
    with pytest.raises(ValueError):
        rotation_beta(fam, 0, 2)


def test_rotation_beta_pole_at_denominator_zero():
    # weights chosen so det T(nu) has a root at t = 1/2
    w = WeightMatrix.from_rows([[1, 1, 1], [0, 2, 1], [0, 3, 1]])
    p = normalize_params((-4, -2, 0), (-3, -2, -1))
    fam = TauFamily(p, w)
    with pytest.raises(DegenerateSpecialization):
        rotation_beta(fam, 1, 2, t0=Fraction(1, 2))


def test_hessian_identity_via_shifted_taus():
    """tau * didj(tau) - di(tau) * dj(tau) == tau(nu+ei-ej) * tau(nu+ej-ei).

    This is the polynomial form of d_i d_j log tau = -beta_ij beta_ji: the
    product beta_ij beta_ji carries opposite orientation signs, so the
    shifted-tau product enters with a plus sign.
    """
    p = normalize_params((-2, -1, 0), (-1, -1, -1))
    w = WeightMatrix.symbolic()
    ring = _u_ring(1)
    u = TimeVector.symbolic(ring, 1)
    nu = p.nu
    tau = tau_from_E(p, w, u, ring)
    for i, j in itertools.combinations((1, 2, 3), 2):
        lhs = tau * tau.derivative(f"u{i}1").derivative(f"u{j}1") - tau.derivative(
            f"u{i}1"
        ) * tau.derivative(f"u{j}1")
        plus = list(nu)
        plus[i - 1] += 1
        plus[j - 1] -= 1
        minus = list(nu)
        minus[i - 1] -= 1
        minus[j - 1] += 1
        tp = tau_from_E(p, w, u, ring, nu=tuple(plus))
        tm = tau_from_E(p, w, u, ring, nu=tuple(minus))
        assert (lhs - tp * tm).is_zero
