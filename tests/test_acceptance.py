"""Acceptance gate: one test per criterion, each printing its own verdict.

Exact checks carry zero tolerance (polynomial identities over Q); the only
floating-point criterion is the Euler-top run, whose bounds are pinned below.
Every test asserts its own wall-clock budget.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from tauvi.eulertop import conserved_from_family, init_from_tau, integrate, monitor
from tauvi.exactalg import PolyRing
from tauvi.fockoracle import build_G_vacuum, tau_from_G, tau_oracle
from tauvi.painleve import (
    A_from_c,
    A_from_pvi,
    A_from_v,
    c_coefficients,
    omega_products,
    pvi_params,
    pvi_residual,
    sigma_form_residual,
    solve_family,
    v_values,
)
from tauvi.schur import TimeVector
from tauvi.taudet import (
    WEIGHT_SYMBOLS,
    TauFamily,
    WeightMatrix,
    normalize_params,
    rotation_beta,
    tau_from_A,
    tau_from_E,
    time_symbols,
)

from conftest import (
    SIGMA_DEN,
    SIGMA_NUM,
    TAU0_NUM,
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
    d_polys,
    expand_d_table,
)

FAMILY_SEED = 20260814


def _verdict(label: str, elapsed: float, budget: float) -> None:
    print(f"{label}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def _random_families(count: int = 20):
    """Deterministic sample of valid scaling data with m1 <= 3 and R2 >= 1."""
    rng = random.Random(FAMILY_SEED)
    seen, families = set(), []
    while len(families) < count:
        m1 = rng.randint(1, 3)
        m2 = rng.randint(0, m1)
        m3 = rng.randint(0, m2)
        mu = (-m1, -m2, -m3)
        box = range(-m1, -m3 + 1)
        nu = tuple(rng.choice(list(box)) for _ in range(3))
        if sum(nu) != sum(mu):
            continue
        shift = rng.randint(0, 2)
        params = normalize_params(
            tuple(x + shift for x in mu), tuple(x + shift for x in nu)
        )
        if not params.in_support(params.nu) or params.R2 < 1:
            continue
        key = (params.m, params.nu)
        if key in seen:
            continue
        seen.add(key)
        families.append(params)
    return families


def test_criterion_1_reference_family_golden_data(params6, wsym, ring6):
    start = time.monotonic()
    assert params6.R2 == 3
    result = solve_family(params6, wsym, branches=["id"])
    D, _, _ = d_polys(ring6)
    t = ring6.var("t")
    assert_ratfunc_equals(result.tau0, D * expand_d_table(ring6, TAU0_NUM), 6 * t**3)
    assert_ratfunc_equals(
        result.sigma,
        expand_d_table(ring6, SIGMA_NUM),
        expand_d_table(ring6, SIGMA_DEN),
    )
    data = result.branches[0]
    assert data.v == (2, 0, -2, -1)
    assert (data.alpha, data.beta, data.gamma, data.delta) == (
        Fraction(1, 2),
        Fraction(-2),
        Fraction(2),
        Fraction(-3, 2),
    )
    assert_ratfunc_equals(
        data.y, expand_d_table(ring6, Y_ID_NUM), expand_d_table(ring6, Y_ID_DEN)
    )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _verdict("criterion 1 (reference family, exact)", elapsed, 5.0)


def test_criterion_2_alternative_branches(params6, wsym, ring6):
    start = time.monotonic()
    result = solve_family(params6, wsym, branches=["flip13", "swap23"])
    by = {b.branch: b for b in result.branches}
    flip = by["0123-+-+"]
    assert (flip.alpha, flip.beta, flip.gamma, flip.delta) == (
        Fraction(9, 2),
        Fraction(-2),
        Fraction(2),
        Fraction(-3, 2),
    )
    assert_ratfunc_equals(
        flip.y,
        expand_d_table(ring6, Y_FLIP13_NUM),
        expand_d_table(ring6, Y_FLIP13_DEN_A) * expand_d_table(ring6, Y_FLIP13_DEN_B),
    )
    swap = by["0213++++"]
    assert (swap.alpha, swap.beta, swap.gamma, swap.delta) == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(8),
        Fraction(1, 2),
    )
    assert_ratfunc_equals(
        swap.y,
        expand_d_table(ring6, Y_SWAP23_PREFIX) * expand_d_table(ring6, Y_SWAP23_NUM),
        expand_d_table(ring6, Y_SWAP23_DEN_A) * expand_d_table(ring6, Y_SWAP23_DEN_B),
    )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _verdict("criterion 2 (alternative branches, exact)", elapsed, 5.0)


def test_criterion_3_residuals_vanish_for_random_families():
    start = time.monotonic()
    families = _random_families(20)
    assert len(families) == 20
    checks = 0
    contributing = 0
    for i, params in enumerate(families):
        family_checks = 0
        for s in range(5):
            weights = WeightMatrix.random(1000 + 10 * i + s)
            result = solve_family(params, weights)
            for data in result.branches:
                assert pvi_residual(
                    data.y, data.alpha, data.beta, data.gamma, data.delta
                ).is_zero, (params.m, params.nu, data.branch)
                assert sigma_form_residual(result.sigma, data.v).is_zero, (
                    params.m,
                    params.nu,
                    data.branch,
                )
                family_checks += 1
        checks += family_checks
        contributing += bool(family_checks)
    # the sample must actually exercise the theorem, not just degenerate cases
    assert checks >= 200 and contributing >= 3
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _verdict(
        f"criterion 3 (residuals, {checks} branch checks, zero tolerance)",
        elapsed,
        120.0,
    )


def test_criterion_4_three_way_tau_agreement():
    start = time.monotonic()
    weights = WeightMatrix.symbolic()
    order = 2
    ring = PolyRing(WEIGHT_SYMBOLS + time_symbols(order))
    u = TimeVector.symbolic(ring, order)
    cases = 0
    for m1 in range(0, 4):
        for m2 in range(0, m1 + 1):
            for m3 in range(0, m2 + 1):
                params = normalize_params((-m1, -m2, -m3), (-m1, -m2, -m3))
                for n1 in range(-m1, -m3 + 1):
                    for n2 in range(-m1, -m3 + 1):
                        n3 = -(m1 + m2 + m3) - n1 - n2
                        if not -m1 <= n3 <= -m3:
                            continue
                        nu = (n1, n2, n3)
                        via_oracle = tau_oracle(params, weights, u, ring, nu=nu)
                        via_e = tau_from_E(params, weights, u, ring, nu=nu)
                        via_a = tau_from_A(params, weights, u, ring, nu=nu)
                        assert via_oracle == via_e == via_a, (params.m, nu)
                        cases += 1
    assert cases == 104
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _verdict(f"criterion 4 (three-way agreement, {cases} cases)", elapsed, 120.0)


def _three_way_disagreements_at_m1_4(oracle_weights, route_e=tau_from_E, m23=None):
    """(m, nu) of every support case with m1 = 4 where the oracle, read from
    one G|0> per triple, and the two determinant routes do not all agree,
    and the number of cases compared."""
    weights = WeightMatrix.symbolic()
    order = 2
    ring = PolyRing(WEIGHT_SYMBOLS + time_symbols(order))
    u = TimeVector.symbolic(ring, order)
    m1 = 4
    bad, cases = [], 0
    for m2, m3 in m23 or [(m2, m3) for m2 in range(m1 + 1) for m3 in range(m2 + 1)]:
        params = normalize_params((-m1, -m2, -m3), (-m1, -m2, -m3))
        G = build_G_vacuum(params, oracle_weights, u, ring)
        for n1 in range(-m1, -m3 + 1):
            for n2 in range(-m1, -m3 + 1):
                n3 = -(m1 + m2 + m3) - n1 - n2
                if not -m1 <= n3 <= -m3:
                    continue
                nu = (n1, n2, n3)
                via_oracle = tau_from_G(G, nu, ring)
                via_e = route_e(params, weights, u, ring, nu=nu)
                via_a = tau_from_A(params, weights, u, ring, nu=nu)
                if not via_oracle == via_e == via_a:
                    bad.append((params.m, nu))
                cases += 1
    return bad, cases


def test_three_way_tau_agreement_at_m1_4():
    start = time.monotonic()
    bad, cases = _three_way_disagreements_at_m1_4(WeightMatrix.symbolic())
    assert bad == []
    assert cases == 155
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _verdict(f"three-way agreement at m1 = 4 ({cases} cases)", elapsed, 60.0)


class _ShiftedWeight(WeightMatrix):
    """Symbolic weights with w12 read as w12 + 1."""

    def entry(self, a, b, ring):
        entry = super().entry(a, b, ring)
        return entry + 1 if (a, b) == (1, 2) else entry


def test_three_way_check_at_m1_4_catches_a_perturbed_weight():
    bad, cases = _three_way_disagreements_at_m1_4(
        _ShiftedWeight.symbolic(), m23=[(2, 1)]
    )
    assert cases > 0 and bad


def test_three_way_check_at_m1_4_catches_a_flipped_route_sign():
    def flipped_e(*args, **kwargs):
        return -tau_from_E(*args, **kwargs)

    bad, cases = _three_way_disagreements_at_m1_4(
        WeightMatrix.symbolic(), route_e=flipped_e, m23=[(2, 1)]
    )
    assert len(bad) == cases > 0


def test_criterion_5_tau_property_suite(params6, wsym):
    start = time.monotonic()

    # support vanishing: tau0 == 0 exactly off the lattice box
    for mu in ((-2, -1, 0), (-2, -2, -1), (-1, -1, -1)):
        total = sum(mu)
        m1, m3 = -min(mu), -max(mu)
        fam = None
        for n1 in range(-m1 - 1, -m3 + 2):
            for n2 in range(-m1 - 1, -m3 + 2):
                nu = (n1, n2, total - n1 - n2)
                params = normalize_params(mu, nu)
                if fam is None:
                    fam = TauFamily(params, wsym)
                assert fam.tau0(nu).is_zero == (not params.in_support(nu))

    # unity-field annihilation and first-time homogeneity
    ring = PolyRing(WEIGHT_SYMBOLS + time_symbols(1))
    u = TimeVector.symbolic(ring, 1)
    tau = tau_from_E(params6, wsym, u, ring)
    assert (
        tau.derivative("u11") + tau.derivative("u21") + tau.derivative("u31")
    ).is_zero
    lam = Fraction(3, 5)
    scaled = tau.subs({f"u{a}1": ring.var(f"u{a}1") * lam for a in (1, 2, 3)})
    assert scaled == tau * lam**params6.R2

    # rotation-coefficient scaling degree -1 - nu_i + nu_j
    fam6 = TauFamily(params6, wsym)
    lam, t0 = Fraction(2, 7), Fraction(1, 3)
    for i, j in itertools.permutations((1, 2, 3), 2):
        base = rotation_beta(fam6, i, j, t0=t0, h0=Fraction(1))
        scaled = rotation_beta(fam6, i, j, t0=t0, h0=lam)
        assert scaled == base * lam ** (-(1 + params6.nu[i - 1] - params6.nu[j - 1]))

    # Hessian identity: tau*didj(tau) - di(tau)*dj(tau) == tau(+)*tau(-)
    p = normalize_params((-2, -1, 0), (-1, -1, -1))
    tau = tau_from_E(p, wsym, u, ring)
    for i, j in itertools.combinations((1, 2, 3), 2):
        lhs = tau * tau.derivative(f"u{i}1").derivative(f"u{j}1") - tau.derivative(
            f"u{i}1"
        ) * tau.derivative(f"u{j}1")
        plus, minus = list(p.nu), list(p.nu)
        plus[i - 1] += 1
        plus[j - 1] -= 1
        minus[i - 1] -= 1
        minus[j - 1] += 1
        rhs = tau_from_E(p, wsym, u, ring, nu=tuple(plus)) * tau_from_E(
            p, wsym, u, ring, nu=tuple(minus)
        )
        assert (lhs - rhs).is_zero
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _verdict("criterion 5 (tau property suite, exact)", elapsed, 60.0)


def test_criterion_6_euler_top_monitors(params6):
    start = time.monotonic()
    family = TauFamily(params6, WeightMatrix.random(11))
    cons = conserved_from_family(family)
    state = init_from_tau(family, Fraction(1, 10))
    traj = integrate(state, params6.nu, 0.9, tol=1e-10)
    samples = [0.1 + 0.8 * i / 19 for i in range(20)]
    report = monitor(traj, cons, samples)
    assert max(report["max"]) <= 1e-8
    closed = omega_products(cons.f, params6.R2)
    for row in report["rows"]:
        for i, prod in enumerate(closed):
            target = prod.eval_float({"t": row["t"]})
            have = row["omega"][i] * row["omega_bar"][i]
            assert abs(have - target) <= 1e-8 * abs(target)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _verdict(
        f"criterion 6 (Euler top, drift <= {max(report['max']):.1e})", elapsed, 10.0
    )


def test_criterion_7_quartic_invariants_three_routes():
    start = time.monotonic()
    families = _random_families(20)
    checked = 0
    for params in families:
        via_c = A_from_c(c_coefficients(params))
        for branch in ("id", "flip13", "swap23"):
            v = v_values(params, branch)
            assert A_from_v(v) == via_c, (params.m, params.nu, branch)
            alpha, beta, gamma, delta = pvi_params(v)
            assert A_from_pvi(alpha, beta, gamma, delta, v[2] + v[3] + 1) == via_c
            checked += 1
    assert checked == 60
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _verdict("criterion 7 (invariants via three routes, exact)", elapsed, 60.0)
