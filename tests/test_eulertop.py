"""Euler-top flow: exact seeding, adaptive integration, conservation monitors."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from tauvi.eulertop import (
    CSV_HEADER,
    EulerState,
    EulerTopError,
    PoleDetected,
    _error_norm,
    conserved_from_family,
    init_from_tau,
    integrate,
    monitor,
    monitor_csv,
    rhs,
)
from tauvi.painleve import omega_products
from tauvi.taudet import TauFamily, WeightMatrix, normalize_params

NU6 = (-3, -2, -1)


def _det3_exact(mat):
    return (
        mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
        - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
        + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
    )


@pytest.fixture(scope="module")
def family6():
    return TauFamily(normalize_params((-4, -2, 0), (-3, -2, -1)), WeightMatrix.random(11))


@pytest.fixture(scope="module")
def seeded6(family6):
    return init_from_tau(family6, Fraction(1, 2))


# ---------------------------------------------------------------------------
# vector field
# ---------------------------------------------------------------------------


def test_rhs_fixes_the_origin():
    assert rhs(0.37, (0.0,) * 6, NU6) == (0.0,) * 6


def test_rhs_symmetric_under_bar_swap_when_nu_equal():
    # with nu1 = nu2 = nu3 the linear terms drop and omega <-> omega_bar is a
    # symmetry; a state with omega = omega_bar must keep it.
    rng = random.Random(5)
    half = tuple(rng.uniform(-2, 2) for _ in range(3))
    out = rhs(0.42, half + half, (-2, -2, -2))
    assert all(abs(a - b) <= 1e-15 for a, b in zip(out[:3], out[3:]))


def test_rhs_preserves_the_pairing_trace():
    # d/dt sum_i omega_i*omegabar_i telescopes to zero for *any* state.
    rng = random.Random(17)
    for _ in range(25):
        y = tuple(rng.uniform(-3, 3) for _ in range(6))
        t = rng.uniform(0.05, 0.95)
        d = rhs(t, y, NU6)
        ddt = sum(d[i] * y[i + 3] + y[i] * d[i + 3] for i in range(3))
        assert abs(ddt) <= 1e-12 * max(1.0, max(abs(x) for x in y) ** 2)


# ---------------------------------------------------------------------------
# exact seeding
# ---------------------------------------------------------------------------


def test_seed_trace_is_minus_r2(family6, seeded6):
    trace = sum(a * b for a, b in zip(seeded6.exact_omega, seeded6.exact_omega_bar))
    assert trace == -family6.params.R2


def test_seed_products_match_closed_forms_exactly(family6, seeded6):
    cons = conserved_from_family(family6)
    prods = omega_products(cons.f, family6.params.R2)
    for i, prod in enumerate(prods):
        lhs = seeded6.exact_omega[i] * seeded6.exact_omega_bar[i]
        assert lhs == prod.specialize({"t": Fraction(1, 2)}).constant_value()


def test_seed_determinant_identity_exact():
    # family with a nonzero product mu1*mu2*mu3 so the target is not just 0
    params = normalize_params((-3, -2, -1), (-2, -2, -2))
    family = TauFamily(params, WeightMatrix.random(7))
    cons = conserved_from_family(family)
    assert cons.mu_product == -6
    state = init_from_tau(family, Fraction(2, 5))
    n1, n2, n3 = params.nu
    w1, w2, w3 = state.exact_omega
    b1, b2, b3 = state.exact_omega_bar
    mat = ((n1, w3, -w2), (-b3, n2, w1), (b2, -b1, n3))
    assert _det3_exact(mat) == cons.mu_product


def test_seed_rejects_fixed_singularities(family6):
    with pytest.raises(EulerTopError):
        init_from_tau(family6, Fraction(1))
    with pytest.raises(EulerTopError):
        init_from_tau(family6, Fraction(0))


def test_seed_too_large_for_a_float_is_rejected(family6):
    # t0 = 10^-330 is a valid exact time, but omega2 ~ 1/t0 overflows a float
    with pytest.raises(EulerTopError, match="does not fit in a float"):
        init_from_tau(family6, Fraction(1, 10**330))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_monitors_stay_small_along_the_flow(family6, seeded6):
    cons = conserved_from_family(family6)
    traj = integrate(seeded6, family6.params.nu, 0.9, tol=1e-10)
    report = monitor(traj, cons, [0.5 + 0.05 * i for i in range(9)])
    assert max(report["max"]) <= 1e-8


def test_integration_is_reversible(family6, seeded6):
    nu = family6.params.nu
    fwd = integrate(seeded6, nu, 0.9, tol=1e-10)
    turn = EulerState(
        t=0.9,
        omega=tuple(fwd.final_state()[:3]),
        omega_bar=tuple(fwd.final_state()[3:]),
    )
    back = integrate(turn, nu, 0.5, tol=1e-10)
    drift = (abs(a - b) for a, b in zip(back.final_state(), seeded6.vector()))
    assert max(drift) <= 1e-7


def test_integration_is_deterministic(family6, seeded6):
    nu = family6.params.nu
    a = integrate(seeded6, nu, 0.9, tol=1e-10)
    b = integrate(seeded6, nu, 0.9, tol=1e-10)
    assert a.ts == b.ts
    assert a.ys == b.ys


def test_zero_length_integration(seeded6):
    traj = integrate(seeded6, NU6, seeded6.t, tol=1e-10)
    assert traj.ts == [seeded6.t]
    assert traj.sample(seeded6.t) == seeded6.vector()


def test_start_on_a_fixed_singularity_is_a_pole():
    # an exact t0 just above 1 rounds to the float 1.0, where rhs divides by 0
    state = EulerState(t=1.0, omega=(1.0, 2.0, 3.0), omega_bar=(3.0, 2.0, 1.0))
    with pytest.raises(PoleDetected) as info:
        integrate(state, NU6, 0.9)
    assert info.value.t_last == 1.0


def test_zero_tolerance_collapses_the_step(seeded6):
    # every scale is 0, so no step can be accepted
    with pytest.raises(PoleDetected):
        integrate(seeded6, NU6, 0.9, tol=0.0)


def test_nan_in_the_new_state_rejects_the_step():
    y_new = (math.nan,) + (1.0,) * 5
    assert math.isnan(_error_norm((0.0,) * 6, (1.0,) * 6, y_new, 1e-10))


def test_movable_pole_is_detected():
    # this weight choice puts a zero of tau0 at t = 1/2, so the rotation
    # coefficients blow up there; the step size collapses against it.
    params = normalize_params((-4, -2, 0), (-3, -2, -1))
    weights = WeightMatrix.from_rows([[1, 1, 1], [0, 2, 1], [0, 3, 1]])
    state = init_from_tau(TauFamily(params, weights), Fraction(3, 10))
    with pytest.raises(PoleDetected) as info:
        integrate(state, params.nu, 0.9, tol=1e-10)
    assert abs(info.value.t_last - 0.5) < 1e-2


def test_perturbed_seed_trips_the_monitors(family6, seeded6):
    cons = conserved_from_family(family6)
    bumped = list(seeded6.vector())
    bumped[0] += 0.01
    state = EulerState(t=0.5, omega=tuple(bumped[:3]), omega_bar=tuple(bumped[3:]))
    traj = integrate(state, family6.params.nu, 0.9, tol=1e-10)
    report = monitor(traj, cons, [0.7, 0.9])
    assert max(report["max"]) > 1e-4


def test_sample_outside_range_rejected(family6, seeded6):
    traj = integrate(seeded6, family6.params.nu, 0.9, tol=1e-10)
    with pytest.raises(EulerTopError):
        traj.sample(0.3)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def test_monitor_csv_shape(family6, seeded6):
    cons = conserved_from_family(family6)
    traj = integrate(seeded6, family6.params.nu, 0.9, tol=1e-10)
    samples = [0.5, 0.6, 0.7, 0.8, 0.9]
    text = monitor_csv(monitor(traj, cons, samples))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(samples)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 10
        float(cells[0])  # every cell parses back
    # formatting is deterministic
    assert text == monitor_csv(monitor(traj, cons, samples))
