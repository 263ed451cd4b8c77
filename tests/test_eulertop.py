"""Euler-top flow: exact seeding, adaptive integration, conservation monitors."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvi import eulertop
from tauvi.eulertop import (
    _A,
    _D,
    _E,
    CSV_HEADER,
    EulerState,
    EulerTopError,
    PoleDetected,
    _dense,
    _dp_step,
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

from conftest import ratfunc_at

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
        assert lhs == ratfunc_at(prod, {"t": Fraction(1, 2)}).constant_value()


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


def test_seed_breaking_the_trace_identity_is_rejected(family6, monkeypatch):
    original = eulertop.rotation_beta

    def perturbed(family, i, j, **kw):
        beta = original(family, i, j, **kw)
        return beta + 1 if (i, j) == (1, 2) else beta

    monkeypatch.setattr(eulertop, "rotation_beta", perturbed)
    with pytest.raises(EulerTopError, match="trace identity"):
        eulertop.init_from_tau(family6, Fraction(1, 2))


def test_seed_off_the_support_is_rejected():
    family = TauFamily(normalize_params((-4, -2, 0), (-5, 0, -1)), WeightMatrix.random(11))
    with pytest.raises(EulerTopError, match="tau0 vanishes"):
        init_from_tau(family, Fraction(1, 2))


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


def test_only_sampled_segments_build_their_interpolant(family6, seeded6, monkeypatch):
    built = []
    dense = eulertop._dense

    def counted(h, ks):
        built.append(h)
        return dense(h, ks)

    monkeypatch.setattr(eulertop, "_dense", counted)
    traj = integrate(seeded6, family6.params.nu, 0.9, tol=1e-10)
    assert built == [] and len(traj.segments) > 10
    cons = conserved_from_family(family6)
    monitor(traj, cons, [0.6, 0.61, 0.8])
    sampled = [seg for seg in traj.segments if "rcont" in vars(seg)]
    assert 1 <= len(sampled) == len(built) <= 3
    # The same coefficients, bit for bit, as when every step built them.
    for seg in traj.segments:
        y, h, ks = seg.y, seg.h, seg.ks
        ydiff = tuple(b - a for a, b in zip(y, seg.y_new))
        bspl = tuple(h * k - d for k, d in zip(ks[0], ydiff))
        r4 = tuple(d - h * k - b for d, k, b in zip(ydiff, ks[6], bspl))
        want = (y, ydiff, bspl, r4, dense(h, ks))
        assert [[x.hex() for x in v] for v in seg.rcont] == [
            [x.hex() for x in v] for v in want
        ]


def _scan_segment(traj, t):
    """The segment a linear scan picks: the first, along the direction of
    integration, whose span widened by 1e-12 holds t; else the last."""
    for seg in traj.segments:
        a, b = sorted((seg.t0, seg.t0 + seg.h))
        if a - 1e-12 <= t <= b + 1e-12:
            return seg
    return traj.segments[-1]


@pytest.mark.parametrize("t_end", [0.9, 0.1], ids=["forward", "backward"])
def test_sample_finds_the_segment_a_linear_scan_finds(family6, seeded6, t_end):
    # Each boundary and each boundary +-1e-13 lies in two segments' slack,
    # where the first segment must win.
    traj = integrate(seeded6, family6.params.nu, t_end, tol=1e-10)
    ts = traj.ts
    assert len(traj.segments) > 10
    probes = [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    for t in ts:
        probes += [t - 1e-13, t, t + 1e-13]
    lo, hi = sorted((ts[0], ts[-1]))
    probes = [t for t in probes if lo - 1e-12 <= t <= hi + 1e-12]
    assert len(probes) == 4 * len(ts) - 1
    for t in probes:
        seg = _scan_segment(traj, t)
        assert traj._segment_at(t) is seg
        assert traj.sample(t) == seg.eval(t)


def _no_rhs(t, y, nu):
    raise AssertionError("integrate took a step")


@pytest.mark.parametrize(
    "t_end, tol",
    [(math.nan, 1e-10), (math.inf, 1e-10), (0.9, -1e-10), (0.9, math.nan), (0.9, math.inf)],
    ids=["t_end-nan", "t_end-inf", "tol-negative", "tol-nan", "tol-inf"],
)
def test_integrate_rejects_bad_arguments_before_the_first_step(
    seeded6, monkeypatch, t_end, tol
):
    monkeypatch.setattr(eulertop, "rhs", _no_rhs)
    with pytest.raises(ValueError):
        integrate(seeded6, NU6, t_end, tol)


# ---------------------------------------------------------------------------
# stage sums, bit for bit
# ---------------------------------------------------------------------------


def _hsum(h, coeffs, ks, y=None):
    """The reference stage sum: per component, h * (0 + c0*k0 + c1*k1 + ...)
    added left to right, then added to y if given."""
    acc = [0] * 6
    for c, k in zip(coeffs, ks):
        acc = [a + c * x for a, x in zip(acc, k)]
    if y is None:
        return tuple(h * a for a in acc)
    return tuple(b + h * a for b, a in zip(y, acc))


def _hsum_right_to_left(h, coeffs, ks, y=None):
    """A mutant of the reference that adds the same terms right to left."""
    n = min(len(coeffs), len(ks))
    return _hsum(h, coeffs[:n][::-1], ks[:n][::-1], y)


def _step_sums(h, y, ks):
    """Every stage sum of one step, with rhs returning the given stages: the
    arguments of stages 2..7, y_new, the error estimate and the dense term."""
    args = []
    stages = iter(ks[1:])

    def fake_rhs(t, yi, nu):
        args.append(yi)
        return next(stages)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eulertop, "rhs", fake_rhs)
        out_ks, y_new, err = _dp_step((0.0,) * 7, h, y, ks[0], NU6)
    return [*args, y_new, err, _dense(h, out_ks)]


def _reference_sums(fold, h, y, ks):
    stage_args = [fold(h, _A[i], ks[:i], y) for i in range(1, 7)]
    return [*stage_args, fold(h, _A[6], ks, y), fold(h, _E, ks), fold(h, _D, ks)]


def _agrees(fold, h, y, ks):
    def hexes(vecs):
        return [[x.hex() for x in v] for v in vecs]

    return hexes(_step_sums(h, y, ks)) == hexes(_reference_sums(fold, h, y, ks))


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_SPECIAL)
)
_vecs = st.tuples(*[_floats] * 6)


@settings(max_examples=200, deadline=None)
@given(h=_floats, y=_vecs, ks=st.lists(_vecs, min_size=7, max_size=7))
def test_stage_sums_match_the_left_to_right_fold_bit_for_bit(h, y, ks):
    assert _agrees(_hsum, h, y, ks)


@pytest.mark.parametrize(
    "coeffs",
    [*_A[1:], _E, _D],
    ids=[f"stage{i}" for i in range(2, 8)] + ["error", "dense"],
)
def test_stage_sums_keep_the_sign_of_zero(coeffs):
    # Every term of this sum is -0.0 in component 0. The leading 0 makes the
    # sum +0.0 there; a fold without it would leave -0.0.
    y = (-0.0,) + (1.0,) * 5
    ks = [((-0.0 if c >= 0 else 0.0),) + (1.0,) * 5 for c in coeffs]
    ks += [(1.0,) * 6] * (7 - len(ks))
    for reference in (_hsum(1.0, coeffs, ks, y), _hsum(1.0, coeffs, ks)):
        assert reference[0].hex() == "0x0.0p+0"
    assert _agrees(_hsum, 1.0, y, ks)


def test_stage_sum_check_catches_a_right_to_left_fold():
    rng = random.Random(3)

    def vec():
        return tuple(rng.uniform(-2, 2) for _ in range(6))

    examples = [(rng.uniform(1e-4, 1e-2), vec(), [vec() for _ in range(7)]) for _ in range(5)]
    assert all(_agrees(_hsum, *ex) for ex in examples)
    assert not any(_agrees(_hsum_right_to_left, *ex) for ex in examples)


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
