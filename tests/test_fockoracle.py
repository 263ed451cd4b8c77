"""Free-fermion oracle: wedge bookkeeping, charge shifts, tau agreement."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from tauvi.exactalg import PolyRing, RatFunc
from tauvi.fockoracle import (
    _q_left_multiply,
    apply_phi,
    build_G_vacuum,
    charged_vacuum,
    component_of,
    flip,
    level_kk,
    psi_minus_slot,
    psi_plus_slot,
    tau_from_G,
    tau_oracle,
)
from tauvi.schur import TimeVector, elementary_schur
from tauvi.taudet import (
    WEIGHT_SYMBOLS,
    WeightMatrix,
    TauFamily,
    normalize_params,
    sign_E,
    tau_from_A,
    tau_from_E,
    time_symbols,
)


def _ring(order: int) -> PolyRing:
    return PolyRing(time_symbols(order) + WEIGHT_SYMBOLS)


VACUUM = frozenset()


def charge(state, a: int) -> int:
    """Charge of component a: its particles minus its holes."""
    return sum(1 if gg > 0 else -1 for gg in state if component_of(gg) == a)


def state_energy(state) -> Fraction:
    """Sum of particle levels minus sum of hole levels (relative to |0>)."""
    return sum(
        (Fraction(level_kk(gg), 2) * (1 if gg > 0 else -1) for gg in state),
        Fraction(0),
    )


def apply_psi(vec: dict, kind: str, a: int, kk: int) -> dict:
    """Apply one fermion mode to a coefficient-weighted bag of wedge states."""
    assert kk % 2, "levels are half-integers: doubled index must be odd"
    create = {"+": True, "-": False}[kind]
    slot = psi_plus_slot(a, kk) if create else psi_minus_slot(a, kk)
    out: dict = {}
    for state, coeff in vec.items():
        res = flip(state, slot, create)
        if res is None:
            continue
        phase, new = res
        val = out.get(new, 0) + phase * coeff
        if val == 0:
            out.pop(new, None)
        else:
            out[new] = val
    return out


def q_shift(k, i: int, direction: int):
    """Q_i^direction |k1,k2,k3> as (sign, wedge), by the op-string rewrite
    evaluated through ``apply_psi``."""
    sign = 1
    ops: list = []
    for comp, kc in ((3, k[2]), (2, k[1]), (1, k[0])):
        for _ in range(abs(kc)):
            sign = _q_left_multiply(sign, ops, comp, 1 if kc > 0 else -1)
    sign = _q_left_multiply(sign, ops, i, direction)
    vec = {VACUUM: sign}
    for create, a, kk in reversed(ops):
        vec = apply_psi(vec, "+" if create else "-", a, kk)
    assert len(vec) == 1
    state, coeff = next(iter(vec.items()))
    return coeff, state


def _support(params):
    m1, _, m3 = params.m
    total = -sum(params.m)
    out = []
    for n1 in range(-m1, -m3 + 1):
        for n2 in range(-m1, -m3 + 1):
            n3 = total - n1 - n2
            if -m1 <= n3 <= -m3:
                out.append((n1, n2, n3))
    return out


# -- slot arithmetic ----------------------------------------------------------


def test_slot_round_trip():
    for a in (1, 2, 3):
        for kk in (-5, -3, -1, 1, 3, 5):
            gg = psi_plus_slot(a, kk)
            assert gg % 2
            assert component_of(gg) == a
            assert level_kk(gg) == -kk
            assert psi_minus_slot(a, kk) == psi_plus_slot(a, -kk)


def test_vacuum_state():
    assert charge(VACUUM, 1) == charge(VACUUM, 2) == charge(VACUUM, 3) == 0
    assert state_energy(VACUUM) == 0


def test_pauli_exclusion():
    vec = {VACUUM: 1}
    once = apply_psi(vec, "+", 1, -1)  # particle at slot +1
    assert len(once) == 1
    twice = apply_psi(once, "+", 1, -1)
    assert twice == {}


def test_contract_empty_slot_annihilates():
    vec = {VACUUM: 1}
    assert apply_psi(vec, "-", 1, 1) == {}  # nothing above the sea yet
    filled = apply_psi(vec, "+", 1, -1)
    back = apply_psi(filled, "-", 1, 1)  # same slot, opposite mode
    assert back == {VACUUM: 1}


def test_anticommutation_of_distinct_modes():
    vec = {VACUUM: 1}
    ab = apply_psi(apply_psi(vec, "+", 1, -1), "+", 1, -3)
    ba = apply_psi(apply_psi(vec, "+", 1, -3), "+", 1, -1)
    assert set(ab) == set(ba)
    state = next(iter(ab))
    assert ab[state] == -ba[state]


# -- charged vacua and Q operators -------------------------------------------


def test_charged_vacuum_sign_pins():
    sign, state = charged_vacuum(0, 0, 0)
    assert (sign, state) == (1, VACUUM)
    assert charged_vacuum(1, 1, 0)[0] == -1
    assert charged_vacuum(0, -1, 0)[0] == -1
    assert charged_vacuum(0, -1, -1)[0] == 1


def test_charged_vacuum_charges_and_energy():
    for k in product(range(-2, 3), repeat=3):
        sign, state = charged_vacuum(*k)
        assert sign in (1, -1)
        assert tuple(charge(state, a) for a in (1, 2, 3)) == k
        # filled Fermi seas minimize energy at fixed charge: sum of k^2/2
        assert state_energy(state) == Fraction(sum(x * x for x in k), 2)


def test_q_shift_sign_rule():
    """Q_i^{+-1}|k1,k2,k3> = (-1)^{k1+...+k_{i-1}} |..., k_i +- 1, ...>."""
    for k in product(range(-2, 3), repeat=3):
        for i in (1, 2, 3):
            for d in (1, -1):
                s_got, w_got = q_shift(k, i, d)
                shifted = list(k)
                shifted[i - 1] += d
                s_ref, w_ref = charged_vacuum(*shifted)
                rule = -1 if sum(k[: i - 1]) % 2 else 1
                assert w_got == w_ref
                assert s_got == s_ref * rule


# -- phi strings --------------------------------------------------------------


def test_phi_at_cutoff_level_annihilates():
    # phi at level m1 + 1/2 is the zero operator
    params = normalize_params((-2, -1, 0), (-1, -1, -1))
    w = WeightMatrix.symbolic()
    ring = _ring(1)
    u = TimeVector.symbolic(ring, 1)
    m1 = params.m[0]
    _, base = charged_vacuum(-m1, -m1, -m1)
    vec = {base: ring.one()}
    out = apply_phi(vec, 2, 2 * m1 + 1, m1, w, u, ring)
    assert out == {}


def test_build_G_vacuum_empty_family():
    params = normalize_params((0, 0, 0), (0, 0, 0))
    ring = _ring(1)
    u = TimeVector.symbolic(ring, 1)
    G = build_G_vacuum(params, WeightMatrix.symbolic(), u, ring)
    assert G == {VACUUM: ring.one()}


def test_build_G_vacuum_charge_support():
    params = normalize_params((-3, -2, 0), (-2, -2, -1))
    ring = _ring(1)
    u = TimeVector.symbolic(ring, 1)
    G = build_G_vacuum(params, WeightMatrix.symbolic(), u, ring)
    m1, _, m3 = params.m
    charges = {tuple(charge(s, a) for a in (1, 2, 3)) for s in G}
    assert charges  # nonempty expansion
    for nu in charges:
        assert sum(nu) == -sum(params.m)
        assert all(-m1 <= x <= -m3 for x in nu)


def test_build_G_vacuum_degree_bookkeeping():
    """u-degree plus state energy is constant: half the sum of m_i^2."""
    params = normalize_params((-3, -2, 0), (-2, -2, -1))
    order = 2
    ring = _ring(order)
    u = TimeVector.symbolic(ring, order)
    G = build_G_vacuum(params, WeightMatrix.symbolic(), u, ring)
    grading = {
        ring.index(f"u{a}{n}"): n
        for a in (1, 2, 3)
        for n in range(1, order + 1)
    }
    want = Fraction(sum(x * x for x in params.m), 2)
    for state, coeff in G.items():
        e = state_energy(state)
        for exp in coeff.terms:
            wdeg = sum(n * exp[i] for i, n in grading.items())
            assert wdeg + e == want


# -- the oracle ---------------------------------------------------------------


def test_oracle_off_support_is_zero():
    params = normalize_params((-2, -1, 0), (-1, -1, -1))
    ring = _ring(1)
    u = TimeVector.symbolic(ring, 1)
    w = WeightMatrix.symbolic()
    assert tau_oracle(params, w, u, ring, nu=(-3, 0, 0)).is_zero
    assert tau_oracle(params, w, u, ring, nu=(1, -2, -2)).is_zero


def test_oracle_charge_selection_rule():
    # wrong total charge cannot reach the vacuum: tau = 0 identically
    params = normalize_params((-1, -1, 0), (-1, -1, 0))
    ring = _ring(1)
    u = TimeVector.symbolic(ring, 1)
    w = WeightMatrix.symbolic()
    assert tau_oracle(params, w, u, ring, nu=(0, 0, 0)).is_zero
    assert tau_oracle(params, w, u, ring, nu=(-1, -1, -1)).is_zero


def test_oracle_u_homogeneity():
    params = normalize_params((-2, -1, 0), (-1, -1, -1))
    order = 2
    ring = _ring(order)
    u = TimeVector.symbolic(ring, order)
    tau = tau_oracle(params, WeightMatrix.symbolic(), u, ring)
    grading = {
        ring.index(f"u{a}{n}"): n
        for a in (1, 2, 3)
        for n in range(1, order + 1)
    }
    assert not tau.is_zero
    for exp in tau.terms:
        assert sum(n * exp[i] for i, n in grading.items()) == params.R2


def test_oracle_matches_projected_tau0():
    """First times (0, t, 1) turn the oracle into t^R2 * tau0(t) exactly."""
    params = normalize_params((-4, -2, 0), (-3, -2, -1))
    w = WeightMatrix.symbolic()
    ring = PolyRing(("t",) + WEIGHT_SYMBOLS)
    t = ring.var("t")
    u = TimeVector((Fraction(0),), (t,), (ring.one(),))
    got = tau_oracle(params, w, u, ring)
    fam = TauFamily(params, w)
    assert fam.ring == ring
    assert RatFunc(got) == fam.tau0() * t**params.R2


def test_oracle_three_way_agreement_small():
    """oracle == sign-adjusted det(E) == sign-adjusted det(A), m=(1,1,0)."""
    params = normalize_params((-1, -1, 0), (-1, -1, 0))
    w = WeightMatrix.symbolic()
    order = 2
    ring = _ring(order)
    u = TimeVector.symbolic(ring, order)
    for nu in _support(params):
        t_o = tau_oracle(params, w, u, ring, nu=nu)
        t_e = tau_from_E(params, w, u, ring, nu=nu)
        t_a = tau_from_A(params, w, u, ring, nu=nu)
        assert t_o == t_e, nu
        assert t_o == t_a, nu
        assert not t_o.is_zero


def test_oracle_boundary_point():
    # nu1 = -m1 boundary of the worked family, cross-checked against det(E)
    params = normalize_params((-4, -2, 0), (-3, -2, -1))
    w = WeightMatrix.symbolic()
    ring = _ring(1)
    u = TimeVector.symbolic(ring, 1)
    nu = (-4, -2, 0)
    t_o = tau_oracle(params, w, u, ring, nu=nu)
    assert not t_o.is_zero
    assert t_o == tau_from_E(params, w, u, ring, nu=nu)


# -- differential test against the per-sector expansion -----------------------


def _tau_hatted(params, weights, u, ring, nu):
    """Reference: one expansion per charge sector nu, read at |0>.

    Hatted phi strings act on the shifted vacuum |-m1-nu_a>,

        phihat^(b)_l (nu; u) = sum_a sum_{j=l+nu_a}^{m1+nu_a-1/2}
            (-1)^(nu_1+nu_2+nu_3+nu_a) w_a^(b) psi_plus(a, j) S_{j-l-nu_a}(u^(a)),

    and the coefficient of |0> times sign_E(m1, nu) is tau_nu.
    """
    m1, m2, m3 = params.m
    sign0, base = charged_vacuum(*(-m1 - x for x in nu))
    vec = {base: ring.const(sign0)}
    for b, mb in ((2, m2), (3, m3)):
        for ell2 in range(2 * m1 - 1, 2 * mb - 1, -2):
            out = {}
            for a in (1, 2, 3):
                na = nu[a - 1]
                fa = weights.entry(a, b, ring) * (-1 if (sum(nu) + na) % 2 else 1)
                for jj in range(ell2 + 2 * na, 2 * m1 + 2 * na, 2):
                    n = (jj - ell2) // 2 - na
                    factor = fa * elementary_schur(n, u.component(a))
                    for state, coeff in apply_psi(vec, "+", a, jj).items():
                        out[state] = out.get(state, ring.zero()) + coeff * factor
            vec = {k: v for k, v in out.items() if not v.is_zero}
    return vec.get(VACUUM, ring.zero()) * sign_E(m1, nu)


@pytest.mark.parametrize(
    "weights",
    [WeightMatrix.symbolic(), WeightMatrix.random(5), WeightMatrix.random(17)],
    ids=["sym", "seed5", "seed17"],
)
def test_oracle_matches_per_sector_expansion(weights):
    """<nu|G|0> from one G|0> equals the per-sector hatted expansion."""
    order = 2
    ring = _ring(order)
    u = TimeVector.symbolic(ring, order)
    nonzero = 0
    for m1 in range(0, 4):
        for m2 in range(0, m1 + 1):
            for m3 in range(0, m2 + 1):
                params = normalize_params((-m1, -m2, -m3), (-m1, -m2, -m3))
                G = build_G_vacuum(params, weights, u, ring)
                support = _support(params)
                for nu in support:
                    want = _tau_hatted(params, weights, u, ring, nu)
                    assert tau_from_G(G, nu, ring) == want, (params.m, nu)
                    assert tau_oracle(params, weights, u, ring, nu=nu) == want
                    nonzero += not want.is_zero
                # one step outside the support box, and the wrong total charge
                total = -sum(params.m)
                for n1 in range(-m1 - 1, -m3 + 2):
                    for n2 in range(-m1 - 1, -m3 + 2):
                        for n3 in (total - n1 - n2 - 1, total - n1 - n2):
                            nu = (n1, n2, n3)
                            if nu in support:
                                continue
                            assert tau_from_G(G, nu, ring).is_zero, (params.m, nu)
                            assert _tau_hatted(params, weights, u, ring, nu).is_zero
    assert nonzero > 0
