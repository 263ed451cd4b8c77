"""Free-fermion oracle for the tau functions, independent of determinants.

Basis bookkeeping
-----------------
The three charged fermion components are flattened into one family by

    v^(a)_k  =  v_{3k + a - 2},        k in Z + 1/2,  a in {1, 2, 3},

so each half-integer global index g corresponds to a unique (component,
level) pair.  To stay in integer arithmetic we store *doubled* indices:
``gg = 2g`` runs over odd integers, with

    gg = 3*kk + 2a - 4,        kk = 2k  (odd).

The vacuum |0> occupies every gg < 0.  A wedge state is recorded relative to
that sea: a frozenset of occupied positive slots ("particles") and a frozenset
of vacated negative slots ("holes").  Slots are ordered by descending gg in
the wedge word, so applying a fermion at slot gg costs the phase
(-1)^(number of occupied slots strictly above gg).

``psi_plus(a, kk)`` wedges in the component-a vector at level -kk/2 (slot
gg = -3*kk + 2a - 4); ``psi_minus(a, kk)`` contracts the vector at level
kk/2 (slot gg = 3*kk + 2a - 4).

Charge shifts
-------------
The charged vacua |k1,k2,k3> = Q1^k1 Q2^k2 Q3^k3 |0> are *not* always the
positively oriented canonical wedges (|1,1,0> and |0,-1,0> both carry a minus
sign), so the Q operators are applied mechanically: an expression
Q_i^(+-1) * (ops)|0> is rewritten by conjugating every op through Q_i --
component-i ops shift their level, every other component's op flips sign --
and then Q_i|0> = psi_plus(i, -1)|0> (resp. psi_minus for the inverse) lands
at the end of the op list.  Evaluating the op list on |0> yields the signed
wedge.

The oracle
----------
The Grassmannian point G is the string of un-hatted phi factors

    G|0> = phi^(3)_{m3+1/2} ... phi^(3)_{m1-1/2}
               phi^(2)_{m2+1/2} ... phi^(2)_{m1-1/2} |-m1,-m1,-m1>

(rightmost factor applied first), where

    phi^(b)_l (u) = sum_a sum_{j=l}^{m1-1/2} w_a^(b) * psi_plus(a, j) * S_{j-l}(u^(a)).

The upper cutoff on j is exact: the strings only ever create particles above
each component's shifted sea, never holes, so higher psi_plus terms
annihilate every reachable state.  G|0> mixes charge sectors, and each
sector's tau function is a vacuum expectation value (Kac & van de Leur, "The
n-component KP hierarchy and representation theory", J. Math. Phys. 44,
2003):

    tau_nu = <nu|G|0>,    |nu> = Q1^nu_1 Q2^nu_2 Q3^nu_3 |0>,

the coefficient of the charged vacuum's wedge in G|0> times the sign that
``charged_vacuum`` reports for it.  One expansion of G|0> therefore serves
every charge vector nu; those off the support, or of the wrong total charge,
have no wedge in it and read zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .exactalg import MultiPoly, PolyRing
from .schur import TimeVector, elementary_schur
from .taudet import ScalingParams, WeightMatrix, _sign_pow


@dataclass(frozen=True)
class WedgeState:
    """Particles above / holes inside the Dirac sea, as doubled odd indices."""

    particles: frozenset
    holes: frozenset

    def __post_init__(self):
        assert all(gg > 0 and gg % 2 for gg in self.particles)
        assert all(gg < 0 and gg % 2 for gg in self.holes)

    @staticmethod
    def vacuum() -> "WedgeState":
        return WedgeState(frozenset(), frozenset())

    def charge(self, a: int) -> int:
        return sum(1 for gg in self.particles if component_of(gg) == a) - sum(
            1 for gg in self.holes if component_of(gg) == a
        )


def component_of(gg: int) -> int:
    """Component index a in {1,2,3} of the doubled global slot gg."""
    return ((gg % 6) + 1) // 2


def level_kk(gg: int) -> int:
    """Doubled level kk = 2k of slot gg (gg = 3 kk + 2a - 4)."""
    a = component_of(gg)
    kk, rem = divmod(gg - 2 * a + 4, 3)
    assert rem == 0
    return kk


def state_energy(state: WedgeState) -> Fraction:
    """Sum of particle levels minus sum of hole levels (relative to |0>)."""
    e = Fraction(0)
    for gg in state.particles:
        e += Fraction(level_kk(gg), 2)
    for gg in state.holes:
        e -= Fraction(level_kk(gg), 2)
    return e


def _count_above(state: WedgeState, gg: int) -> int:
    above = sum(1 for p in state.particles if p > gg)
    above -= sum(1 for h in state.holes if h > gg)
    if gg < 0:
        above += (-gg - 1) // 2  # sea slots strictly above gg
    return above


def _occupy(state: WedgeState, gg: int):
    """Wedge in slot gg; returns (phase, new state) or None when Pauli kills it."""
    if gg > 0:
        if gg in state.particles:
            return None
        new = WedgeState(state.particles | {gg}, state.holes)
    else:
        if gg not in state.holes:
            return None
        new = WedgeState(state.particles, state.holes - {gg})
    return (_sign_pow(_count_above(state, gg)), new)


def _unoccupy(state: WedgeState, gg: int):
    """Contract slot gg; returns (phase, new state) or None if empty."""
    if gg > 0:
        if gg not in state.particles:
            return None
        new = WedgeState(state.particles - {gg}, state.holes)
    else:
        if gg in state.holes:
            return None
        new = WedgeState(state.particles, state.holes | {gg})
    return (_sign_pow(_count_above(state, gg)), new)


def psi_plus_slot(a: int, kk: int) -> int:
    return -3 * kk + 2 * a - 4


def psi_minus_slot(a: int, kk: int) -> int:
    return 3 * kk + 2 * a - 4


def apply_psi(vec: Dict, kind: str, a: int, kk: int) -> Dict:
    """Apply one fermion mode to a coefficient-weighted bag of wedge states."""
    assert kk % 2, "levels are half-integers: doubled index must be odd"
    out: Dict = {}
    for state, coeff in vec.items():
        if kind == "+":
            res = _occupy(state, psi_plus_slot(a, kk))
        elif kind == "-":
            res = _unoccupy(state, psi_minus_slot(a, kk))
        else:
            raise ValueError(f"kind must be '+' or '-', got {kind!r}")
        if res is None:
            continue
        phase, new = res
        val = -coeff if phase < 0 else coeff
        if new in out:
            val = out[new] + val
        _store(out, new, val)
    return out


def _store(vec: Dict, state: WedgeState, val) -> None:
    if isinstance(val, MultiPoly):
        if val.is_zero:
            vec.pop(state, None)
            return
    elif val == 0:
        vec.pop(state, None)
        return
    vec[state] = val


# ---------------------------------------------------------------------------
# charge-shift operators
# ---------------------------------------------------------------------------


def _q_left_multiply(sign: int, ops: list, i: int, direction: int):
    """Rewrite Q_i^direction * ops |0> as ops' |0>, returning the new sign."""
    assert direction in (1, -1)
    for idx, (kind, a, kk) in enumerate(ops):
        if a != i:
            sign = -sign
        else:
            if kind == "+":
                kk -= 2 * direction
            else:
                kk += 2 * direction
            ops[idx] = (kind, a, kk)
    ops.append(("+" if direction == 1 else "-", i, -1))
    return sign


def charged_vacuum(k1: int, k2: int, k3: int) -> Tuple[int, WedgeState]:
    """(sign, wedge) with  sign * wedge = Q1^k1 Q2^k2 Q3^k3 |0>."""
    sign = 1
    ops: list = []
    for i, k in ((3, k3), (2, k2), (1, k1)):
        step = 1 if k >= 0 else -1
        for _ in range(abs(k)):
            sign = _q_left_multiply(sign, ops, i, step)
    vec = {WedgeState.vacuum(): 1}
    for kind, a, kk in reversed(ops):
        vec = apply_psi(vec, kind, a, kk)
        assert vec, "charge-shift string annihilated the vacuum"
    assert len(vec) == 1
    state, coeff = next(iter(vec.items()))
    assert coeff in (1, -1)
    return sign * coeff, state


def q_shift(k: Sequence[int], i: int, direction: int) -> Tuple[int, WedgeState]:
    """Evaluate Q_i^direction |k1,k2,k3> mechanically (for cross-checks)."""
    k1, k2, k3 = k
    sign = 1
    ops: list = []
    for comp, kk in ((3, k3), (2, k2), (1, k1)):
        step = 1 if kk >= 0 else -1
        for _ in range(abs(kk)):
            sign = _q_left_multiply(sign, ops, comp, step)
    sign = _q_left_multiply(sign, ops, i, direction)
    vec = {WedgeState.vacuum(): 1}
    for kind, a, kk in reversed(ops):
        vec = apply_psi(vec, kind, a, kk)
    assert len(vec) == 1
    state, coeff = next(iter(vec.items()))
    return sign * coeff, state


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def apply_phi(
    vec: Dict,
    b: int,
    ell2: int,
    m1: int,
    weights: WeightMatrix,
    u: TimeVector,
    ring: PolyRing,
) -> Dict:
    """One phi^{+(b)} factor at doubled level ell2 (odd)."""
    assert ell2 % 2, "phi labels are half-integers"
    out: Dict = {}
    for a in (1, 2, 3):
        wa = weights.entry(a, b, ring)
        for jj in range(ell2, 2 * m1, 2):
            s = elementary_schur((jj - ell2) // 2, u.component(a))
            if isinstance(s, MultiPoly):
                if s.is_zero:
                    continue
            elif s == 0:
                continue
            factor = wa * s
            neg_factor = -factor
            slot = psi_plus_slot(a, jj)
            for state, coeff in vec.items():
                res = _occupy(state, slot)
                if res is None:
                    continue
                phase, new = res
                val = coeff * (factor if phase > 0 else neg_factor)
                if new in out:
                    val = out[new] + val
                _store(out, new, val)
    return out


def build_G_vacuum(
    params: ScalingParams,
    weights: WeightMatrix,
    u: TimeVector,
    ring: PolyRing,
) -> Dict:
    """The state G|0>: phi strings on the (-m1,-m1,-m1) vacuum."""
    m1, m2, m3 = params.m
    sign0, base = charged_vacuum(-m1, -m1, -m1)
    vec: Dict = {base: ring.const(sign0)}
    for b, mb in ((2, m2), (3, m3)):
        for ell2 in range(2 * m1 - 1, 2 * mb - 1, -2):
            vec = apply_phi(vec, b, ell2, m1, weights, u, ring)
    return vec


def tau_from_G(G: Dict, nu: Sequence[int], ring: PolyRing) -> MultiPoly:
    """tau_nu = <nu|G|0>: the signed coefficient of Q^nu|0> in the state G."""
    sign, state = charged_vacuum(*nu)
    coeff = G.get(state)
    if coeff is None:
        return ring.zero()
    return -coeff if sign < 0 else coeff


def tau_oracle(
    params: ScalingParams,
    weights: WeightMatrix,
    u: TimeVector,
    ring: PolyRing,
    nu: Sequence[int] = None,
) -> MultiPoly:
    """<nu|G|0>, the tau function of charge sector nu (default: params.nu).

    Fully mechanical -- no support or charge shortcut.  Off-support charge
    vectors come out as the zero polynomial because G|0> has no component
    along their charged vacuum.  Callers reading several sectors expand
    ``build_G_vacuum`` once and call ``tau_from_G`` per sector.
    """
    nu = tuple(params.nu if nu is None else nu)
    return tau_from_G(build_G_vacuum(params, weights, u, ring), nu, ring)
