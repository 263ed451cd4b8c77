"""Free-fermion oracle for the tau functions, independent of determinants.

Basis bookkeeping
-----------------
The three charged fermion components are flattened into one family by

    v^(a)_k  =  v_{3k + a - 2},        k in Z + 1/2,  a in {1, 2, 3},

so each half-integer global index g corresponds to a unique (component,
level) pair.  To stay in integer arithmetic we store *doubled* indices:
``gg = 2g`` runs over odd integers, with

    gg = 3*kk + 2a - 4,        kk = 2k  (odd).

The vacuum |0> occupies every gg < 0.  A wedge state is the frozenset of
slots whose occupancy differs from that sea: a positive slot in the set is
occupied, a negative one is vacated.  Slots are ordered by descending gg in
the wedge word, so wedging in or contracting the fermion at slot gg costs the
phase (-1)^(number of occupied slots strictly above gg); ``flip`` does both.

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

from typing import Dict, Sequence, Tuple

from .exactalg import MultiPoly, PolyRing
from .schur import TimeVector
from .taudet import ScalingParams, WeightMatrix, _sign_pow


def component_of(gg: int) -> int:
    """Component index a in {1,2,3} of the doubled global slot gg."""
    return ((gg % 6) + 1) // 2


def level_kk(gg: int) -> int:
    """Doubled level kk = 2k of slot gg (gg = 3 kk + 2a - 4)."""
    a = component_of(gg)
    kk, rem = divmod(gg - 2 * a + 4, 3)
    assert rem == 0
    return kk


def psi_plus_slot(a: int, kk: int) -> int:
    return -3 * kk + 2 * a - 4


def psi_minus_slot(a: int, kk: int) -> int:
    return 3 * kk + 2 * a - 4


def flip(state: frozenset, gg: int, create: bool):
    """Wedge in (``create``) or contract the fermion at slot gg.

    Returns (phase, new state), or None when gg is already occupied (create)
    or empty (contract).  Only the parity of the occupied slots above gg
    matters, and a hole above gg changes their number by one just as a
    particle does, so every member of ``state`` above gg counts once.
    """
    assert gg % 2, "slots are doubled half-integers: gg must be odd"
    if ((gg < 0) != (gg in state)) == create:
        return None
    above = sum(1 for s in state if s > gg)
    if gg < 0:
        above += (-gg - 1) // 2  # sea slots strictly above gg
    return _sign_pow(above), state ^ {gg}


# ---------------------------------------------------------------------------
# charge-shift operators
# ---------------------------------------------------------------------------


def _q_left_multiply(sign: int, ops: list, i: int, direction: int):
    """Rewrite Q_i^direction * ops |0> as ops' |0>, returning the new sign.

    ``ops`` holds (create, a, kk) triples: psi_plus(a, kk) when create is
    true, psi_minus(a, kk) otherwise.
    """
    assert direction in (1, -1)
    for idx, (create, a, kk) in enumerate(ops):
        if a != i:
            sign = -sign
        else:
            ops[idx] = (create, a, kk - 2 * direction if create else kk + 2 * direction)
    ops.append((direction == 1, i, -1))
    return sign


def charged_vacuum(k1: int, k2: int, k3: int) -> Tuple[int, frozenset]:
    """(sign, wedge) with  sign * wedge = Q1^k1 Q2^k2 Q3^k3 |0>."""
    sign = 1
    ops: list = []
    for i, k in ((3, k3), (2, k2), (1, k1)):
        for _ in range(abs(k)):
            sign = _q_left_multiply(sign, ops, i, 1 if k > 0 else -1)
    state = frozenset()
    for create, a, kk in reversed(ops):
        res = flip(state, (psi_plus_slot if create else psi_minus_slot)(a, kk), create)
        assert res is not None, "charge-shift string annihilated the vacuum"
        phase, state = res
        sign *= phase
    return sign, state


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
            s = u.schur((jj - ell2) // 2, a)
            if s == 0:
                continue
            factor = wa * s
            neg_factor = -factor
            slot = psi_plus_slot(a, jj)
            for state, coeff in vec.items():
                res = flip(state, slot, True)
                if res is None:
                    continue
                phase, new = res
                val = coeff * (factor if phase > 0 else neg_factor)
                if new in out:
                    val = out[new] + val
                    if val.is_zero:
                        del out[new]
                        continue
                out[new] = val
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
