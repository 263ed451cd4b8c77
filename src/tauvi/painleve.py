"""From tau functions to rational solutions of Painleve VI.

Pipeline
--------
Given normalized scaling data (mu, nu) and a weight matrix, with
tau0(t) = +-det(T)/t^R2:

1.  f(t)     = t(t-1) * d/dt log tau0(t)
2.  sigma(t) = f(t) - a*t - b  with  a = -c5,  b = c5 + c6/2, where the
    rational constants c5..c10 below are polynomial in (mu, nu); sigma solves
    the quartic sigma-form of Painleve VI with root parameters v_k.
3.  v = (v1, v2, v3, v4) with v_i = (nu1+nu3)/2 - mu_i and
    v4 = (nu1-nu3)/2; the dihedral family of equivalent parameter choices
    (permutations of the four v's with an even number of sign flips) yields
    the solution branches.
4.  y(t)     = the Okamoto-style extraction
    y = [(v3+v4) B + (sigma' - v3 v4) C] / (2 A)  with
    A = (sigma'+v3^2)(sigma'+v4^2),
    B = t(t-1) sigma'' + (v1+v2+v3+v4) sigma' - e3(v),
    C = 2(t sigma' - sigma) - e2(v),
    solving Painleve VI with
    alpha = (v3-v4)^2/2, beta = -(v1+v2)^2/2, gamma = (v1-v2)^2/2,
    delta = (1 - (v3+v4+1)^2)/2.

Residual checks return the cleared numerator over an explicit product
denominator, unreduced: the residual vanishes exactly when that
:class:`~tauvi.exactalg.MultiPoly` does, so no gcd runs, not even when a
check fails.

The quartic invariants A1..A4 admit three independent evaluations (from
c5..c10, symmetrically from the v's, and from (alpha..delta) together with
the signed square root v3+v4+1 of 1-2*delta); agreement across all three is a
strong consistency check and is exposed here for the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exactalg import MultiPoly, RatFunc
from .taudet import ScalingParams, TauFamily, WeightMatrix

BRANCH_ALIASES = {
    "id": "0123++++",
    "flip13": "0123-+-+",
    "swap23": "0213++++",
}


class PainleveError(Exception):
    pass


class ZeroTauError(PainleveError):
    """tau0 is identically zero; no logarithmic derivative exists."""


class DegenerateBranchError(PainleveError):
    """The extraction denominator (sigma'+v3^2)(sigma'+v4^2) vanishes."""


class FixedSingularityError(PainleveError):
    """y coincides identically with one of the fixed points 0, 1, t."""


class BranchError(ValueError):
    """Malformed or out-of-family branch identifier."""


# ---------------------------------------------------------------------------
# scalar data: c's, A's, v's, PVI parameters
# ---------------------------------------------------------------------------


def c_coefficients(params: ScalingParams) -> Tuple[Fraction, ...]:
    """The six rational constants (c5..c10) of the sigma equation."""
    n1, n2, n3 = params.nu
    mu1, mu2, mu3 = params.mu
    r2 = params.R2
    K = Fraction(mu1 * mu2 * mu3 - n1 * n2 * n3 + n3 * r2)
    c5 = -Fraction((n1 - n3) ** 2, 4)
    c6 = Fraction(r2) - Fraction((n2 - n1) * (n1 - n3), 2)
    c7 = -Fraction(4 * r2 + (n1 - n2) ** 2, 4)
    c8 = -Fraction(n3 - n1) * K / 2
    c9 = -Fraction(n1 - n2) * K / 2
    c10 = -K * K / 4
    return (c5, c6, c7, c8, c9, c10)


def shift_ab(c5: Fraction, c6: Fraction) -> Tuple[Fraction, Fraction]:
    """The linear shift turning f into sigma: sigma = f - a*t - b."""
    return (-c5, c5 + c6 / 2)


def A_from_c(cs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Quartic invariants A1..A4 from the c-constants."""
    c5, c6, c7, c8, c9, c10 = (Fraction(c) for c in cs)
    A1 = -4 * (c7 + c5 + c6 / 2)
    A2 = -4 * (c8 - c5 * c5 - c5 * c6)
    A3 = -4 * (c9 - c5 * c5 - c6 * c6 / 4 - c5 * c6 - 2 * c5 * c7)
    A4 = -4 * (
        c10
        + Fraction(3, 2) * c5 * c5 * c6
        + c5 * c6 * c6 / 2
        + c5**3
        + c5 * c5 * c7
        - c5 * c8
        - c6 * c8 / 2
        - c5 * c9
    )
    return (A1, A2, A3, A4)


def A_from_v(v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Same invariants, symmetric in the v's (even sign flips leave them)."""
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    sq = [x * x for x in (v1, v2, v3, v4)]
    e1 = sum(sq)
    e2 = sum(sq[i] * sq[j] for i in range(4) for j in range(i + 1, 4))
    e3 = sum(
        sq[i] * sq[j] * sq[k]
        for i in range(4)
        for j in range(i + 1, 4)
        for k in range(j + 1, 4)
    )
    prod = v1 * v2 * v3 * v4
    return (e1, 4 * prod, e2 - 2 * prod, e3)


def A_from_pvi(
    alpha: Fraction,
    beta: Fraction,
    gamma: Fraction,
    delta: Fraction,
    sqrt_one_minus_2delta: Fraction,
) -> Tuple[Fraction, ...]:
    """Invariants from the PVI parameters and the *signed* root v3+v4+1."""
    a, b, g, d = (Fraction(x) for x in (alpha, beta, gamma, delta))
    s = Fraction(sqrt_one_minus_2delta)
    if s * s != 1 - 2 * d:
        raise PainleveError(f"{s} is not a square root of 1-2*delta")
    A1 = -b + g + a - d - s + 1
    A2 = (b + g) * (a + d + s - 1)
    A3 = (b - g) * (-a + d + s - 1) + Fraction(1, 4) * (-a - d - s + b + g + 1) ** 2
    A4 = -Fraction(1, 4) * (b - g) * (a + d + s - 1) ** 2 + Fraction(1, 4) * (
        b + g
    ) ** 2 * (a - d - s + 1)
    return (A1, A2, A3, A4)


def v_values(params: ScalingParams, branch: str = "id") -> Tuple[Fraction, ...]:
    """Branch-transformed root parameters (possibly half-integers)."""
    n1, _, n3 = params.nu
    half_sum = Fraction(n1 + n3, 2)
    base = tuple(half_sum - mu for mu in params.mu) + (Fraction(n1 - n3, 2),)
    return apply_branch(base, branch)


def pvi_params(v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """(alpha, beta, gamma, delta) of the Painleve VI equation solved by y."""
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    alpha = (v3 - v4) ** 2 / 2
    beta = -((v1 + v2) ** 2) / 2
    gamma = (v1 - v2) ** 2 / 2
    delta = (1 - (v3 + v4 + 1) ** 2) / 2
    return (alpha, beta, gamma, delta)


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------


def parse_branch(branch: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    branch = BRANCH_ALIASES.get(branch, branch)
    if len(branch) != 8:
        raise BranchError(f"branch id must look like '0123++++', got {branch!r}")
    perm = tuple(int(c) if c.isdigit() else -1 for c in branch[:4])
    if sorted(perm) != [0, 1, 2, 3]:
        raise BranchError(f"{branch[:4]!r} is not a permutation of 0123")
    if any(c not in "+-" for c in branch[4:]):
        raise BranchError(f"{branch[4:]!r} is not a sign pattern")
    signs = tuple(1 if c == "+" else -1 for c in branch[4:])
    if signs.count(-1) % 2:
        raise BranchError(
            f"branch {branch!r} flips an odd number of signs; "
            "only even sign patterns stay in the family"
        )
    return perm, signs


def canonical_branch(branch: str) -> str:
    perm, signs = parse_branch(branch)
    return "".join(str(d) for d in perm) + "".join(
        "+" if s > 0 else "-" for s in signs
    )


def apply_branch(v: Sequence[Fraction], branch: str) -> Tuple[Fraction, ...]:
    perm, signs = parse_branch(branch)
    v = tuple(Fraction(x) for x in v)
    return tuple(signs[i] * v[perm[i]] for i in range(4))


def all_branches() -> List[str]:
    """All 192 dihedral branch ids (24 permutations x 8 even sign patterns)."""
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product("+-", repeat=4):
            if signs.count("-") % 2:
                continue
            out.append("".join(map(str, perm)) + "".join(signs))
    return out


def branch_key(v: Sequence[Fraction]) -> tuple:
    """Everything downstream depends on v only through this key."""
    v1, v2, v3, v4 = v
    return (v1 + v2, v1 * v2, v3 + v4, v3 * v4)


def distinct_branches(params: ScalingParams, branches: Sequence[str] = None) -> List[str]:
    """Representatives of the distinct solution branches (deduplicated)."""
    seen: Dict[tuple, str] = {}
    for b in branches if branches is not None else all_branches():
        key = branch_key(v_values(params, b))
        bid = canonical_branch(b)
        if key not in seen:
            seen[key] = bid
    return list(seen.values())


# ---------------------------------------------------------------------------
# rational-function stages
# ---------------------------------------------------------------------------


def f_from_tau0(tau: RatFunc) -> RatFunc:
    """f = t(t-1) * tau'/tau."""
    if tau.is_zero:
        raise ZeroTauError("tau0 vanishes identically")
    t = tau.ring.var("t")
    return RatFunc(t * (t - 1)) * tau.derivative("t") / tau


def sigma_from_f(f: RatFunc, a: Fraction, b: Fraction) -> RatFunc:
    t = f.ring.var("t")
    return f - RatFunc(t * a + f.ring.const(b))


def omega_products(f: RatFunc, r2: int) -> Tuple[RatFunc, ...]:
    """Closed forms of (w1*wb1, w2*wb2, w3*wb3) along the Euler-top flow."""
    t = f.ring.var("t")
    fp = f.derivative("t")
    return (
        RatFunc(t - 1) * fp - f,
        fp,
        f - RatFunc(t) * fp - r2,
    )


def _wronskians(p: MultiPoly, q: MultiPoly):
    """The Wronskian-style combinations d1 = p'q - pq' and
    d2 = d1'q - 2q'd1 of the quotient p/q.

    With them (p/q)' = d1/q^2 and (p/q)'' = d2/q^3, so every consumer works
    on polynomials and divides by a power of q once at the end.
    """
    dq = q.derivative("t")
    d1 = p.derivative("t") * q - p * dq
    return d1, d1.derivative("t") * q - 2 * dq * d1


def okamoto_y(sigma: RatFunc, v: Sequence[Fraction]) -> RatFunc:
    """Extract y from sigma on one branch; raises if the branch degenerates."""
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    t = sigma.ring.var("t")
    sp, sq = sigma.num, sigma.den
    sd1, sd2 = _wronskians(sp, sq)
    sq2 = sq * sq
    a_num = (sd1 + v3 * v3 * sq2) * (sd1 + v4 * v4 * sq2)
    if a_num.is_zero:
        raise DegenerateBranchError(
            "extraction denominator (sigma'+v3^2)(sigma'+v4^2) is identically zero"
        )
    e1 = v1 + v2 + v3 + v4
    e2 = sum(
        a * b for a, b in itertools.combinations((v1, v2, v3, v4), 2)
    )
    e3 = sum(
        a * b * c for a, b, c in itertools.combinations((v1, v2, v3, v4), 3)
    )
    b_num = t * (t - 1) * sd2 + e1 * sd1 * sq - e3 * (sq * sq2)
    c_num = 2 * t * sd1 - 2 * sp * sq - e2 * sq2
    y_num = (v3 + v4) * b_num * sq + (sd1 - v3 * v4 * sq2) * c_num
    return RatFunc(y_num, 2 * a_num)


def sigma_form_residual(sigma: RatFunc, v: Sequence[Fraction]) -> MultiPoly:
    """sigma'(t(t-1)sigma'')^2 + (sigma'[2 sigma-(2t-1)sigma'] + e4)^2
    - prod_k(sigma' + v_k^2), as its numerator over sq^8 (sq = sigma's
    denominator); identically zero iff sigma solves the form."""
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    ring = sigma.ring
    t = ring.var("t")
    sp, sq = sigma.num, sigma.den
    sd1, sd2 = _wronskians(sp, sq)
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


def pvi_residual(
    y: RatFunc,
    alpha: Fraction,
    beta: Fraction,
    gamma: Fraction,
    delta: Fraction,
) -> MultiPoly:
    """Difference of the two sides of Painleve VI, as its numerator over
    2 t^2 (t-1)^2 Q^3 U V W (with y = P/Q, U = P, V = P - Q, W = P - t*Q).

    U, V and W are checked to be nonzero, so the residual vanishes exactly
    when the returned numerator does.
    """
    alpha, beta, gamma, delta = (
        Fraction(x) for x in (alpha, beta, gamma, delta)
    )
    t = y.ring.var("t")
    P, Q = y.num, y.den
    U = P
    V = P - Q
    W = P - t * Q
    if U.is_zero:
        raise FixedSingularityError("y is identically 0")
    if V.is_zero:
        raise FixedSingularityError("y is identically 1")
    if W.is_zero:
        raise FixedSingularityError("y is identically t")
    N1, N2 = _wronskians(P, Q)
    tt1 = t * (t - 1)
    UV, UW, VW = U * V, U * W, V * W
    UVW = UV * W
    return tt1 * (
        tt1 * (2 * UVW * N2 - (N1 * N1) * (UV + UW + VW))
        + 2 * N1 * Q * UV * ((2 * t - 1) * W + tt1 * Q)
    ) - 2 * (
        alpha * (UVW * UVW)
        + (Q * Q)
        * (
            beta * (t * (VW * VW))
            + gamma * ((t - 1) * (UW * UW))
            + delta * (tt1 * (UV * UV))
        )
    )


# ---------------------------------------------------------------------------
# assembled pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PainleveData:
    """Everything derived for one branch of one (mu, nu, weights) family."""

    branch: str
    v: Tuple[Fraction, ...]
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    a: Fraction
    b: Fraction
    c: Tuple[Fraction, ...]
    A: Tuple[Fraction, ...]
    f: RatFunc
    sigma: RatFunc
    y: RatFunc


@dataclass(frozen=True)
class SolveResult:
    params: ScalingParams
    tau0: RatFunc
    f: RatFunc
    sigma: RatFunc
    a: Fraction
    b: Fraction
    c: Tuple[Fraction, ...]
    A: Tuple[Fraction, ...]
    branches: Tuple[PainleveData, ...]
    degenerate: Tuple[Tuple[str, str], ...]  # (branch id, reason)


def solve_family(
    params: ScalingParams,
    weights: WeightMatrix,
    branches: Sequence[str] = None,
    dedupe: bool = True,
) -> SolveResult:
    """Run the full pipeline; degenerate branches are reported, not raised."""
    family = TauFamily(params, weights)
    tau = family.tau0()
    if tau.is_zero:
        raise ZeroTauError(
            f"tau0 vanishes for nu={params.nu} (off the support of m={params.m})"
        )
    f = f_from_tau0(tau)
    cs = c_coefficients(params)
    a, b = shift_ab(cs[0], cs[1])
    sigma = sigma_from_f(f, a, b)
    As = A_from_c(cs)
    if branches is None:
        branch_list = distinct_branches(params)
    elif dedupe:
        branch_list = distinct_branches(params, branches)
    else:
        branch_list = [canonical_branch(x) for x in branches]
    out = []
    degenerate = []
    for bid in branch_list:
        v = v_values(params, bid)
        alpha, beta, gamma, delta = pvi_params(v)
        try:
            y = okamoto_y(sigma, v)
            if y.num.is_zero or (y.num - y.den).is_zero or (
                y.num - y.ring.var("t") * y.den
            ).is_zero:
                raise FixedSingularityError(
                    "extracted y sits at a fixed singularity of the equation"
                )
        except (DegenerateBranchError, FixedSingularityError) as exc:
            degenerate.append((bid, str(exc)))
            continue
        out.append(
            PainleveData(
                branch=bid,
                v=v,
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                delta=delta,
                a=a,
                b=b,
                c=cs,
                A=As,
                f=f,
                sigma=sigma,
                y=y,
            )
        )
    return SolveResult(
        params=params,
        tau0=tau,
        f=f,
        sigma=sigma,
        a=a,
        b=b,
        c=cs,
        A=As,
        branches=tuple(out),
        degenerate=tuple(degenerate),
    )
