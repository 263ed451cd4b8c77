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

Both checks reach their zero verdict without building that numerator R.
Each residual's formula is written once over any ring and read three ways:
as degree and l1-norm bounds (``_Bound``), as an exact ``Decimal`` and as a
``MultiPoly``.  One routine, ``_residual``, decides both checks, and its
``_image`` reads either formula the same way.  The quotient
(y = P/Q for PVI, sigma = sp/sq for the sigma form) is scaled to integer
coefficients, and R is multiplied by a power of the common denominator of
its scalars (alpha..delta for PVI, e4 and the v_k^2 for the sigma form).
Every symbol outside the pivots of the exponent lattice of the quotient's
numerator and denominator is set to 1, which merges no two monomials of R;
pivot i becomes X^(prod_{j<i}(d_j+1)) with X = 10^k > 2B+1, where d_j bounds
the degree of R in pivot j and B bounds its coefficients (Kronecker
substitution).  Distinct monomials of R then land on distinct powers of X
with digits smaller than X, so the one integer this yields is 0 exactly when
R is.  It is evaluated in a ``decimal`` context that traps on any rounding,
because libmpdec multiplies operands of a million digits by a
number-theoretic transform.  Only a residual that does not vanish is built
as a ``MultiPoly``.

The quartic invariants A1..A4 admit three independent evaluations (from
c5..c10, symmetrically from the v's, and from (alpha..delta) together with
the signed square root v3+v4+1 of 1-2*delta); agreement across all three is a
strong consistency check and is exposed here for the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .exactalg import MultiPoly, RatFunc, _coprime_ratfunc, poly_gcd
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
    f3 = sd1 + v3 * v3 * sq2
    f4 = sd1 + v4 * v4 * sq2
    if f3.is_zero or f4.is_zero:
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
    # y = y_num / (2 f3 f4).  In a UFD gcd(Y, f3 f4) = g3 * gcd(Y/g3, f4) with
    # g3 = gcd(Y, f3), so two gcds against the factors replace one against
    # their product, which has about twice the terms.  The quotient left is
    # already reduced: Y/(g3 g4) divides Y/g3, which is coprime to f3/g3, and
    # it is coprime to f4/g4 by the choice of g4.  So no prime divides both
    # it and 2 (f3/g3)(f4/g4), and no third gcd runs.
    g3 = poly_gcd(y_num, f3)
    y_num = y_num.divexact(g3)
    g4 = poly_gcd(y_num, f4)
    return _coprime_ratfunc(y_num.divexact(g4), 2 * f3.divexact(g3) * f4.divexact(g4))


def _reject_fixed_points(y: RatFunc) -> None:
    """Raise FixedSingularityError if y is identically 0, 1 or t, the fixed
    singularities of Painleve VI, where its residual cannot be written down."""
    t = y.ring.var("t")
    for name, diff in (("0", y.num), ("1", y.num - y.den), ("t", y.num - t * y.den)):
        if diff.is_zero:
            raise FixedSingularityError(f"y is identically {name}")


def _pvi_numerator(t, P, Q, N1, N2, alpha, beta, gamma, delta, den=1):
    """den times the difference of the two sides of Painleve VI for y = P/Q,
    as its numerator over 2 t^2 (t-1)^2 Q^3 U V W (with U = P, V = P - Q,
    W = P - t*Q), where alpha..delta are numerators over den.

    N1 and N2 are the Wronskians of (P, Q) from ``_wronskians``.  The formula
    is written once over any ring: ``MultiPoly``, ``Decimal`` and ``_Bound``
    arguments all read it.  Every term is homogeneous of degree 6 in (P, Q).
    """
    U, V, W = P, P - Q, P - t * Q
    tt1 = t * (t - 1)
    UV, UW, VW = U * V, U * W, V * W
    UVW = UV * W
    return den * tt1 * (
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


def _sigma_numerator(t, sp, sq, sd1, sd2, e4, w1, w2, w3, w4, den=1):
    """den^4 times the residual of the sigma form for sigma = sp/sq, as its
    numerator over sq^8, where e4 = v1 v2 v3 v4 and w_k = v_k^2 are
    numerators over den.

    sd1 and sd2 are the Wronskians of (sp, sq) from ``_wronskians``.  Like
    ``_pvi_numerator`` the formula is written once over any ring.  Every term
    is homogeneous of degree 8 in (sp, sq).
    """
    a = t * (t - 1) * sd2
    sq2 = sq * sq
    inner = den * (sd1 * (2 * sp * sq - (2 * t - 1) * sd1)) + e4 * (sq2 * sq2)
    d1 = den * sd1
    product = (d1 + w1 * sq2) * (d1 + w2 * sq2) * (d1 + w3 * sq2) * (d1 + w4 * sq2)
    return den**4 * (sd1 * (a * a)) + den**2 * (inner * inner) - product


class _Bound:
    """A polynomial read as bounds: its degree in each pivot symbol (+ and -
    take the max, * adds) and the l1 norm of its coefficients (+ and - add,
    * multiplies).  A scalar c reads as degree 0 and norm |c|."""

    __slots__ = ("deg", "norm")

    def __init__(self, deg: Tuple[int, ...], norm: int):
        self.deg = deg
        self.norm = norm

    def _lift(self, other) -> "_Bound":
        if isinstance(other, _Bound):
            return other
        return _Bound((0,) * len(self.deg), abs(other))

    def __add__(self, other):
        o = self._lift(other)
        return _Bound(tuple(map(max, self.deg, o.deg)), self.norm + o.norm)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        return _Bound(tuple(map(add, self.deg, o.deg)), self.norm * o.norm)

    __rmul__ = __mul__


def _pivot_symbols(P: MultiPoly, Q: MultiPoly) -> Tuple[int, ...]:
    """Ring indices of the pivot columns, t first, of the reduced row echelon
    form of the span of e_t and the differences between exponents of P and Q.

    Every monomial of either residual's numerator is a sum of exponents of P
    or Q (six for PVI, eight for the sigma form) shifted along t, so any two
    differ by a vector of this span.  A vector of the span is fixed by its
    pivot coordinates, so setting every other symbol to 1 merges no two
    monomials.
    """
    n = P.ring.nvars
    it = P.ring.index("t")
    cols = [it] + [i for i in range(n) if i != it]
    exps = [[e[i] for i in cols] for e in itertools.chain(P.terms, Q.terms)]
    rows: Dict[int, list] = {}  # leading column -> row, zero before it
    for vec in [[1] + [0] * (n - 1)] + [list(map(sub, e, exps[0])) for e in exps[1:]]:
        for lead in sorted(rows):
            c = vec[lead]
            if c:
                row = rows[lead]
                vec = [row[lead] * x - c * r for x, r in zip(vec, row)]
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is not None:
            rows[lead] = vec
            if len(rows) == n:
                break
    return tuple(cols[j] for j in sorted(rows))


def _digits(slots: Dict[int, int], k: int) -> Decimal:
    """The sum of c * 10^(k*n) over {n: c} with 0 < c < 10^k, parsed from
    its digit string in linear time.  Each run of empty slots is written as
    one string of zeros.  ``str`` of a ``Decimal``, unlike that of an int,
    has no digit limit."""
    if not slots:
        return Decimal(0)
    parts = []
    above = max(slots) + 1  # the lowest slot written so far
    for n in sorted(slots, reverse=True):
        parts.append("0" * (k * (above - n - 1)))
        parts.append(str(Decimal(slots[n])).zfill(k))
        above = n
    parts.append("0" * (k * above))
    return Decimal("".join(parts))


def _decimal_image(terms: Dict[tuple, int], strides: Sequence[int], k: int) -> Decimal:
    """The sum of c * X^(e . strides) over {e: c}, X = 10^k, for |c| < X and
    exponents e that the strides send to distinct powers of X."""
    pos: Dict[int, int] = {}
    neg: Dict[int, int] = {}
    for e, c in terms.items():
        (neg if c < 0 else pos)[sum(map(mul, e, strides))] = abs(c)
    return _digits(pos, k) - _digits(neg, k)


# Integer arithmetic on Decimal: a result wider than the precision or outside
# the exponent range raises instead of rounding.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


class _Image(NamedTuple):
    """scale * R at the Kronecker point, for R the ``MultiPoly`` reading of
    a residual's formula; see the module docstring."""

    value: Decimal
    scale: Fraction  # den^den_power * lam^degree
    pivots: Tuple[int, ...]  # ring indices, t first
    degrees: Tuple[int, ...]  # bound on the degree of R in each pivot
    bound: int  # bound B on every coefficient of scale * R
    digits: int  # k, with X = 10^k > 2B + 1


def _strides(degrees: Sequence[int]) -> List[int]:
    """The mixed radix over degree bounds: pivot i steps by prod_{j<i}(d_j+1)."""
    strides, s = [], 1
    for d in degrees:
        strides.append(s)
        s *= d + 1
    return strides


def _width(top: int) -> int:
    """The least k with 10^k > top."""
    return Decimal(top).adjusted() + 1


def _image(formula, P, Q, N1, N2, scalars, degree, den_power) -> _Image:
    """scale * R at the Kronecker point, for R the numerator that
    ``formula`` gives for the quotient P/Q: 0 exactly when R vanishes, and
    computed without polynomial products.

    ``formula(t, P, Q, N1, N2, *nums, den)`` takes the Wronskians N1, N2 of
    (P, Q) from ``_wronskians`` and the rational ``scalars`` as integer
    numerators over their common denominator den.  It must be homogeneous of
    the given degree in (P, Q) and carry den to the power den_power.
    """
    pivots = _pivot_symbols(P, Q)
    # lam P and lam Q have coprime integer contents, so lam^2 N1 and lam^3 N2
    # have integer coefficients too.
    lam = Fraction(
        lcm(P.content.denominator, Q.content.denominator),
        gcd(P.content.numerator, Q.content.numerator),
    )
    den = lcm(*(a.denominator for a in scalars))
    nums = [(den * a).numerator for a in scalars]
    inputs = []
    for F, w in ((P, 1), (Q, 1), (N1, 2), (N2, 3)):
        m = (lam**w * F.content).numerator
        inputs.append({tuple(e[i] for i in pivots): m * c for e, c in F.terms.items()})
    zero = (0,) * len(pivots)
    bounds = formula(
        _Bound((1,) + zero[1:], 1),
        *(
            _Bound(tuple(max(col) for col in zip(zero, *terms)), sum(map(abs, terms.values())))
            for terms in inputs
        ),
        *nums,
        den,
    )
    strides = _strides(bounds.deg)
    # X must exceed 2B + 1 and every input coefficient, which _digits writes
    # k digits wide.
    k = _width(max([2 * bounds.norm + 1] + [abs(c) for x in inputs for c in x.values()]))
    with localcontext(_EXACT):
        value = formula(
            Decimal(f"1e{k}"),
            *(_decimal_image(terms, strides, k) for terms in inputs),
            *nums,
            den,
        )
    return _Image(value, den**den_power * lam**degree, pivots, bounds.deg, bounds.norm, k)


def _residual(formula, quotient: RatFunc, scalars, degree, den_power) -> MultiPoly:
    """The numerator R that ``formula`` gives for ``quotient`` and the
    rational ``scalars``: the zero polynomial, unbuilt, when its ``_image``
    is 0, and otherwise R built as a ``MultiPoly``."""
    P, Q = quotient.num, quotient.den
    N1, N2 = _wronskians(P, Q)
    if _image(formula, P, Q, N1, N2, scalars, degree, den_power).value == 0:
        return quotient.ring.zero()
    return formula(quotient.ring.var("t"), P, Q, N1, N2, *scalars)


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
    when the returned numerator does.  A vanishing numerator is recognized
    from its exact Kronecker image (``_image`` of ``_pvi_numerator``) and
    returned as zero without being built.
    """
    params = tuple(Fraction(x) for x in (alpha, beta, gamma, delta))
    _reject_fixed_points(y)
    return _residual(_pvi_numerator, y, params, degree=6, den_power=1)


def sigma_form_residual(sigma: RatFunc, v: Sequence[Fraction]) -> MultiPoly:
    """sigma'(t(t-1)sigma'')^2 + (sigma'[2 sigma-(2t-1)sigma'] + e4)^2
    - prod_k(sigma' + v_k^2), as its numerator over sq^8 (sq = sigma's
    denominator); identically zero iff sigma solves the form.

    ``_residual`` decides the verdict, as for ``pvi_residual``: a sigma that
    solves the form returns the zero polynomial without its degree-8
    numerator being built, and only a failing check builds it.
    """
    v1, v2, v3, v4 = (Fraction(x) for x in v)
    scalars = (v1 * v2 * v3 * v4, v1 * v1, v2 * v2, v3 * v3, v4 * v4)
    return _residual(_sigma_numerator, sigma, scalars, degree=8, den_power=4)


# ---------------------------------------------------------------------------
# assembled pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PainleveData:
    """What one branch adds to its family's ``SolveResult``.

    ``sigma`` is the family's, repeated so that a branch alone can be checked
    against the sigma form.
    """

    branch: str
    v: Tuple[Fraction, ...]
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
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
    branch_list = distinct_branches(params, branches)
    out = []
    degenerate = []
    for bid in branch_list:
        v = v_values(params, bid)
        alpha, beta, gamma, delta = pvi_params(v)
        try:
            y = okamoto_y(sigma, v)
            _reject_fixed_points(y)
        except DegenerateBranchError as exc:
            degenerate.append((bid, str(exc)))
            continue
        except FixedSingularityError:
            degenerate.append(
                (bid, "extracted y sits at a fixed singularity of the equation")
            )
            continue
        out.append(
            PainleveData(
                branch=bid,
                v=v,
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                delta=delta,
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
