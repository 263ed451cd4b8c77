"""Determinant representations of the reduced 3-component tau functions.

The scaling data is a pair of integer triples (mu, nu) with equal traces.
After normalizing mu by the minimal shift that makes every entry <= 0, the
sorted drops m1 >= m2 >= m3 >= 0 fix the matrix sizes, and a charge vector nu
is *supported* when

    nu1 + nu2 + nu3 = -(m1 + m2 + m3)   and   -m1 <= nu_i <= -m3  for all i.

Two equivalent constructions of the same tau function are provided:

* ``build_E``  -- square matrix of size 2*m1 - m2 - m3 whose entries are
  weights times elementary Schur polynomials of the time differences
  u^(2)-u^(1) and u^(3)-u^(1).  At the times ``t_times`` gives,
  u^(2)-u^(1) = (t, 0, ...) and u^(3)-u^(1) = (1, 0, ...), the Schur
  polynomials become divided powers of t and E becomes the matrix T;
  ``TauFamily.tau0`` divides the signed determinant of T by t^R2 where
  R2 = (sum mu_i^2 - sum nu_i^2) / 2.
* ``build_A``  -- a 3p x 3p matrix (p = max_i(m1 + nu_i)) built from the
  individual time sequences, whose signed determinant equals the signed
  determinant of E.

Both builders, and the fermionic oracle's ``apply_phi``, read S_n through
``TimeVector.schur``, so everything built over one time vector shares one
Schur table: ``tauvi oracle`` expands G|0> and builds E and A of every
support charge over one symbolic vector, and ``TauFamily`` builds T of every
charge over one ``t_times`` vector.

Row/column indices below follow the 1-based conventions of the defining
formulas; the ``add`` that ``_zero_matrix`` returns translates to 0-based
storage.  Entries that the formulas address multiple times accumulate
additively.

``rotation_beta`` gives the value at t = t0 of a rotation coefficient, the
quotient of two charge-shifted taus that seeds the Euler-top flow.  It
evaluates the two determinants, which ``TauFamily`` caches, at t0 and divides
the values, so the seed never builds a rational function of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence, Tuple

from .exactalg import (
    DegenerateSpecialization,
    MultiPoly,
    PolyRing,
    RatFunc,
    fraction_free_det,
)
from .schur import TimeVector

WEIGHT_SYMBOLS = ("w12", "w22", "w32", "w13", "w23", "w33")


class ScalingDataError(ValueError):
    """Invalid (mu, nu) scaling data."""


def _triple(name: str, xs) -> Tuple[int, int, int]:
    xs = tuple(xs)
    if len(xs) != 3 or not all(isinstance(x, int) for x in xs):
        raise ScalingDataError(f"{name} must be a triple of integers, got {xs!r}")
    return xs


@dataclass(frozen=True)
class ScalingParams:
    """Normalized scaling data: mu_i <= 0, with the applied shift recorded."""

    mu: Tuple[int, int, int]
    nu: Tuple[int, int, int]
    m: Tuple[int, int, int]
    shift_c: int
    R2: int
    p: int

    def in_support(self, nu: Sequence[int] = None) -> bool:
        nu = self.nu if nu is None else tuple(nu)
        m1, m2, m3 = self.m
        if sum(nu) != -(m1 + m2 + m3):
            return False
        return all(-m1 <= v <= -m3 for v in nu)

    def r2_of(self, nu: Sequence[int]) -> int:
        """R2 for a different charge vector in the same family."""
        s = sum(x * x for x in self.mu) - sum(x * x for x in nu)
        assert s % 2 == 0
        return s // 2


def normalize_params(mu: Sequence[int], nu: Sequence[int]) -> ScalingParams:
    """Validate (mu, nu), shift so all mu_i <= 0, and derive m, R2, p."""
    mu = _triple("mu", mu)
    nu = _triple("nu", nu)
    if sum(mu) != sum(nu):
        raise ScalingDataError(
            f"trace mismatch: sum(mu)={sum(mu)} but sum(nu)={sum(nu)}"
        )
    c = max(0, max(mu))
    mu_n = tuple(x - c for x in mu)
    nu_n = tuple(x - c for x in nu)
    m = tuple(sorted((-x for x in mu_n), reverse=True))
    s = sum(x * x for x in mu_n) - sum(x * x for x in nu_n)
    assert s % 2 == 0, "parity of traces guarantees an integer R2"
    r2 = s // 2
    p = max(m[0] + v for v in nu_n)
    return ScalingParams(mu=mu_n, nu=nu_n, m=m, shift_c=c, R2=r2, p=p)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def det3(m):
    """Determinant of a 3x3 matrix, expanded along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@dataclass(frozen=True)
class WeightMatrix:
    """3x3 invertible weight matrix; ``None`` entries mean symbolic w{a}{b}.

    Only columns 2 and 3 enter the tau matrices (column 1 is the gauge-fixed
    one), but invertibility is a property of the full matrix, so numeric
    instances carry all nine entries.
    """

    entries: Tuple[Tuple[Optional[Fraction], ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("weight matrix must be 3x3")
        kinds = {e is None for row in rows for e in row}
        if kinds == {True, False}:
            raise ValueError("weights must be fully symbolic or fully numeric")
        object.__setattr__(self, "entries", rows)
        if not self.is_symbolic and det3(rows) == 0:
            raise ValueError("weight matrix is singular")

    @property
    def is_symbolic(self) -> bool:
        return self.entries[0][0] is None

    @classmethod
    def symbolic(cls) -> "WeightMatrix":
        return cls(((None,) * 3,) * 3)

    @classmethod
    def from_rows(cls, rows) -> "WeightMatrix":
        conv = tuple(tuple(Fraction(x) for x in r) for r in rows)
        return cls(conv)

    @classmethod
    def random(cls, seed: int) -> "WeightMatrix":
        """Deterministic random rational weights with nonzero determinant."""
        rng = Random(seed)
        while True:
            rows = []
            for _ in range(3):
                row = []
                for _ in range(3):
                    num = 0
                    while num == 0:
                        num = rng.randint(-9, 9)
                    row.append(Fraction(num, rng.randint(1, 9)))
                rows.append(tuple(row))
            try:
                return cls(tuple(rows))
            except ValueError:
                continue

    def entry(self, a: int, b: int, ring: PolyRing) -> MultiPoly:
        """w_a^{(b)} as a ring element (a = component 1..3, b = column 1..3)."""
        v = self.entries[a - 1][b - 1]
        if v is None:
            return ring.var(f"w{a}{b}")
        return ring.const(v)

    def value(self, a: int, b: int) -> Fraction:
        v = self.entries[a - 1][b - 1]
        if v is None:
            raise ValueError("symbolic weight matrix has no numeric entries")
        return v

    def to_json(self):
        if self.is_symbolic:
            return "symbolic"
        return [[str(x) for x in row] for row in self.entries]


def tau_ring(weights: WeightMatrix) -> PolyRing:
    """Ring holding t plus whatever weight symbols are in play."""
    return PolyRing(("t",) + (WEIGHT_SYMBOLS if weights.is_symbolic else ()))


def time_symbols(order: int) -> tuple:
    return tuple(f"u{a}{n}" for a in (1, 2, 3) for n in range(1, order + 1))


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------


def _sign_pow(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def sign_E(m1: int, nu: Sequence[int]) -> int:
    """Sign relating det(E) (equivalently det(T)) to tau."""
    n1, n2, n3 = nu
    return _sign_pow(m1 * n2 + n1 * n2 + n1 * n3 + n2 * n3)


def sign_A(p: int, m1: int, nu: Sequence[int]) -> int:
    """Sign relating det(A) to tau."""
    n1, n2, n3 = nu
    return _sign_pow(
        p * (p + 1) // 2 + m1 * n2 + m1 * p + p * n2 + n1 * n2 + n1 * n3 + n2 * n3
    )


def _charge(params: ScalingParams, nu: Optional[Sequence[int]]) -> Tuple[int, int, int]:
    """``params.nu``, or ``nu`` checked as an integer triple of the family's trace."""
    if nu is None:
        return params.nu
    nu = _triple("nu", nu)
    if sum(nu) != -sum(params.m):
        raise ScalingDataError(f"nu={nu} has the wrong trace for m={params.m}")
    return nu


def _zero_matrix(size: int, ring: PolyRing):
    """A size x size zero matrix and ``add(r, c, val)`` on its 1-based entries."""
    rows = [[ring.zero() for _ in range(size)] for _ in range(size)]

    def add(r, c, val):
        assert 1 <= r <= size and 1 <= c <= size, (r, c, size)
        rows[r - 1][c - 1] = rows[r - 1][c - 1] + val

    return rows, add


def _column_blocks(m):
    """(b, m_b, first column - 1, column count) of weight column b = 3, then 2."""
    m1, m2, m3 = m
    return ((3, m3, 0, m1 - m3), (2, m2, m1 - m3, m1 - m2))


def build_E(
    params: ScalingParams,
    weights: WeightMatrix,
    u: TimeVector,
    ring: PolyRing,
    nu: Sequence[int] = None,
):
    """Schur-entry matrix of size 2*m1-m2-m3; ``None`` flags zero tau."""
    nu = _charge(params, nu)
    if not params.in_support(nu):
        return None
    m1, m2, m3 = params.m
    n1, _, n3 = nu
    size = 2 * m1 - m2 - m3
    rows, add = _zero_matrix(size, ring)
    for b, mb, col0, count in _column_blocks(params.m):
        for j in range(1, min(m1 + n1, count) + 1):
            add(size - j + 1, col0 + count - j + 1, weights.entry(1, b, ring))
        for i in range(1, count + 1):
            for a, row0 in ((2, m1 + n3), (3, 0)):
                for j in range(1, m1 + nu[a - 1] + 1):
                    n = j - mb - nu[a - 1] - i
                    if n >= 0:
                        add(row0 + j, col0 + i, weights.entry(a, b, ring) * u.schur(n, a, 1))
    return rows


def t_times(ring: PolyRing) -> TimeVector:
    """The times u1 = 0, u2 = t, u3 = 1 at which E becomes T."""
    return TimeVector((Fraction(0),), (ring.var("t"),), (ring.one(),))


def build_A(
    params: ScalingParams,
    weights: WeightMatrix,
    u: TimeVector,
    ring: PolyRing,
    nu: Sequence[int] = None,
):
    """The 3p x 3p matrix over the individual time sequences."""
    nu = _charge(params, nu)
    if not params.in_support(nu):
        return None
    m1, m2, m3 = params.m
    p = max(m1 + v for v in nu)
    size = 3 * p
    rows, add = _zero_matrix(size, ring)
    nu_parity = sum(nu)
    for b, mb, col0, count in _column_blocks(params.m):
        for i in range(1, count + 1):
            for a in (1, 2, 3):
                fa = weights.entry(a, b, ring) * _sign_pow(nu_parity + nu[a - 1])
                for j in range(0, m1 + nu[a - 1]):
                    n = j - mb - nu[a - 1] - i + 1
                    if n >= 0:
                        add(3 * j + 4 - a, col0 + i, fa * u.schur(n, a))
    col = 2 * m1 - m2 - m3
    one = ring.one()
    for a in (1, 2, 3):
        for i in range(1, p - m1 - nu[a - 1] + 1):
            col += 1
            add(3 * (m1 + nu[a - 1] + i) - (a - 1), col, one)
    assert col == size
    return rows


def tau_from_E(params, weights, u, ring, nu=None):
    """Sign-adjusted det(E): the tau function at the given times."""
    nu = _charge(params, nu)
    mat = build_E(params, weights, u, ring, nu=nu)
    if mat is None:
        return ring.zero()
    det = fraction_free_det(mat, ring)
    return det if sign_E(params.m[0], nu) > 0 else -det


def tau_from_A(params, weights, u, ring, nu=None):
    """Sign-adjusted det(A); equals :func:`tau_from_E` on the support."""
    nu = _charge(params, nu)
    mat = build_A(params, weights, u, ring, nu=nu)
    if mat is None:
        return ring.zero()
    det = fraction_free_det(mat, ring)
    p = max(params.m[0] + v for v in nu)
    return det if sign_A(p, params.m[0], nu) > 0 else -det


# ---------------------------------------------------------------------------
# tau0 and rotation coefficients
# ---------------------------------------------------------------------------


class TauFamily:
    """All charge vectors of one (mu, nu) family over a fixed weight matrix.

    Every T matrix is built over one ``t_times`` vector, so ``tau0`` and the
    charge-shifted determinants of ``rotation_beta`` share its Schur table.
    """

    def __init__(self, params: ScalingParams, weights: WeightMatrix):
        self.params = params
        self.weights = weights
        self.ring = tau_ring(weights)
        self._times = t_times(self.ring)
        self._dets = {}

    def det_T(self, nu=None) -> MultiPoly:
        nu = _charge(self.params, nu)
        if nu not in self._dets:
            mat = build_E(self.params, self.weights, self._times, self.ring, nu=nu)
            if mat is None:
                self._dets[nu] = self.ring.zero()
            else:
                self._dets[nu] = fraction_free_det(mat, self.ring)
        return self._dets[nu]

    def tau0(self, nu=None) -> RatFunc:
        """The tau function at the (t, h=t... ) projection: sign * det(T) / t^R2."""
        nu = _charge(self.params, nu)
        det = self.det_T(nu)
        if det.is_zero:
            return RatFunc(self.ring.zero())
        num = det if sign_E(self.params.m[0], nu) > 0 else -det
        t = self.ring.var("t")
        return RatFunc(num, t ** self.params.r2_of(nu))


def rotation_beta(
    family: TauFamily,
    i: int,
    j: int,
    t0: Fraction,
    h0: Fraction = Fraction(1),
) -> RatFunc:
    """Rotation coefficient beta_ij at t = t0, a function of the weights alone.

    With nu' = nu + e_i - e_j, this is

        -sgn(i - j) * (-1)^{m1*([i=2]+[j=2]) + nu1+nu2+nu3+nu_k}
            * (h0/t0)^{nu_j - nu_i - 1} * det T_{nu'}(t0) / det T_{nu}(t0)

    where k is the index distinct from i and j.  Both cached determinants are
    evaluated at t0 before the quotient forms, so no rational function of t
    is built; an off-support nu' has det T_{nu'} = 0 and gives zero.  Raises
    DegenerateSpecialization when det T_nu, and so tau0, vanishes at t0.
    """
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError(f"need distinct i, j in 1..3, got {(i, j)}")
    t0 = Fraction(t0)
    h0 = Fraction(h0)
    if t0 == 0 or h0 == 0:
        raise ValueError("t0 and h0 must be nonzero")
    params = family.params
    nu = params.nu
    m1 = params.m[0]
    shifted = list(nu)
    shifted[i - 1] += 1
    shifted[j - 1] -= 1
    k = ({1, 2, 3} - {i, j}).pop()
    exponent = m1 * ((i == 2) + (j == 2)) + sum(nu) + nu[k - 1]
    sgn = (-1 if i > j else 1) * _sign_pow(exponent)
    power = nu[j - 1] - nu[i - 1] - 1  # exponent of h/t
    at_t0 = {"t": t0}
    den = family.det_T(nu).subs(at_t0)
    if den.is_zero:
        raise DegenerateSpecialization(f"tau0 vanishes at t={t0}")
    num = family.det_T(shifted).subs(at_t0) * (sgn * (h0 / t0) ** power)
    return RatFunc(num, den)
