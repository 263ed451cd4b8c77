"""Elementary Schur polynomials and time vectors.

``elementary_schur(j, s)`` is the coefficient of lambda^j in
exp(sum_n s_n lambda^n); it is computed by the Newton-style recurrence

    j * S_j = sum_{k=1}^{j} k * s_k * S_{j-k},        S_0 = 1,  S_{j<0} = 0.

Sequences are finite tuples (entries beyond the end count as zero), and the
entries may be exact rationals or :class:`~tauvi.exactalg.MultiPoly` from a
common ring, so the same code serves numeric and symbolic callers.

A :class:`TimeVector` bundles the three time sequences u^(1), u^(2), u^(3) of
the three-component hierarchy, truncated at a chosen order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence, Tuple, Union

from .exactalg import MultiPoly, PolyRing

Entry = Union[int, Fraction, MultiPoly]


def _zero_like(x: Entry):
    if isinstance(x, MultiPoly):
        return x.ring.zero()
    return Fraction(0)


def sequence_diff(a: Sequence[Entry], b: Sequence[Entry]) -> tuple:
    """Entrywise a - b, padding the shorter sequence with zeros."""
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x - y)
    return tuple(out)


def sequence_scale(a: Sequence[Entry], factor) -> tuple:
    return tuple(x * factor for x in a)


def elementary_schur(j: int, s: Sequence[Entry]):
    """S_j of a (finite) time sequence; exact, polymorphic in the entries."""
    if j < 0:
        return Fraction(0) if not s else _zero_like(s[0])
    chain = [Fraction(1) if not s or not isinstance(s[0], MultiPoly) else s[0].ring.one()]
    for jj in range(1, j + 1):
        acc = None
        for k in range(1, jj + 1):
            sk = s[k - 1] if k <= len(s) else 0
            if isinstance(sk, int) and sk == 0:
                continue
            part = sk * chain[jj - k] * k
            acc = part if acc is None else acc + part
        if acc is None:
            acc = _zero_like(chain[0]) if isinstance(chain[0], MultiPoly) else Fraction(0)
        chain.append(acc * Fraction(1, jj))
    return chain[j]


def divided_power(n: int, x: Entry):
    """x^n / n! for n >= 0, and 0 for negative n (same type as x)."""
    if n < 0:
        return _zero_like(x)
    return x**n * Fraction(1, factorial(n))


@dataclass(frozen=True)
class TimeVector:
    """The triple of truncated time sequences of the 3-component hierarchy."""

    u1: Tuple[Entry, ...]
    u2: Tuple[Entry, ...]
    u3: Tuple[Entry, ...]

    def __post_init__(self):
        object.__setattr__(self, "u1", tuple(self.u1))
        object.__setattr__(self, "u2", tuple(self.u2))
        object.__setattr__(self, "u3", tuple(self.u3))

    @property
    def order(self) -> int:
        return max(len(self.u1), len(self.u2), len(self.u3))

    def component(self, a: int) -> tuple:
        if a == 1:
            return self.u1
        if a == 2:
            return self.u2
        if a == 3:
            return self.u3
        raise ValueError(f"component index must be 1, 2 or 3, got {a}")

    def diff(self, a: int, b: int) -> tuple:
        """u^(a) - u^(b)."""
        return sequence_diff(self.component(a), self.component(b))

    @classmethod
    def symbolic(cls, ring: PolyRing, order: int) -> "TimeVector":
        """Pull symbols named ``u{a}{n}`` (a = component, n = time index)
        out of ``ring``; e.g. order 2 uses u11, u12, u21, u22, u31, u32."""
        seqs = []
        for a in (1, 2, 3):
            seqs.append(tuple(ring.var(f"u{a}{n}") for n in range(1, order + 1)))
        return cls(*seqs)

    @classmethod
    def zero(cls, order: int = 0) -> "TimeVector":
        z = (Fraction(0),) * order
        return cls(z, z, z)
