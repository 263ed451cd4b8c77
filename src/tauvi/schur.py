"""Elementary Schur polynomials and time vectors.

``elementary_schur(j, s)`` is the coefficient of lambda^j in
exp(sum_n s_n lambda^n); it is computed by the Newton-style recurrence

    j * S_j = sum_{k=1}^{j} k * s_k * S_{j-k},        S_0 = 1,  S_{j<0} = 0.

Sequences are finite tuples (entries beyond the end count as zero, so the
sum runs over k <= len(s)), and the entries may be exact rationals or
:class:`~tauvi.exactalg.MultiPoly` from a common ring.  The recurrence runs
the same way on both: it starts from zero = 0 * s_1 (``Fraction(0)`` for an
empty sequence), so S_0 = zero + 1 and every sum have the entries' type.

A :class:`TimeVector` bundles the three time sequences u^(1), u^(2), u^(3) of
the three-component hierarchy, truncated at a chosen order.  It also holds
the one table of S_n that every tau matrix over those times reads:
``TimeVector.schur`` memoizes S_n of each component u^(a) and of each
difference u^(a) - u^(b), so the matrices of all charge vectors of a family
compute each S_n once.  The table lives as long as the vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .exactalg import MultiPoly, PolyRing

Entry = Union[int, Fraction, MultiPoly]


def sequence_diff(a: Sequence[Entry], b: Sequence[Entry]) -> tuple:
    """Entrywise a - b, padding the shorter sequence with zeros."""
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x - y)
    return tuple(out)


def elementary_schur(j: int, s: Sequence[Entry]):
    """S_j of a (finite) time sequence; exact, polymorphic in the entries."""
    zero = s[0] * 0 if s else Fraction(0)
    if j < 0:
        return zero
    chain = [zero + Fraction(1)]
    for jj in range(1, j + 1):
        acc = zero
        for k in range(1, min(jj, len(s)) + 1):
            acc = acc + s[k - 1] * chain[jj - k] * k
        chain.append(acc * Fraction(1, jj))
    return chain[j]


@dataclass(frozen=True)
class TimeVector:
    """The triple of truncated time sequences of the 3-component hierarchy."""

    u1: Tuple[Entry, ...]
    u2: Tuple[Entry, ...]
    u3: Tuple[Entry, ...]
    # (a, b) -> the sequence u^(a) (b is None) or u^(a) - u^(b), and its S_n.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u1", tuple(self.u1))
        object.__setattr__(self, "u2", tuple(self.u2))
        object.__setattr__(self, "u3", tuple(self.u3))

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

    def schur(self, n: int, a: int, b: int = None):
        """S_n of u^(a), or of u^(a) - u^(b) when ``b`` is given; computed
        once per vector by :func:`elementary_schur` and then read back."""
        table = self._tables.get((a, b))
        if table is None:
            seq = self.component(a) if b is None else self.diff(a, b)
            table = self._tables[(a, b)] = (seq, {})
        seq, values = table
        if n not in values:
            values[n] = elementary_schur(n, seq)
        return values[n]

    @classmethod
    def symbolic(cls, ring: PolyRing, order: int) -> "TimeVector":
        """Pull symbols named ``u{a}{n}`` (a = component, n = time index)
        out of ``ring``; e.g. order 2 uses u11, u12, u21, u22, u31, u32."""
        seqs = []
        for a in (1, 2, 3):
            seqs.append(tuple(ring.var(f"u{a}{n}") for n in range(1, order + 1)))
        return cls(*seqs)
