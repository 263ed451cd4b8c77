"""Exact multivariate polynomial and rational-function arithmetic.

Representation
--------------
A polynomial lives in a ``PolyRing`` (an ordered tuple of symbol names) and is
stored as a positive ``Fraction`` ``content`` times a primitive integer part
``terms``: a dict mapping exponent tuples to nonzero ``int`` coefficients
whose gcd is 1::

    3/2*t^2*w12 - 5   ->   content 1/2, terms {(2, 1): 3, (0, 0): -10}

for the ring ``PolyRing(("t", "w12"))``.  The zero polynomial has content 0
and no terms.  The split is unique, so equality is plain comparison of content
and terms.  This is the content-times-primitive layout of FLINT's
``fmpq_mpoly``, and every coefficient operation runs on Python ints:

* a product multiplies the contents and the integer parts and needs no
  normalization, because a product of primitive polynomials is primitive
  (Gauss's lemma);
* a sum brings both integer parts over the gcd of the contents and divides
  out the integer gcd of the result;
* an exact quotient of primitive polynomials is primitive, so exact division
  runs on the integer parts, where a remainder proves the division inexact;
  a one-term divisor has integer part +-1 and divides in one pass.

Packed exponents (Monagan & Pearce's packed exponent vectors) turn each
exponent tuple into one int with a slot of ``w`` bits per symbol, the first
symbol in the highest slot (``_pack`` and ``_unpack``).  Adding two keys adds
the exponent vectors, so a hot loop hashes one int instead of building and
hashing a tuple for every term pair; while no slot carries, int order on
keys is lex order.  Two routines run on them:

* A product whose smaller operand has at least ``_PACK_MIN_TERMS`` terms.
  ``w`` is the bit length of ``max_a + max_b``, the largest exponent of one
  operand plus the largest of the other, so no slot carries and no overflow
  check is needed.  The loop runs in the tuple loop's order over keys in
  bijection with the tuples, and decodes each output key once, in order, so
  ``terms`` keeps tuple keys in the same insertion order; ``eval_float`` and
  the Euler-top output depend on that order.  Packing each operand term and
  decoding each output term cost more than the tuple adds they save on short
  operands, which is why the tuple loop stays below ``_PACK_MIN_TERMS``.
* Bareiss elimination inside ``fraction_free_det`` (see below), which packs
  the matrix once and decodes only the determinant.

Monomial order is graded lexicographic: higher total degree first, ties broken
by comparing exponent tuples in symbol declaration order.  The canonical text
form sorts monomials in descending graded-lex order, which makes serialized
output deterministic.

A ``RatFunc`` is a reduced fraction of two polynomials from the same ring.
Reduction divides out the full multivariate gcd and then scales so the
denominator's leading coefficient is 1.  Equality of reduced forms is
therefore structural equality.  The gcd is computed by the heuristic
integer-evaluation algorithm GCDHEU, whose answer exact division proves;
when it gives up, a primitive remainder sequence takes over.

Exact evaluation at a point is one routine, ``_eval_at``.  Setting symbol x
to a rational a/b maps each term c*x^e to c*a^e*b^(d-e) over b^d, where d is
the degree in x, so the sums run on ints and b^d joins the content.
``MultiPoly.subs`` applies it once per bound symbol, and GCDHEU applies it
at integer points, where b = 1.

Determinants of polynomial matrices use Bareiss fraction-free elimination (all
intermediate divisions are exact), with a cheap singleton-row/column expansion
pass first so that sparse matrices collapse before elimination starts.  Each
Bareiss step pivots on the entry of the trailing block with the fewest terms
(Markowitz's sparsity rule): the step multiplies every trailing entry by the
pivot and the next step divides every entry by it, so a short pivot keeps
both the products and the exact divisions small.  Elimination runs on
integer polynomials over packed keys: each row is scaled to integer
coefficients, and each slot holds twice the largest degree any minor can
reach plus a guard bit, which every division checks.  An update builds its
two products in one dict and divides it in one pass, or by a heap when the
divisor has several terms.  The determinant is decoded once, in descending
graded-lex order.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd
from math import isqrt, lcm, prod
from operator import add as _add
from operator import neg as _neg
from operator import sub as _sub
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Ints below 2**1990 < 10**600 convert with str() under any interpreter digit
# limit (CPython rejects limits below 640 digits); larger ones go through
# Decimal, whose str is exact at any size and not subject to that limit, so
# text output never touches the process-wide sys.set_int_max_str_digits.
_SAFE_BITS = 1990

# Smallest operand size, in terms, from which a product runs over packed
# exponents.  Both loops timed on every product of one round of each
# benchmark workload (2-core x86_64, CPython 3.11, best of 5): packing first
# won at 4-5 terms with 1 symbol (families-numeric), 6 with 7 symbols
# (reference-symbolic) and 11-12 with 12 symbols (oracle-sweep, whose
# products rarely collide, so decoding costs the most).  At 8 terms it took
# 0.63-0.66x the tuple loop's time with 1 symbol and 1.2x on the 17 such
# oracle-sweep products; at 18-28 terms and 7 symbols, 0.36-0.57x.
_PACK_MIN_TERMS = 8


def _int_text(n: int) -> str:
    """Decimal text of an int of any size."""
    return str(n) if n.bit_length() <= _SAFE_BITS else str(Decimal(n))


def _fraction_text(c: Fraction) -> str:
    """``str(c)`` of a Fraction of any size: ``p`` or ``p/q``."""
    if c.denominator == 1:
        return _int_text(c.numerator)
    return f"{_int_text(c.numerator)}/{_int_text(c.denominator)}"


class ExactAlgError(Exception):
    """Base error for this module."""


class SymbolMismatch(ExactAlgError):
    """Operands belong to different rings."""


class InexactDivision(ExactAlgError):
    """Polynomial division left a remainder where exactness was required."""


class DegenerateSpecialization(ExactAlgError):
    """A substitution made a denominator identically zero."""


class ZeroDenominator(ExactAlgError):
    """Attempt to build a rational function with zero denominator."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class PolyRing:
    """An ordered, immutable set of symbol names."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate symbols in {syms!r}")
        for s in syms:
            if not s or not isinstance(s, str):
                raise ValueError(f"bad symbol name {s!r}")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"PolyRing({self.symbols!r})"

    @property
    def nvars(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SymbolMismatch(f"symbol {name!r} not in ring {self.symbols}") from None

    def zero(self) -> "MultiPoly":
        return _raw_poly(self, _ZERO, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, value: Scalar) -> "MultiPoly":
        c = _as_fraction(value)
        if c == 0:
            return self.zero()
        return _raw_poly(self, abs(c), {(0,) * self.nvars: 1 if c > 0 else -1})

    def var(self, name: str) -> "MultiPoly":
        i = self.index(name)
        exp = [0] * self.nvars
        exp[i] = 1
        return _raw_poly(self, _ONE, {tuple(exp): 1})


def _grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def _heap_key(exp: tuple) -> tuple:
    """Min-heap entry that pops ``exp`` in descending graded-lex order."""
    return (-sum(exp), tuple(map(_neg, exp)), exp)


class MultiPoly:
    """Exact multivariate polynomial; see module docstring for representation."""

    __slots__ = ("ring", "content", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Scalar]):
        clean: dict = {}
        n = ring.nvars
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != n:
                raise ValueError(f"exponent {exp} has wrong arity for {ring}")
            if any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValueError(f"exponents must be non-negative integers: {exp}")
            c = _as_fraction(coeff)
            if c != 0:
                clean[exp] = c
        # content = gcd of numerators / lcm of denominators
        num, den = 0, 1
        for c in clean.values():
            num = _int_gcd(num, c.numerator)
            den = den * c.denominator // _int_gcd(den, c.denominator)
        self.ring = ring
        self.content = Fraction(num, den)
        self.terms = {
            e: c.numerator * (den // c.denominator) // num for e, c in clean.items()
        }

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ExactAlgError(f"not a constant: {self}")
        return self.content * next(iter(self.terms.values()))

    def leading(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise ExactAlgError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.content * self.terms[exp]

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.ring != other.ring:
            raise SymbolMismatch(
                f"ring mismatch: {self.ring.symbols} vs {other.ring.symbols}"
            )

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if p.is_zero:
            return self
        if self.is_zero:
            return p
        # Over the gcd g of the contents both integer parts stay integral:
        # self = g * ka * terms, p = g * kb * p.terms.
        na, da = self.content.numerator, self.content.denominator
        nb, db = p.content.numerator, p.content.denominator
        gn, gd = _int_gcd(na, nb), _int_gcd(da, db)
        ka, kb = na // gn * (db // gd), nb // gn * (da // gd)
        if ka == 1:
            out = dict(self.terms)
        else:
            out = {e: c * ka for e, c in self.terms.items()}
        for exp, c in p.terms.items():
            s = out.get(exp, 0) + c * kb
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _from_ints(self.ring, Fraction(gn, da // gd * db), out)

    __radd__ = __add__

    def __neg__(self):
        neg = {e: -c for e, c in self.terms.items()}
        return _raw_poly(self.ring, self.content, neg)

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __mul__(self, other):
        """Product, with the smaller operand's terms as the outer loop.

        From ``_PACK_MIN_TERMS`` terms in the smaller operand, each exponent
        tuple is packed into one int (``_packed_product``).  Slots of
        ``(max_a + max_b).bit_length()`` bits cannot carry, because no
        exponent of the product exceeds ``max_a + max_b``.  The packed loop
        visits the pairs in the tuple loop's order and decodes the keys in
        insertion order, so ``terms`` gets the same keys in the same order.
        Below that size packing and decoding cost more than they save, and
        the tuple loop runs.
        """
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if self.is_zero or p.is_zero:
            return self.ring.zero()
        a, b = self.terms, p.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) >= _PACK_MIN_TERMS:
            return _raw_poly(
                self.ring, self.content * p.content, _packed_product(a, b)
            )
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(map(_add, ea, eb))
                s = out.get(exp, 0) + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return _raw_poly(self.ring, self.content * p.content, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.content == other.content
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-ish container; not usable as a dict key

    # -- calculus and substitution ------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self.ring.index(name)
        out: dict = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                new = list(exp)
                new[i] = e - 1
                out[tuple(new)] = c * e
        return _from_ints(self.ring, self.content, out)

    def subs(self, bindings: Mapping[str, Scalar]) -> "MultiPoly":
        """Bind symbols to exact rationals, one ``_eval_at`` pass per symbol."""
        out = self
        for name, value in bindings.items():
            out = _eval_at(out, self.ring.index(name), _as_fraction(value))
        return out

    def eval_float(self, bindings: Mapping[str, float]) -> float:
        """Floating-point evaluation (for ODE monitoring, not identities).

        Sums the correctly rounded coefficients term by term in ``terms``
        order; int / int division rounds correctly, so each coefficient
        equals ``float`` of the exact rational.
        """
        out = 0.0
        vals = [float(bindings[s]) for s in self.ring.symbols]
        cn, cd = self.content.numerator, self.content.denominator
        for exp, c in self.terms.items():
            term = c * cn / cd
            for v, e in zip(vals, exp):
                if e:
                    term *= v**e
            out += term
        return out

    # -- exact division -----------------------------------------------------

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises InexactDivision if not divisible.

        The quotient's terms come out in descending graded-lex order.  A
        divisor of several terms runs Monagan & Pearce's heap division.  A
        one-term divisor needs no heap: its integer part is +-1, because it
        is primitive, so one pass over the dividend's terms in that order
        subtracts its exponent from each and fails on the first that goes
        negative.
        """
        d = self._coerce(divisor)
        if d is None or d.is_zero:
            raise InexactDivision("division by zero polynomial")
        if self.is_zero:
            return self.ring.zero()
        if len(d.terms) == 1:
            [(dexp, dc)] = d.terms.items()
            q = {}
            for exp in sorted(self.terms, key=_grlex_key, reverse=True):
                qexp = tuple(map(_sub, exp, dexp))
                if min(qexp, default=0) < 0:
                    raise InexactDivision(f"remainder term at exponent {exp}")
                c = self.terms[exp]
                q[qexp] = c if dc == 1 else -c
            return _raw_poly(self.ring, self.content / d.content, q)
        dexp = max(d.terms, key=_grlex_key)
        dc = d.terms[dexp]
        rem = dict(self.terms)
        # Pending remainder monomials, popped in descending graded-lex order
        # (Monagan & Pearce).  A monomial is pushed when it enters ``rem``;
        # an entry whose monomial has since cancelled is skipped on pop.
        heap = [_heap_key(exp) for exp in rem]
        heapify(heap)
        q: dict = {}
        while heap:
            rexp = heappop(heap)[2]
            rc = rem.get(rexp)
            if rc is None:
                continue
            qexp = tuple(map(_sub, rexp, dexp))
            qc, r = divmod(rc, dc)
            if r or min(qexp, default=0) < 0:
                # No polynomial text: failed trial divisions are routine in
                # the heuristic gcd, on coefficients of many thousand digits.
                raise InexactDivision(f"remainder term at exponent {rexp}")
            q[qexp] = qc
            for exp, c in d.terms.items():
                key = tuple(map(_add, qexp, exp))
                s = rem.get(key, 0) - qc * c
                if s:
                    if key not in rem:
                        heappush(heap, _heap_key(key))
                    rem[key] = s
                else:
                    del rem[key]
        return _raw_poly(self.ring, self.content / d.content, q)

    # -- serialization ------------------------------------------------------

    def sorted_terms(self) -> list:
        """(exponent, exact coefficient) pairs in descending graded-lex order."""
        return [
            (exp, self.content * c)
            for exp, c in sorted(
                self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True
            )
        ]

    def text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                s if e == 1 else f"{s}^{e}"
                for s, e in zip(self.ring.symbols, exp)
                if e
            )
            if not mono:
                body = _fraction_text(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{_fraction_text(abs(c))}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = text

    def __repr__(self) -> str:
        return f"MultiPoly({self.text()})"


def _pack(exp: tuple, w: int) -> int:
    """One int for an exponent tuple, ``w`` bits per symbol, the first symbol
    in the highest slot; so while no slot carries, int order is lex order."""
    key = 0
    for e in exp:
        key = key << w | e
    return key


def _unpack(packed: dict, w: int, n: int) -> dict:
    """``packed`` with each key decoded into an n-tuple, in the same order."""
    shifts = range(w * (n - 1), -1, -w)
    mask = (1 << w) - 1
    return {tuple([k >> s & mask for s in shifts]): c for k, c in packed.items()}


def _packed_product(a: dict, b: dict) -> dict:
    """Integer parts ``a * b`` over packed int keys, ``a`` the outer loop.

    A zero sum deletes its key and a later non-zero sum re-inserts it at the
    end, as with tuple keys.
    """
    w = (max(map(max, a)) + max(map(max, b))).bit_length()
    packed_b = [(_pack(eb, w), cb) for eb, cb in b.items()]
    out: dict = {}
    for ea, ca in a.items():
        ka = _pack(ea, w)
        for kb, cb in packed_b:
            key = ka + kb
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return _unpack(out, w, len(next(iter(a))))


def _raw_poly(ring: PolyRing, content: Fraction, terms: dict) -> MultiPoly:
    """Internal constructor for an already primitive integer part."""
    p = MultiPoly.__new__(MultiPoly)
    p.ring = ring
    p.content = content
    p.terms = terms
    return p


def _from_ints(ring: PolyRing, content: Fraction, ints: dict) -> MultiPoly:
    """content * ints with the integer gcd of ``ints`` moved into the content."""
    if not ints:
        return ring.zero()
    g = 0
    for c in ints.values():
        g = _int_gcd(g, c)
        if g == 1:
            return _raw_poly(ring, content, ints)
    return _raw_poly(ring, content * g, {e: c // g for e, c in ints.items()})


# ---------------------------------------------------------------------------
# multivariate gcd
# ---------------------------------------------------------------------------


def _coeffs_in(p: MultiPoly, i: int) -> dict:
    """Decompose as a polynomial in symbol i with coefficients free of it."""
    out: dict = {}
    for exp, c in p.terms.items():
        e = exp[i]
        rest = list(exp)
        rest[i] = 0
        d = out.setdefault(e, {})
        d[tuple(rest)] = c
    return {e: _from_ints(p.ring, p.content, d) for e, d in out.items()}


def _degree_idx(p: MultiPoly, i: int) -> int:
    if p.is_zero:
        return -1
    return max(exp[i] for exp in p.terms)


def _lead_coeff_in(p: MultiPoly, i: int) -> MultiPoly:
    d = _degree_idx(p, i)
    out: dict = {}
    for exp, c in p.terms.items():
        if exp[i] == d:
            rest = list(exp)
            rest[i] = 0
            out[tuple(rest)] = c
    return _from_ints(p.ring, p.content, out)


def _var_power(ring: PolyRing, i: int, e: int) -> MultiPoly:
    exp = [0] * ring.nvars
    exp[i] = e
    return _raw_poly(ring, _ONE, {tuple(exp): 1})


def _pseudo_rem(a: MultiPoly, b: MultiPoly, i: int) -> MultiPoly:
    """Pseudo-remainder of a by b in symbol i: lc(b)^k * a mod b for some k."""
    db = _degree_idx(b, i)
    lcb = _lead_coeff_in(b, i)
    r = a
    while not r.is_zero and (dr := _degree_idx(r, i)) >= db:
        r = lcb * r - _lead_coeff_in(r, i) * _var_power(r.ring, i, dr - db) * b
    return r


def _content_in(p: MultiPoly, i: int) -> MultiPoly:
    coeffs = list(_coeffs_in(p, i).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = _gcd(g, c)
        if g.is_constant:
            break
    return g


def _primitive_in(p: MultiPoly, i: int) -> MultiPoly:
    cont = _content_in(p, i)
    return p.divexact(cont)


def _gcd_rec(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd of two nonzero polynomials up to a rational factor, by the
    primitive remainder sequence in one main symbol (Geddes, Czapor &
    Labahn, Algorithms for Computer Algebra, 7.4)."""
    ring = a.ring
    if a.is_constant or b.is_constant:
        return ring.one()
    nv = ring.nvars
    dva = [_degree_idx(a, i) for i in range(nv)]
    dvb = [_degree_idx(b, i) for i in range(nv)]
    # Main symbol: smallest positive degree (shortest remainder sequence).
    main = min(
        (i for i in range(nv) if max(dva[i], dvb[i]) > 0),
        key=lambda i: max(dva[i], dvb[i]),
    )
    if dva[main] == 0:
        return _gcd(a, _content_in(b, main))
    if dvb[main] == 0:
        return _gcd(_content_in(a, main), b)
    ca = _content_in(a, main)
    cb = _content_in(b, main)
    cg = _gcd(ca, cb)
    g = a.divexact(ca)
    h = b.divexact(cb)
    if _degree_idx(g, main) < _degree_idx(h, main):
        g, h = h, g
    # Each remainder is made primitive, in main and over Q, before the next
    # pass, so its coefficients stay as small as the gcd allows.
    while True:
        r = _pseudo_rem(g, h, main)
        if r.is_zero:
            return cg * h
        if _degree_idx(r, main) == 0:
            return cg
        g, h = h, _primitive_in(_raw_poly(ring, _ONE, r.terms), main)


# -- heuristic gcd (GCDHEU) ------------------------------------------------------
#
# Char, Geddes & Gonnet, J. Symbolic Comput. 7 (1989).  Evaluating the first
# symbol x at an integer xi maps gcd(a, b) to a divisor of gcd(a(xi), b(xi)),
# which the recursion over the remaining symbols y computes exactly, down to
# an integer gcd.  A candidate c is rebuilt from it by balanced xi-adic
# expansion: the gcd itself, or a cofactor a(xi)/gcd whose quotient into a is
# the gcd (a large gcd has small cofactors).  If c divides both operands
# exactly, it is the gcd.  Write the gcd as c*q; then q(xi) is a constant,
# +-1 or a divisor of a balanced digit.  Let xi be at least twice a root
# bound of one operand's leading coefficient in y, a polynomial in x.  Then q
# is free of y, or its own leading coefficient in y, which divides that one,
# would vanish at xi; and a q in x alone divides that coefficient, so
# |q(xi)| > xi/2 unless q = +-1.  xi starts at that bound or a little above
# Liao & Fateman's refinement of the CGG choice, about the square root of the
# smaller coefficient norm, whichever is larger, and grows after a failed
# candidate.  After _HEU_RETRIES retries, counted over the whole recursion,
# the heuristic gives up.  With 2 retries or with 6 it gives up on the same
# two gcds of the reference family's all-branch symbolic solve, and the
# remainder sequence answers both in about 0.01 s.

_HEU_RETRIES = 2


def _eval_at(p: MultiPoly, i: int, x: Scalar) -> MultiPoly:
    """p with symbol i set to the rational x = a/b (degree 0 in i).

    Each term c*x_i^e becomes c*a^e*b^(d-e) over b^d, where d is the degree
    of p in x_i, so the sums run on ints; at an integer x, b^(d-e) is 1.
    """
    a, b = x.numerator, x.denominator
    d = max((exp[i] for exp in p.terms), default=0)
    out: dict = {}
    powers: dict = {}
    for exp, c in p.terms.items():
        e = exp[i]
        pw = powers.get(e)
        if pw is None:
            pw = powers[e] = a**e * b ** (d - e)
        if e:
            exp = exp[:i] + (0,) + exp[i + 1 :]
        s = out.get(exp, 0) + c * pw
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return _from_ints(p.ring, p.content / b**d, out)


def _interpolate(g: MultiPoly, i: int, xi: int) -> MultiPoly:
    """The balanced xi-adic expansion of g in symbol i, up to a constant."""
    half = xi // 2
    k = g.content.numerator
    out: dict = {}
    for exp, c in g.terms.items():
        c *= k
        e = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[exp[:i] + (e,) + exp[i + 1 :]] = digit
            e += 1
    return _from_ints(g.ring, _ONE, out)


def _root_bound(p: MultiPoly, i: int) -> int:
    """An integer above every root of the leading coefficient of p as a
    polynomial in the symbols after i (lex order) with coefficients in Z[x_i];
    the symbols before i must be absent.  Cauchy's bound."""
    lead = max(e[i + 1 :] for e in p.terms)
    lc = {e[i]: c for e, c in p.terms.items() if e[i + 1 :] == lead}
    return 2 + max(map(abs, lc.values())) // abs(lc[max(lc)])


def _quo(p: MultiPoly, d: MultiPoly):
    """p / d, or None if d does not divide p."""
    try:
        return p.divexact(d)
    except InexactDivision:
        return None


def _heu_gcd(a: MultiPoly, b: MultiPoly, retries: list):
    """gcd of two nonzero polynomials with integer contents, up to sign, or
    None when the retries left in ``retries[0]`` run out."""
    ring = a.ring
    k = Fraction(_int_gcd(a.content.numerator, b.content.numerator))
    if a.is_constant or b.is_constant:
        return ring.const(k)
    i = [any(col) for col in zip(*a.terms, *b.terms)].index(True)
    a, b = _raw_poly(ring, _ONE, a.terms), _raw_poly(ring, _ONE, b.terms)
    norm = min(max(map(abs, a.terms.values())), max(map(abs, b.terms.values())))
    B = 2 * norm + 29
    xi = max(
        min(B, 99 * isqrt(B) << B.bit_length() // 32),
        2 * min(_root_bound(a, i), _root_bound(b, i)),
    )
    while True:
        ea, eb = _eval_at(a, i, xi), _eval_at(b, i, xi)
        # xi exceeds the root bound of only one operand, so the other may
        # vanish there; that xi is then skipped.
        if not ea.is_zero and not eb.is_zero:
            g = _heu_gcd(ea, eb, retries)
            if g is None:
                return None
            h = _interpolate(g, i, xi)
            if _quo(a, h) is not None and _quo(b, h) is not None:
                return _raw_poly(ring, k, h.terms)
            for p, ep, other in ((a, ea, b), (b, eb, a)):
                h = _quo(p, _interpolate(ep.divexact(g), i, xi))
                if h is not None and _quo(other, h) is not None:
                    return _raw_poly(ring, k, h.terms)
        if not retries[0]:
            return None
        retries[0] -= 1
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011


def _gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd up to a rational factor: the heuristic on the integer parts, or
    the primitive remainder sequence when the heuristic gives up."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    g = _heu_gcd(
        _raw_poly(a.ring, _ONE, a.terms), _raw_poly(b.ring, _ONE, b.terms), [_HEU_RETRIES]
    )
    return _gcd_rec(a, b) if g is None else g


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Multivariate gcd, normalized to leading (graded-lex) coefficient 1."""
    if a.ring != b.ring:
        raise SymbolMismatch("gcd operands must share a ring")
    if a.is_zero and b.is_zero:
        return a.ring.zero()
    g = _gcd(a, b)
    _, lc = g.leading()
    if lc != 1:
        g = g * (1 / lc)
    return g


# ---------------------------------------------------------------------------
# fraction-free determinant
# ---------------------------------------------------------------------------


def fraction_free_det(rows: Sequence[Sequence[MultiPoly]], ring: PolyRing = None) -> MultiPoly:
    """Exact determinant by Bareiss elimination.

    Before Bareiss runs on the dense core, one expansion step repeats: it
    takes the first row with at most one nonzero entry or, when no row has
    one, the first such column (the tau matrices are sparse with many unit
    rows).  An empty line makes the determinant zero; a singleton is
    factored out with its cofactor sign.  The empty 0x0 determinant is 1 by
    convention, which requires an explicit ring.  The dense core goes to
    ``_packed_bareiss``, and the result is the product of the singletons
    times the core's determinant, with the sign of both.
    """
    n = len(rows)
    if n == 0:
        if ring is None:
            raise ValueError("0x0 determinant needs an explicit ring")
        return ring.one()
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    if ring is None:
        ring = m[0][0].ring
    sign = 1
    prefactor = ring.one()

    def lines():
        # Nonzero positions of each row, then of each column, computed lazily
        # so that the columns are scanned only when no row qualifies.
        k = len(m)
        for i in range(k):
            yield [(i, j) for j in range(k) if not m[i][j].is_zero]
        for j in range(k):
            yield [(i, j) for i in range(k) if not m[i][j].is_zero]

    while m:
        nz = next((nz for nz in lines() if len(nz) <= 1), None)
        if nz is None:
            break
        if not nz:
            return ring.zero()
        [(i, j)] = nz
        if (i + j) % 2:
            sign = -sign
        prefactor = prefactor * m[i][j]
        del m[i]
        for r in m:
            del r[j]

    if not m:
        return prefactor if sign > 0 else -prefactor
    swaps, core = _packed_bareiss(m, ring)
    det = prefactor * core
    return det if sign * swaps > 0 else -det


def _packed_bareiss(m: list, ring: PolyRing) -> tuple:
    """Bareiss elimination on a dense core of at least 2x2 over packed
    integer exponents: the sign of its row and column swaps, and its
    determinant with terms in descending graded-lex order.

    * Each row is scaled by the lcm of its entries' content denominators, so
      that every entry is a ``{packed key: int}`` dict; the product of the
      scales divides the determinant out at the end.
    * Every intermediate entry is a minor, whose degree in a symbol is at
      most D_s, the sum over rows of the row's largest exponent of that
      symbol; the dividend of an update is a product of two minors.  A slot
      therefore holds 2*max(D_s) plus one guard bit, which ``_packed_quotient``
      checks, so a slot too narrow raises instead of carrying.
    * Each step pivots on the nonzero entry of the trailing block with the
      fewest terms, the first in row-major order on a tie, moved into place
      by one row swap and one column swap.  The step multiplies every
      trailing entry by the pivot and the next one divides by it exactly, so
      a one-term pivot keeps both small.  The determinant is unique, so the
      pivot order changes only the cost.
    * An update builds ``a*pivot - lead*b`` in one dict and divides it by the
      previous pivot.  An update whose two products are both zero leaves a
      zero entry and is skipped.
    """
    n = ring.nvars
    scales = [lcm(*[p.content.denominator for p in row]) for row in m]
    bound = [0] * n
    for row in m:
        for s, col in enumerate(zip(*[e for p in row for e in p.terms])):
            bound[s] += max(col)
    w = (2 * max(bound, default=0)).bit_length() + 1
    guard = _pack((1 << (w - 1),) * n, w)
    mat = []
    for row, scale in zip(m, scales):
        packed_row = []
        for p in row:
            f = p.content.numerator * (scale // p.content.denominator)
            packed_row.append({_pack(e, w): c * f for e, c in p.terms.items()})
        mat.append(packed_row)

    k = len(mat)
    sign = 1
    prev = {0: 1}
    for col in range(k - 1):
        best = min(
            (
                (len(mat[i][j]), i, j)
                for i in range(col, k)
                for j in range(col, k)
                if mat[i][j]
            ),
            default=None,
        )
        if best is None:
            return sign, ring.zero()
        _, pi, pj = best
        if pi != col:
            mat[col], mat[pi] = mat[pi], mat[col]
            sign = -sign
        if pj != col:
            for r in mat:
                r[col], r[pj] = r[pj], r[col]
            sign = -sign
        pivot, pivot_row = mat[col][col], mat[col]
        for i in range(col + 1, k):
            row = mat[i]
            lead = row[col]
            for j in range(col + 1, k):
                a, b = row[j], pivot_row[j]
                if a or lead and b:
                    num: dict = {}
                    _add_product(num, a, pivot, 1)
                    _add_product(num, lead, b, -1)
                    row[j] = _packed_quotient(num, prev, guard)
        prev = pivot

    last = mat[k - 1][k - 1]
    if not last:
        return sign, ring.zero()
    g = 0
    for c in last.values():
        g = _int_gcd(g, c)
    terms = _unpack(last, w, n)
    order = sorted(terms, key=_grlex_key, reverse=True)
    content = Fraction(g, prod(scales))
    return sign, _raw_poly(ring, content, {e: terms[e] // g for e in order})


def _add_product(out: dict, x: dict, y: dict, sign: int) -> None:
    """``out += sign * x * y`` on packed keys, the shorter operand outside;
    sums that cancel stay in ``out`` as zeros."""
    if len(x) > len(y):
        x, y = y, x
    get = out.get
    for kx, cx in x.items():
        cx *= sign
        for ky, cy in y.items():
            key = kx + ky
            out[key] = get(key, 0) + cx * cy


def _packed_quotient(num: dict, den: dict, guard: int) -> dict:
    """Exact quotient of packed integer polynomials; zero terms of ``num``
    are ignored and none is returned.

    Raises InexactDivision on a remainder, a negative key or a set guard bit
    in a key of ``num`` or of the quotient: a subtraction that borrows sets
    the guard bit of the slot it borrows from, or makes the key negative.
    A one-term ``den``, nearly every Bareiss pivot on the tau matrices,
    divides in one pass.  Otherwise the remainder's keys are popped from a
    max-heap: int order on packed keys is lex order, a monomial order, so
    Monagan & Pearce's heap division applies with ``max(den)`` as the
    leading term.
    """
    if len(den) == 1:
        [(kd, cd)] = den.items()
        q = {}
        for k, c in num.items():
            if c:
                qk = k - kd
                qc, r = divmod(c, cd)
                if r or qk < 0 or (k | qk) & guard:
                    raise InexactDivision(f"remainder term at packed key {k}")
                q[qk] = qc
        return q
    rem = {k: c for k, c in num.items() if c}
    if any(k & guard for k in rem):
        raise InexactDivision("dividend key overflows its slot")
    kd = max(den)
    cd = den[kd]
    heap = [-k for k in rem]
    heapify(heap)
    q = {}
    while heap:
        k = -heappop(heap)
        c = rem.get(k)
        if c is None:
            continue
        qk = k - kd
        qc, r = divmod(c, cd)
        if r or qk < 0 or qk & guard:
            raise InexactDivision(f"remainder term at packed key {k}")
        q[qk] = qc
        for ke, ce in den.items():
            key = qk + ke
            s = rem.get(key, 0) - qc * ce
            if s:
                if key not in rem:
                    heappush(heap, -key)
                rem[key] = s
            else:
                del rem[key]
    return q


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced quotient of two polynomials from one ring.

    Always stored with gcd(num, den) constant and the denominator's leading
    graded-lex coefficient equal to 1, which makes reduced forms canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly = None):
        if den is None:
            den = num.ring.one()
        if not isinstance(num, MultiPoly) or not isinstance(den, MultiPoly):
            raise TypeError("RatFunc needs MultiPoly numerator/denominator")
        if num.ring != den.ring:
            raise SymbolMismatch("numerator and denominator rings differ")
        if den.is_zero:
            raise ZeroDenominator("zero denominator")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = num.divexact(g)
                den = den.divexact(g)
        self._store(num, den)

    def _store(self, num: MultiPoly, den: MultiPoly) -> None:
        """Keep coprime num and den, scaled so that den is monic."""
        if num.is_zero:
            self.num = num.ring.zero()
            self.den = num.ring.one()
            return
        _, lc = den.leading()
        if lc != 1:
            inv = 1 / lc
            num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring != self.ring:
                raise SymbolMismatch("ring mismatch")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.ring.const(other))
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return RatFunc(self.num * r.den + r.num * self.den, self.den * r.den)

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return self + (-r)

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return RatFunc(self.num * r.num, self.den * r.den)

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        if r.is_zero:
            raise ZeroDenominator("division by zero rational function")
        return RatFunc(self.num * r.den, self.den * r.num)

    def __eq__(self, other) -> bool:
        r = self._coerce(other) if isinstance(other, (RatFunc, MultiPoly, int, Fraction)) else None
        if r is None:
            return NotImplemented
        return self.num == r.num and self.den == r.den

    __hash__ = None

    # -- calculus / substitution ----------------------------------------------

    def derivative(self, name: str) -> "RatFunc":
        n, d = self.num, self.den
        return RatFunc(n.derivative(name) * d - n * d.derivative(name), d * d)

    def eval_float(self, bindings: Mapping[str, float]) -> float:
        return self.num.eval_float(bindings) / self.den.eval_float(bindings)

    # -- serialization ----------------------------------------------------------

    def text(self) -> str:
        if self.den == 1:
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"

    __str__ = text

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


def _coprime_ratfunc(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """num/den for a nonzero den already coprime to num: ``RatFunc`` without
    its gcd, which the caller's own argument makes redundant."""
    out = RatFunc.__new__(RatFunc)
    out._store(num, den)
    return out
