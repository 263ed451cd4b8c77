"""Output checks that share no code with tauvi.

Rational functions printed by tauvi are parsed with sympy and evaluated with
``Fraction`` arithmetic written here.  The Painleve VI equation, the sigma
form, the root parameters v, the dihedral branch family, the support box and
the Euler-top invariants are restated from their definitions.  Nothing here
calls ``pvi_residual`` or ``sigma_form_residual``.  sympy is imported on
first use, so that it does not weigh on the set-up time or the peak memory of
workloads that only need it for checking.

Every check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random
from typing import Dict, List, Sequence, Tuple

# A parsed polynomial: (coefficient, exponent of t, {weight symbol: exponent}).
Poly = List[Tuple[Fraction, int, Dict[str, int]]]


class CheckFailed(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# scaling data, root parameters and branches
# ---------------------------------------------------------------------------


def normalize(mu: Sequence[int], nu: Sequence[int]):
    """Shift (mu, nu) so that every mu_i <= 0, as the scaling data requires."""
    c = max(0, max(mu))
    return tuple(x - c for x in mu), tuple(x - c for x in nu)


def drops(mu: Sequence[int]) -> Tuple[int, int, int]:
    """m1 >= m2 >= m3 >= 0 of normalized mu."""
    return tuple(sorted((-x for x in normalize(mu, mu)[0]), reverse=True))


def r2(mu: Sequence[int], nu: Sequence[int]) -> int:
    return (sum(x * x for x in mu) - sum(x * x for x in nu)) // 2


def support_box(m: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Charge vectors nu with sum -(m1+m2+m3) and -m1 <= nu_i <= -m3."""
    m1, m2, m3 = m
    box = range(-m1, -m3 + 1)
    return [
        nu
        for nu in itertools.product(box, repeat=3)
        if sum(nu) == -(m1 + m2 + m3)
    ]


def is_generic(mu: Sequence[int], nu: Sequence[int]) -> bool:
    """m1 > m2 > m3 and nu strictly inside the support box.

    Outside this set the tau function of a family with m1 <= 4 is a single
    power of t, sigma is linear and every branch of y degenerates, so
    ``tauvi solve`` correctly exits 3 without doing any work.
    """
    mu, nu = normalize(mu, nu)
    m1, m2, m3 = drops(mu)
    if not m1 > m2 > m3:
        return False
    return sum(nu) == -(m1 + m2 + m3) and all(-m1 < x < -m3 for x in nu)


def base_v(mu: Sequence[int], nu: Sequence[int]) -> Tuple[Fraction, ...]:
    n1, _, n3 = nu
    half = Fraction(n1 + n3, 2)
    return tuple(half - x for x in mu) + (Fraction(n1 - n3, 2),)


def dihedral_ids() -> List[str]:
    """The 192 branch ids: 24 permutations times 8 even sign patterns."""
    out = []
    for perm in itertools.permutations("0123"):
        for signs in itertools.product("+-", repeat=4):
            if signs.count("-") % 2 == 0:
                out.append("".join(perm) + "".join(signs))
    return out


ALIASES = {"id": "0123++++", "flip13": "0123-+-+", "swap23": "0213++++"}


def branch_v(mu, nu, branch: str) -> Tuple[Fraction, ...]:
    branch = ALIASES.get(branch, branch)
    base = base_v(mu, nu)
    return tuple(
        (1 if branch[4 + i] == "+" else -1) * base[int(branch[i])] for i in range(4)
    )


def distinct_branch_count(mu, nu) -> int:
    """Branches with different (v1+v2, v1*v2, v3+v4, v3*v4) give different y."""
    keys = set()
    for bid in dihedral_ids():
        v1, v2, v3, v4 = branch_v(mu, nu, bid)
        keys.add((v1 + v2, v1 * v2, v3 + v4, v3 * v4))
    return len(keys)


def pvi_params(v: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    v1, v2, v3, v4 = v
    return (
        (v3 - v4) ** 2 / 2,
        -((v1 + v2) ** 2) / 2,
        (v1 - v2) ** 2 / 2,
        (1 - (v3 + v4 + 1) ** 2) / 2,
    )


# ---------------------------------------------------------------------------
# parsing and exact evaluation
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> Poly:
    import sympy

    t = sympy.Symbol("t")
    expr = sympy.sympify(text)  # reads '^' as a power
    others = sorted((s for s in expr.free_symbols if s != t), key=str)
    poly = sympy.Poly(expr, t, *others, domain="QQ")
    names = [str(s) for s in others]
    return [
        (Fraction(int(c.p), int(c.q)), m[0], dict(zip(names, m[1:])))
        for m, c in poly.terms()
    ]


def parse_ratfunc(text: str) -> Tuple[Poly, Poly]:
    """``(num) / (den)`` or a bare polynomial, as tauvi prints them."""
    if text.startswith("(") and ") / (" in text and text.endswith(")"):
        num, den = text[1:-1].split(") / (")
        return parse_poly(num), parse_poly(den)
    return parse_poly(text), parse_poly("1")


def symbols_of(*polys: Poly) -> List[str]:
    return sorted({s for p in polys for _, _, mono in p for s in mono})


def _falling(k: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= k - i
    return out


def jet(poly: Poly, t: Fraction, point: Dict[str, Fraction], order: int = 2):
    """(p, dp/dt, d2p/dt2) at t with the weight symbols bound to ``point``."""
    vals = [Fraction(0)] * (order + 1)
    for c, k, mono in poly:
        w = c
        for s, e in mono.items():
            w *= point[s] ** e
        for j in range(min(order, k) + 1):
            vals[j] += w * _falling(k, j) * t ** (k - j)
    return vals


def ratfunc_jet(num: Poly, den: Poly, t: Fraction, point) -> Tuple[Fraction, ...]:
    """(f, f', f'') of f = num/den; raises ZeroDivisionError at a pole."""
    n0, n1, n2 = jet(num, t, point)
    d0, d1, d2 = jet(den, t, point)
    if d0 == 0:
        raise ZeroDivisionError
    w = n1 * d0 - n0 * d1
    return n0 / d0, w / d0**2, (n2 * d0 - n0 * d2) / d0**2 - 2 * d1 * w / d0**3


def _random_rational(rng: Random, lo: int, hi: int) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, 37))


def sample_point(rng: Random, names: Sequence[str]):
    """Random rational t and weights; the caller skips points at a pole."""
    point = {s: _random_rational(rng, -29, 29) for s in names}
    return _random_rational(rng, -50, 50), point


# ---------------------------------------------------------------------------
# Painleve VI and the sigma form
# ---------------------------------------------------------------------------


def pvi_defect(y, dy, d2y, t, alpha, beta, gamma, delta) -> Fraction:
    """y'' minus the right-hand side of Painleve VI, at one point."""
    rhs = (
        Fraction(1, 2) * (1 / y + 1 / (y - 1) + 1 / (y - t)) * dy * dy
        - (1 / t + 1 / (t - 1) + 1 / (y - t)) * dy
        + y * (y - 1) * (y - t) / (t * t * (t - 1) ** 2)
        * (
            alpha
            + beta * t / (y * y)
            + gamma * (t - 1) / (y - 1) ** 2
            + delta * t * (t - 1) / (y - t) ** 2
        )
    )
    return d2y - rhs


def sigma_defect(s, ds, d2s, t, v) -> Fraction:
    """Jimbo-Miwa-Okamoto sigma form of Painleve VI, at one point."""
    v1, v2, v3, v4 = v
    lhs = ds * (t * (t - 1) * d2s) ** 2 + (
        ds * (2 * s - (2 * t - 1) * ds) + v1 * v2 * v3 * v4
    ) ** 2
    rhs = Fraction(1)
    for vk in v:
        rhs *= ds + vk * vk
    return lhs - rhs


def _points_checked(num, den, rng, points, defect, label) -> None:
    names = symbols_of(num, den)
    done = tries = 0
    while done < points:
        tries += 1
        require(tries < 50 * points, f"{label}: no regular sample point found")
        t, point = sample_point(rng, names)
        try:
            value = defect(t, ratfunc_jet(num, den, t, point))
        except ZeroDivisionError:
            continue
        require(value == 0, f"{label}: nonzero defect {value} at t={t}")
        done += 1


def check_pvi(y_text: str, params, rng: Random, points: int = 3, label: str = "y"):
    """y satisfies Painleve VI with the given (alpha, beta, gamma, delta)."""
    num, den = parse_ratfunc(y_text)
    alpha, beta, gamma, delta = params

    def defect(t, j):
        if t in (0, 1) or j[0] in (0, 1, t):
            raise ZeroDivisionError
        return pvi_defect(*j, t, alpha, beta, gamma, delta)

    _points_checked(num, den, rng, points, defect, f"{label} (Painleve VI)")


def check_sigma(sigma_text: str, v, rng: Random, points: int = 3, label: str = "sigma"):
    """sigma satisfies the quartic sigma form with root parameters v."""
    num, den = parse_ratfunc(sigma_text)
    _points_checked(
        num, den, rng, points, lambda t, j: sigma_defect(*j, t, v), f"{label} (sigma form)"
    )


def check_branch(mu, nu, branch: str, reported_v, reported_params, y_text, sigma_text, rng):
    """One solved branch: v and (alpha..delta) recomputed, y and sigma checked."""
    v = branch_v(mu, nu, branch)
    params = pvi_params(v)
    require(tuple(reported_v) == v, f"branch {branch}: v {reported_v} != {v}")
    require(
        tuple(reported_params) == params,
        f"branch {branch}: (alpha..delta) {reported_params} != {params}",
    )
    check_pvi(y_text, params, rng, label=f"branch {branch}")
    check_sigma(sigma_text, v, rng, label=f"branch {branch}")


# ---------------------------------------------------------------------------
# workload-level checks of tauvi's JSON and CSV output
# ---------------------------------------------------------------------------


def check_solve_doc(doc: dict, mu, nu, rng: Random) -> None:
    """``tauvi solve`` over all branches of one numeric family."""
    verified = doc["branches"]
    require(bool(verified), "no verified branch")
    require(
        len(verified) + len(doc["degenerate"]) == distinct_branch_count(mu, nu),
        f"{len(verified)} verified + {len(doc['degenerate'])} degenerate != "
        f"{distinct_branch_count(mu, nu)} distinct branches",
    )
    for b in verified:
        require(
            b["pvi_residual_zero"] and b["sigma_residual_zero"],
            f"branch {b['branch']}: tauvi reports a nonzero residual",
        )
        check_branch(
            mu,
            nu,
            b["branch"],
            [Fraction(x) for x in b["v"]],
            [Fraction(b[k]) for k in ("alpha", "beta", "gamma", "delta")],
            b["y"],
            doc["sigma"],
            rng,
        )


def check_oracle_doc(doc: dict, mu, nu) -> None:
    """``tauvi oracle``: three routes agree on every point of the support box."""
    mu, nu = normalize(mu, nu)
    box = support_box(drops(mu))
    require(doc["agree"] is True, "oracle reports disagreement")
    require(doc["cases"] == len(box), f"{doc['cases']} cases != support box {len(box)}")
    rows = doc["support"]
    require(
        sorted(tuple(r["nu"]) for r in rows) == sorted(box),
        "support points differ from the support box",
    )
    require(all(r["agree"] is True for r in rows), "a support point disagrees")
    routes = doc["routes"]
    if tuple(nu) in box:
        require(
            routes["oracle"] == routes["detE"] == routes["detA"],
            f"routes differ at nu={nu}",
        )


CSV_COLUMNS = 10


def check_euler_csv(text: str, mu, nu, samples: int, tol: float = 1e-8) -> None:
    """Sum of omega_i*omegabar_i = -R2 and det(V + diag(nu)) = mu1*mu2*mu3."""
    mu, nu = normalize(mu, nu)
    lines = text.strip().split("\n")
    require(lines[0].startswith("t,omega1"), "missing CSV header")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    require(len(rows) == samples, f"{len(rows)} rows != {samples} samples")
    target_trace = -r2(mu, nu)
    target_det = Fraction(mu[0] * mu[1] * mu[2])
    n1, n2, n3 = nu
    for row in rows:
        require(len(row) == CSV_COLUMNS, "malformed CSV row")
        t, w1, w2, w3, b1, b2, b3 = (Fraction(x) for x in row[:7])
        trace = w1 * b1 + w2 * b2 + w3 * b3
        det = (
            n1 * (n2 * n3 + w1 * b1)
            - w3 * (-b3 * n3 - w1 * b2)
            - w2 * (b3 * b1 - n2 * b2)
        )
        require(
            abs(trace - target_trace) <= tol,
            f"t={float(t)}: trace {float(trace)} != {target_trace}",
        )
        require(
            abs(det - target_det) <= tol,
            f"t={float(t)}: det {float(det)} != {target_det}",
        )
