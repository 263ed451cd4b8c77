"""The four workloads: inputs made from a seed, one operation, its check.

A workload is built once per run (that is part of set-up) and exposes
``ops``, the operations of one round.  The timed phase repeats whole rounds,
so every round does the same work on the same inputs.  ``Op.run`` returns a
deterministic text fingerprint of the program's output plus whatever the
check needs; ``Op.check`` raises ``checks.CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, List, Sequence

import checks


class OpFailed(Exception):
    """The program did not finish the operation (exception or exit code)."""


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]  # -> (fingerprint text, output for the check)
    check: Callable[[object, Random], None]
    cli: bool = True  # the fingerprint is what ``tauvi`` printed


def _triple(xs: Sequence[int]) -> str:
    return ",".join(str(x) for x in xs)


def _shifted(rng: Random, mu, nu):
    """A seeded permutation of mu and a seeded common shift of (mu, nu).

    Neither changes the tau function or the branch family: the permutation
    only relabels v1..v3 and tauvi removes the shift when it normalizes.
    """
    mu = list(mu)
    rng.shuffle(mu)
    shift = rng.randint(0, 2)
    return tuple(x + shift for x in mu), tuple(x + shift for x in nu)


def cli_op(argv: List[str], parse: Callable[[str], object], check) -> Op:
    """An op that runs ``tauvi <argv>``; ``check(parse(stdout), rng)``."""

    def run():
        text = run_cli(argv)
        return text, parse(text)

    return Op(" ".join(argv), run, check)


def run_cli(argv: List[str], expect: int = 0) -> str:
    """``tauvi <argv>`` in this process; returns what it wrote to stdout."""
    from tauvi import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != expect:
        raise OpFailed(
            f"tauvi {' '.join(argv)} exited {code}: {err.getvalue().strip()[:200]}"
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# reference-symbolic
# ---------------------------------------------------------------------------

REFERENCE = ((-4, -2, 0), (-3, -2, -1))
REFERENCE_BRANCHES = ("id", "flip13", "swap23")


def reference_symbolic(rng: Random) -> List[Op]:
    """The paper's worked family with nine symbolic weights, one op a branch.

    An op solves one branch with ``solve_family`` and checks its sigma form;
    on ``id`` it also runs ``pvi_residual``.  The seed only picks the check
    points: the family and the weights are the paper's.
    """
    from tauvi import painleve  # looked up per call, so a tracer can wrap it
    from tauvi.taudet import WeightMatrix, normalize_params

    mu, nu = REFERENCE
    params = normalize_params(mu, nu)
    weights = WeightMatrix.symbolic()

    def make(branch: str) -> Op:
        def run():
            result = painleve.solve_family(params, weights, branches=[branch])
            if len(result.branches) != 1:
                raise OpFailed(f"branch {branch} degenerated: {result.degenerate}")
            data = result.branches[0]
            sigma_zero = painleve.sigma_form_residual(data.sigma, data.v).is_zero
            pvi_zero = None
            if branch == "id":
                pvi_zero = painleve.pvi_residual(
                    data.y, data.alpha, data.beta, data.gamma, data.delta
                ).is_zero
            out = {
                "branch": data.branch,
                "v": list(data.v),
                "params": [data.alpha, data.beta, data.gamma, data.delta],
                "y": data.y.text(),
                "sigma": data.sigma.text(),
                "sigma_zero": sigma_zero,
                "pvi_zero": pvi_zero,
            }
            return json.dumps(out, default=str, sort_keys=True), out

        def check(out, crng: Random):
            checks.require(out["sigma_zero"], f"{branch}: sigma residual nonzero")
            checks.require(out["pvi_zero"] in (None, True), f"{branch}: PVI residual nonzero")
            checks.require(
                out["branch"] == checks.ALIASES[branch], f"{branch}: wrong branch id"
            )
            checks.check_branch(
                mu, nu, branch, out["v"], out["params"], out["y"], out["sigma"], crng
            )

        return Op(f"solve {branch}", run, check, cli=False)

    return [make(b) for b in REFERENCE_BRANCHES]


# ---------------------------------------------------------------------------
# families-numeric
# ---------------------------------------------------------------------------

# Every generic family (see checks.is_generic) whose Schur matrix is at most
# 4x4: all eight with m1 <= 3, and the four with m = (4,3,2) or (4,3,1).
SMALL_FAMILIES = tuple(
    (mu, nu)
    for mu in (
        (-2, -1, 0),
        (-3, -1, 0),
        (-3, -2, 0),
        (-3, -2, -1),
        (-4, -3, -2),
        (-4, -3, -1),
    )
    for nu in checks.support_box(checks.drops(mu))
    if checks.is_generic(mu, nu)
)


def generic_weights(wseed: int) -> bool:
    """Every 2x2 minor of weight columns 2 and 3 is nonzero.

    ``WeightMatrix.random`` draws small rationals, so a vanishing minor is
    not rare (about one draw in fifty); it cancels the t-dependence of tau0
    and every branch then degenerates, which ``tauvi solve`` rightly reports
    with exit 3.
    """
    from tauvi.taudet import WeightMatrix

    w = WeightMatrix.random(wseed)
    col2 = [w.value(a, 2) for a in (1, 2, 3)]
    col3 = [w.value(a, 3) for a in (1, 2, 3)]
    return all(
        col2[a] * col3[b] != col3[a] * col2[b] for a in range(3) for b in range(a + 1, 3)
    )


def weight_seed(rng: Random) -> int:
    while True:
        wseed = rng.randrange(1, 10**6)
        if generic_weights(wseed):
            return wseed


FAMILY_DRAWS = 2


def families_numeric(rng: Random) -> List[Op]:
    """``tauvi solve`` over all branches of each small generic family.

    Each family is drawn ``FAMILY_DRAWS`` times; the seed picks, per draw, a
    permutation of mu, a common shift and a generic weight draw passed as
    ``--weights=seed:N``.
    """
    ops = []
    for base_mu, base_nu in SMALL_FAMILIES * FAMILY_DRAWS:
        mu, nu = _shifted(rng, base_mu, base_nu)
        wseed = weight_seed(rng)
        argv = ["solve", f"--mu={_triple(mu)}", f"--nu={_triple(nu)}", f"--weights=seed:{wseed}"]

        def check(doc, crng: Random, mu=mu, nu=nu):
            checks.check_solve_doc(doc, mu, nu, crng)

        ops.append(cli_op(argv, json.loads, check))
    return ops


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------

# m triples with m1 in {3, 4} and at least ten support points, except
# (4,0,0) and (4,1,0), which alone take 30 s and 7 s.
ORACLE_TRIPLES = (
    (3, 0, 0),
    (3, 1, 0),
    (3, 2, 0),
    (3, 3, 0),
    (4, 1, 1),
    (4, 2, 0),
    (4, 2, 1),
    (4, 3, 0),
    (4, 3, 1),
    (4, 4, 0),
    (4, 4, 1),
)


def oracle_sweep(rng: Random) -> List[Op]:
    """One ``tauvi oracle --weights=sym`` call per m triple.

    The seed picks a permutation of mu, a common shift and the charge vector
    whose three tau polynomials the output prints.
    """
    ops = []
    for m in ORACLE_TRIPLES:
        base_nu = rng.choice(checks.support_box(m))
        mu, nu = _shifted(rng, tuple(-x for x in m), base_nu)
        argv = [
            "oracle",
            f"--mu={_triple(mu)}",
            f"--nu={_triple(nu)}",
            "--weights=sym",
            "--max-m1=4",
        ]

        def check(doc, crng: Random, mu=mu, nu=nu):
            checks.check_oracle_doc(doc, mu, nu)

        ops.append(cli_op(argv, json.loads, check))
    return ops


# ---------------------------------------------------------------------------
# euler-flows
# ---------------------------------------------------------------------------

EULER_FAMILIES = (
    ((-2, -1, 0), (-1, -1, -1)),
    ((-3, -1, 0), (-2, -1, -1)),
    ((-3, -2, 0), (-2, -2, -1)),
    ((-4, -2, 0), (-3, -2, -1)),
    ((-4, -1, 0), (-2, -2, -1)),
    ((-4, -3, -1), (-3, -3, -2)),
)
EULER_DRAWS = 4
EULER_T0, EULER_T_END = Fraction(1, 10), Fraction(9, 10)
# tau0 may have no root within this distance of [t0, t_end] in the complex
# plane.  A pole closer than that makes the cubic monitor exceed 1e-8 on some
# draws; at 3/10 the worst monitor over 120 draws per family was 2.8e-9.
POLE_MARGIN = Fraction(3, 10)
EULER_SAMPLES = 20


def pole_free(mu, nu, wseed: int) -> bool:
    """No root of tau0's numerator near the integration interval.

    Decided exactly by sympy's complex root counting in the rectangle
    [t0 - margin, t_end + margin] x [-margin, margin].
    """
    import sympy

    from tauvi.taudet import TauFamily, WeightMatrix, normalize_params

    tau = TauFamily(normalize_params(mu, nu), WeightMatrix.random(wseed)).tau0()
    coeffs = {}
    for exp, c in tau.num.terms.items():
        coeffs[exp[0]] = coeffs.get(exp[0], 0) + c
    t = sympy.Symbol("t")
    poly = sympy.Poly(
        sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in coeffs.items()),
        t,
        domain="QQ",
    )
    if poly.degree() <= 0:
        return True
    q = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
    lo = q(EULER_T0 - POLE_MARGIN) - sympy.I * q(POLE_MARGIN)
    hi = q(EULER_T_END + POLE_MARGIN) + sympy.I * q(POLE_MARGIN)
    return poly.count_roots(lo, hi) == 0


def euler_flows(rng: Random) -> List[Op]:
    """``tauvi euler --format=csv`` on pole-free weight draws of six families."""
    ops = []
    for mu, nu in EULER_FAMILIES:
        drawn = 0
        while drawn < EULER_DRAWS:
            wseed = weight_seed(rng)
            if not pole_free(mu, nu, wseed):
                continue
            drawn += 1
            argv = [
                "euler",
                f"--mu={_triple(mu)}",
                f"--nu={_triple(nu)}",
                f"--weights=seed:{wseed}",
                "--format=csv",
            ]

            def check(text, crng: Random, mu=mu, nu=nu):
                checks.check_euler_csv(text, mu, nu, EULER_SAMPLES)

            ops.append(cli_op(argv, str, check))
    return ops


WORKLOADS = {
    "reference-symbolic": reference_symbolic,
    "families-numeric": families_numeric,
    "oracle-sweep": oracle_sweep,
    "euler-flows": euler_flows,
}
