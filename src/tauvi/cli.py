"""Command-line front end.

Subcommands
-----------
``tauvi tau``     print the projected tau function tau0(t) as exact text
``tauvi solve``   run the full Painleve VI pipeline and verify the residuals
``tauvi oracle``  cross-check determinant routes against the fermion oracle
``tauvi euler``   integrate the Euler-top flow and report conservation drift

Exit codes: 0 success, 1 a verification failed, 2 invalid input,
3 every requested branch was degenerate, 130 interrupted (Ctrl-C).

Outputs are deterministic for a fixed command line: rationals are printed as
``p/q`` strings, JSON keys are sorted, and the random weight generator is
seeded explicitly (``--weights seed:N``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .exactalg import DegenerateSpecialization
from .painleve import (
    PainleveError,
    ZeroTauError,
    pvi_residual,
    sigma_form_residual,
    solve_family,
)
from .taudet import (
    ScalingDataError,
    TauFamily,
    WeightMatrix,
    normalize_params,
    sign_E,
    time_symbols,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERRUPTED = 130


def _parse_triple(text: str, name: str):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ScalingDataError(f"--{name} expects three comma-separated integers")
    if len(parts) != 3:
        raise ScalingDataError(f"--{name} expects exactly three integers")
    return parts


def parse_weights(spec: str) -> WeightMatrix:
    if spec == "sym":
        return WeightMatrix.symbolic()
    if spec.startswith("seed:"):
        try:
            seed = int(spec[5:])
        except ValueError:
            raise ValueError(f"bad seed in --weights {spec!r}")
        return WeightMatrix.random(seed)
    if spec.startswith("json:"):
        try:
            with open(spec[5:]) as fh:
                rows = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --weights file: {exc}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"bad --weights file: {exc}") from None
        try:
            entries = [[Fraction(str(x)) for x in row] for row in rows]
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad entry in --weights file: {exc}") from None
        return WeightMatrix.from_rows(entries)
    raise ValueError(
        f"--weights must be 'sym', 'seed:N' or 'json:FILE', got {spec!r}"
    )


def _config(args):
    """The validated (params, weights) of a subcommand's common options."""
    params = normalize_params(
        _parse_triple(args.mu, "mu"), _parse_triple(args.nu, "nu")
    )
    return params, parse_weights(args.weights)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _frac(x) -> str:
    return str(Fraction(x))


def _parse_time(text: str, flag: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be an exact rational, got {text!r}") from None
    if not 0 < value < 1:
        raise ValueError(
            f"{flag} must lie strictly between the fixed singularities 0 and 1, "
            f"got {text!r}"
        )
    return value


def _sample_grid(t0: float, t_end: float, n: int) -> list:
    """n >= 1 points i * step + t0 from t0 to t_end, the last exactly t_end."""
    if n == 1:
        return [t0]
    step = (t_end - t0) / (n - 1)
    return [float(i) * step + t0 for i in range(n - 1)] + [t_end]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tau(args) -> int:
    params, weights = _config(args)
    family = TauFamily(params, weights)
    tau = family.tau0()
    if tau.is_zero:
        sys.stderr.write(
            f"warning: nu={list(params.nu)} lies outside the support of "
            f"m={list(params.m)}; tau vanishes identically\n"
        )
    doc = {
        "mu": list(params.mu),
        "nu": list(params.nu),
        "m": list(params.m),
        "R2": params.R2,
        "sign": sign_E(params.m[0], params.nu),
        "tau0": tau.text(),
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    params, weights = _config(args)
    branches = None if args.branch == "all" else args.branch.split(",")
    result = solve_family(params, weights, branches=branches)
    branch_docs = []
    all_zero = True
    if result.branches:
        # The sigma form sees v only through v1*v2*v3*v4 and the squares
        # v_k^2, which every branch of the family shares: one check serves all.
        first = result.branches[0]
        ok_sigma = sigma_form_residual(result.sigma, first.v).is_zero
    for data in result.branches:
        rho_pvi = pvi_residual(
            data.y, data.alpha, data.beta, data.gamma, data.delta
        )
        ok_pvi = rho_pvi.is_zero
        all_zero = all_zero and ok_pvi and ok_sigma
        branch_docs.append(
            {
                "branch": data.branch,
                "v": [_frac(x) for x in data.v],
                "alpha": _frac(data.alpha),
                "beta": _frac(data.beta),
                "gamma": _frac(data.gamma),
                "delta": _frac(data.delta),
                "y": data.y.text(),
                "pvi_residual_zero": ok_pvi,
                "sigma_residual_zero": ok_sigma,
            }
        )
    doc = {
        "params": {
            "mu": list(params.mu),
            "nu": list(params.nu),
            "m": list(params.m),
            "R2": params.R2,
            "p": params.p,
            "shift_c": params.shift_c,
        },
        "weights": weights.to_json(),
        "tau0": result.tau0.text(),
        "f": result.f.text(),
        "sigma": result.sigma.text(),
        "a": _frac(result.a),
        "b": _frac(result.b),
        "c": [_frac(x) for x in result.c],
        "A": [_frac(x) for x in result.A],
        "branches": branch_docs,
        "degenerate": [
            {"branch": bid, "reason": reason} for bid, reason in result.degenerate
        ],
    }
    _emit(_json_text(doc), args.out)
    if not result.branches:
        return EXIT_DEGENERATE
    return EXIT_OK if all_zero else EXIT_VERIFY


def cmd_oracle(args) -> int:
    from .exactalg import PolyRing
    from .fockoracle import build_G_vacuum, tau_from_G
    from .schur import TimeVector
    from .taudet import WEIGHT_SYMBOLS, tau_from_A, tau_from_E

    params, weights = _config(args)
    if args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    if params.m[0] > args.max_m1:
        raise ValueError(
            f"oracle refused: m1 = {params.m[0]} exceeds --max-m1 = {args.max_m1} "
            f"(the Schur matrix would be {2*params.m[0]-params.m[1]-params.m[2]}"
            f"x{2*params.m[0]-params.m[1]-params.m[2]}, the big route "
            f"{3*params.p}x{3*params.p}, and the fermion state space grows "
            "combinatorially)"
        )
    if not weights.is_symbolic:
        raise ValueError("oracle comparison runs on symbolic weights; use --weights sym")
    order = args.order
    ring = PolyRing(WEIGHT_SYMBOLS + time_symbols(order))
    u = TimeVector.symbolic(ring, order)
    m1, m2, m3 = params.m
    G = build_G_vacuum(params, weights, u, ring)
    rows = []
    all_agree = True
    configured = {}
    for n1 in range(-m1, -m3 + 1):
        for n2 in range(-m1, -m3 + 1):
            n3 = -(m1 + m2 + m3) - n1 - n2
            if not -m1 <= n3 <= -m3:
                continue
            nu = (n1, n2, n3)
            t_o = tau_from_G(G, nu, ring)
            t_e = tau_from_E(params, weights, u, ring, nu=nu)
            t_a = tau_from_A(params, weights, u, ring, nu=nu)
            agree = t_o == t_e and t_o == t_a
            all_agree = all_agree and agree
            rows.append({"nu": list(nu), "agree": agree})
            if nu == params.nu:
                configured = {
                    "oracle": t_o.text(),
                    "detE": t_e.text(),
                    "detA": t_a.text(),
                }
    doc = {
        "m": list(params.m),
        "nu": list(params.nu),
        "order": order,
        "agree": all_agree,
        "cases": len(rows),
        "support": rows,
        "routes": configured,
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK if all_agree else EXIT_VERIFY


def cmd_euler(args) -> int:
    from .eulertop import (
        EulerTopError,
        conserved_from_family,
        init_from_tau,
        integrate,
        monitor,
        monitor_csv,
    )

    params, weights = _config(args)
    if weights.is_symbolic:
        raise ValueError("euler needs numeric weights (seed:N or json:FILE)")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    if not 0 <= args.max_residual < math.inf:
        raise ValueError(
            f"--max-residual must be non-negative and finite, got {args.max_residual}"
        )
    t0 = _parse_time(args.t0, "--t0")
    t_end = _parse_time(args.t_end, "--t-end")
    family = TauFamily(params, weights)
    try:
        state = init_from_tau(family, t0)
    except (DegenerateSpecialization, ZeroTauError, EulerTopError) as exc:
        raise ValueError(f"cannot seed the flow at t0={t0}: {exc}") from None
    cons = conserved_from_family(family)
    try:
        traj = integrate(state, params.nu, float(t_end), tol=args.tol)
    except EulerTopError as exc:
        sys.stderr.write(f"integration aborted: {exc}\n")
        return EXIT_VERIFY
    sample_ts = _sample_grid(float(t0), float(t_end), args.samples)
    report = monitor(traj, cons, sample_ts)
    worst = max(report["max"])
    if args.format == "csv":
        _emit(monitor_csv(report), args.out)
    else:
        doc = {
            "t0": float(t0),
            "t_end": float(t_end),
            "tol": args.tol,
            "samples": args.samples,
            "steps": traj.n_steps,
            "rejected": traj.n_rejected,
            "monitor_max": list(report["max"]),
            "final": {
                "t": traj.t_end,
                "omega": list(traj.final_state()[:3]),
                "omega_bar": list(traj.final_state()[3:]),
            },
        }
        _emit(_json_text(doc), args.out)
    return EXIT_OK if worst <= args.max_residual else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--mu", required=True, help="comma-separated integer triple")
    sub.add_argument("--nu", required=True, help="comma-separated integer triple")
    sub.add_argument(
        "--weights",
        default="sym",
        help="'sym', 'seed:N' (deterministic random rationals) or 'json:FILE'",
    )
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauvi",
        description="Exact tau-function determinants and rational Painleve VI solutions",
    )
    parser.add_argument("--version", action="version", version=f"tauvi {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_tau = subs.add_parser("tau", help="print tau0(t) for one (mu, nu) family")
    _add_common(p_tau)
    p_tau.set_defaults(func=cmd_tau)

    p_solve = subs.add_parser("solve", help="derive and verify Painleve VI data")
    _add_common(p_solve)
    p_solve.add_argument(
        "--branch",
        default="all",
        help="'all' or comma-separated branch ids (e.g. 0123++++, id, flip13, swap23)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = subs.add_parser(
        "oracle", help="compare determinant routes with the fermion oracle"
    )
    _add_common(p_oracle)
    p_oracle.add_argument("--order", type=int, default=2, help="time truncation order")
    p_oracle.add_argument(
        "--max-m1", type=int, default=4, help="refuse families larger than this"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_euler = subs.add_parser("euler", help="integrate the Euler-top flow")
    _add_common(p_euler)
    p_euler.add_argument("--t0", default="1/10", help="start time (exact rational)")
    p_euler.add_argument("--t-end", default="9/10", help="end time (exact rational)")
    p_euler.add_argument("--tol", type=float, default=1e-10)
    p_euler.add_argument("--samples", type=int, default=20)
    p_euler.add_argument(
        "--max-residual",
        type=float,
        default=1e-8,
        help="fail (exit 1) if any monitor exceeds this",
    )
    p_euler.add_argument("--format", choices=("json", "csv"), default="json")
    p_euler.set_defaults(func=cmd_euler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroTauError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PainleveError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
