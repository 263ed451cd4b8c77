"""Tests of the benchmark's own checks, input filters and tracer.

Every output check is shown to pass on tauvi's real output and to fail on a
perturbed copy (a negative control).  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

FAMILY = ((-3, -1, 0), (-2, -1, -1))


def rng():
    return Random(7)


@pytest.fixture(scope="module")
def solve_doc():
    mu, nu = FAMILY
    text = workloads.run_cli(
        ["solve", f"--mu={workloads._triple(mu)}", f"--nu={workloads._triple(nu)}", "--weights=seed:4"]
    )
    return json.loads(text)


@pytest.fixture(scope="module")
def reference_id():
    (op,) = [o for o in workloads.reference_symbolic(rng()) if o.label == "solve id"]
    _, out = op.run()
    return op, out


def _perturb_num(text: str, extra: str) -> str:
    num, den = text[1:-1].split(") / (")
    return f"({num} + {extra}) / ({den})"


# -- Painleve VI and the sigma form ---------------------------------------


def test_solve_doc_passes(solve_doc):
    checks.check_solve_doc(solve_doc, *FAMILY, rng())


def test_perturbed_y_fails(solve_doc):
    doc = json.loads(json.dumps(solve_doc))
    doc["branches"][0]["y"] = _perturb_num(doc["branches"][0]["y"], "1/7*t")
    with pytest.raises(CheckFailed, match="Painleve VI"):
        checks.check_solve_doc(doc, *FAMILY, rng())


def test_perturbed_sigma_fails(solve_doc):
    doc = json.loads(json.dumps(solve_doc))
    doc["sigma"] = _perturb_num(doc["sigma"], "1/1000")
    with pytest.raises(CheckFailed, match="sigma form"):
        checks.check_solve_doc(doc, *FAMILY, rng())


def test_wrong_parameters_fail(solve_doc):
    doc = json.loads(json.dumps(solve_doc))
    doc["branches"][0]["delta"] = str(Fraction(doc["branches"][0]["delta"]) + 1)
    with pytest.raises(CheckFailed, match="alpha..delta"):
        checks.check_solve_doc(doc, *FAMILY, rng())


def test_missing_branch_fails(solve_doc):
    doc = json.loads(json.dumps(solve_doc))
    doc["branches"].pop()
    with pytest.raises(CheckFailed, match="distinct branches"):
        checks.check_solve_doc(doc, *FAMILY, rng())


def test_symbolic_reference_branch(reference_id):
    op, out = reference_id
    op.check(out, rng())
    bad = dict(out, y=_perturb_num(out["y"], "w12*t^2"))
    with pytest.raises(CheckFailed, match="Painleve VI"):
        op.check(bad, rng())
    bad = dict(out, sigma=_perturb_num(out["sigma"], "w33"))
    with pytest.raises(CheckFailed, match="sigma form"):
        op.check(bad, rng())


def test_distinct_branches_match_tauvi():
    from tauvi.painleve import distinct_branches
    from tauvi.taudet import normalize_params

    for mu, nu in workloads.SMALL_FAMILIES + workloads.EULER_FAMILIES:
        assert checks.distinct_branch_count(mu, nu) == len(
            distinct_branches(normalize_params(mu, nu))
        )


# -- oracle ---------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_doc():
    return json.loads(
        workloads.run_cli(["oracle", "--mu=-1,-3,0", "--nu=-2,-1,-1", "--weights=sym"])
    )


def test_oracle_doc_passes(oracle_doc):
    checks.check_oracle_doc(oracle_doc, (-1, -3, 0), (-2, -1, -1))


@pytest.mark.parametrize(
    "perturb",
    [
        lambda d: d.update(agree=False),
        lambda d: d.update(cases=d["cases"] - 1),
        lambda d: d["support"].pop(),
        lambda d: d["support"][0].update(agree=False),
        lambda d: d["routes"].update(detA=d["routes"]["detA"] + " + w12"),
    ],
)
def test_perturbed_oracle_fails(oracle_doc, perturb):
    doc = json.loads(json.dumps(oracle_doc))
    perturb(doc)
    with pytest.raises(CheckFailed):
        checks.check_oracle_doc(doc, (-1, -3, 0), (-2, -1, -1))


# -- Euler top ------------------------------------------------------------

EULER = ((-4, -2, 0), (-3, -2, -1))


@pytest.fixture(scope="module")
def euler_csv():
    return workloads.run_cli(
        ["euler", "--mu=-4,-2,0", "--nu=-3,-2,-1", "--weights=seed:2", "--format=csv"]
    )


def test_euler_csv_passes(euler_csv):
    checks.check_euler_csv(euler_csv, *EULER, workloads.EULER_SAMPLES)


@pytest.mark.parametrize("column", [1, 5])
def test_perturbed_state_fails(euler_csv, column):
    lines = euler_csv.split("\n")
    row = lines[7].split(",")
    row[column] = repr(float(row[column]) * (1 + 1e-6))
    lines[7] = ",".join(row)
    with pytest.raises(CheckFailed):
        checks.check_euler_csv("\n".join(lines), *EULER, workloads.EULER_SAMPLES)


def test_missing_rows_fail(euler_csv):
    short = "\n".join(euler_csv.split("\n")[:5])
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_euler_csv(short, *EULER, workloads.EULER_SAMPLES)


# -- input filters ----------------------------------------------------------


def test_generic_families_are_exactly_the_solvable_ones():
    """With m1 <= 3, solve exits 0 on the generic families and 3 elsewhere."""
    for m in [(a, b, c) for a in range(1, 4) for b in range(a + 1) for c in range(b + 1)]:
        mu = tuple(-x for x in m)
        for nu in checks.support_box(m):
            expect = 0 if checks.is_generic(mu, nu) else 3
            workloads.run_cli(
                ["solve", f"--mu={workloads._triple(mu)}", f"--nu={workloads._triple(nu)}",
                 "--weights=seed:1"],
                expect=expect,
            )


def test_vanishing_minor_is_rejected():
    assert not workloads.generic_weights(334109)
    assert workloads.generic_weights(4)


def test_pole_filter_rejects_known_poles():
    mu, nu = EULER
    assert not workloads.pole_free(mu, nu, 13)  # pole near t = 0.112
    assert not workloads.pole_free(mu, nu, 14)  # pole near t = 0.505
    assert workloads.pole_free(mu, nu, 2)


# -- tracer -----------------------------------------------------------------


def test_tracer_restores_and_repeats_counts():
    from tauvi import exactalg

    mul, gcd = exactalg.MultiPoly.__mul__, exactalg.poly_gcd
    ops = workloads.families_numeric(Random(3))[:2]
    rec = tracing.Recorder()
    totals = []
    for _ in range(2):
        rec.install()
        try:
            snap = rec.snapshot()
            for op in ops:
                op.run()
            totals.append(rec.since(snap))
        finally:
            rec.uninstall()
    assert exactalg.MultiPoly.__mul__ is mul and exactalg.poly_gcd is gcd
    assert exactalg.MultiPoly.__rmul__ is mul
    for name in tracing.EXACT_COUNTS:
        assert totals[0][name] == totals[1][name], name
    assert totals[0]["exactalg.gcd_calls"] > 0
    assert totals[0]["painleve.branches_verified"] > 0
