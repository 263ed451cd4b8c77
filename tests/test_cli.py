"""Command-line interface: exit codes, JSON/CSV shapes, determinism."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tauvi

from tauvi.cli import (
    EXIT_DEGENERATE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    parse_weights,
)

MU6 = "-4,-2,0"
NU6 = "-3,-2,-1"
# argparse only recognizes negative triples in the --opt=value form
ARG_MU = f"--mu={MU6}"
ARG_NU = f"--nu={NU6}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# global behavior
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "tauvi" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["tau", "solve"])
def test_interrupt_exits_130_with_one_line(capsys, monkeypatch, command):
    import tauvi.cli as climod

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(climod, f"cmd_{command}", interrupted)
    code, out, err = run(capsys, command, ARG_MU, ARG_NU, "--weights=seed:3")
    assert code == EXIT_INTERRUPTED == 130
    assert out == ""
    assert err == "error: interrupted\n"


def test_bad_weight_spec(capsys):
    code, _, err = run(capsys, "tau", ARG_MU, ARG_NU, "--weights=nope")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_weights_json_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([[1, "1/2", 0], [0, 1, 0], [0, 0, 1]]))
    code, out, _ = run(
        capsys, "tau", ARG_MU, ARG_NU, f"--weights=json:{path}"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["R2"] == 3
    assert "w12" not in doc["tau0"]


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------


def test_tau_worked_example_is_deterministic(capsys):
    code, out1, err = run(capsys, "tau", ARG_MU, ARG_NU)
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(out1)
    assert doc["m"] == [4, 2, 0]
    assert doc["R2"] == 3
    assert doc["sign"] == -1
    assert doc["tau0"].count("t^3") >= 1
    code, out2, _ = run(capsys, "tau", ARG_MU, ARG_NU)
    assert code == EXIT_OK and out2 == out1


def test_tau_off_support_warns_and_prints_zero(capsys):
    code, out, err = run(capsys, "tau", ARG_MU, "--nu=-5,0,-1")
    assert code == EXIT_OK
    assert json.loads(out)["tau0"] == "0"
    assert "support" in err


def test_tau_malformed_triple(capsys):
    code, _, err = run(capsys, "tau", "--mu=1,2", ARG_NU)
    assert code == EXIT_USAGE
    assert "three" in err


def test_tau_trace_mismatch(capsys):
    code, _, err = run(capsys, "tau", ARG_MU, "--nu=-3,-2,0")
    assert code == EXIT_USAGE
    assert "trace mismatch" in err


def test_tau_out_file(tmp_path, capsys):
    path = tmp_path / "tau.json"
    code, out, _ = run(
        capsys, "tau", ARG_MU, ARG_NU, f"--out={path}"
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["R2"] == 3


@pytest.mark.parametrize(
    "rows",
    [
        [["1/0", 1, 1], [1, 2, 1], [1, 1, 3]],
        [[1, "x", 1], [1, 2, 1], [1, 1, 3]],
        5,
        # text that is not JSON at all
        pytest.param("", id="empty"),
        pytest.param("[[1, 1", id="truncated"),
    ],
)
def test_bad_entry_in_weights_file_exits_usage(tmp_path, capsys, rows):
    path = tmp_path / "w.json"
    not_json = isinstance(rows, str)
    path.write_text(rows if not_json else json.dumps(rows))
    code, out, err = run(capsys, "tau", "--mu=-2,-1,0", "--nu=-1,-1,-1", f"--weights=json:{path}")
    assert code == EXIT_USAGE
    assert out == ""
    want = "error: bad --weights file: " if not_json else "error: bad entry in --weights file"
    assert err.startswith(want) and err.count("\n") == 1


def test_unreadable_weights_file_and_unwritable_out_exit_usage(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    for argv in (
        [f"--weights=json:{missing / 'w.json'}"],
        [f"--out={missing / 'tau.json'}"],
    ):
        code, out, err = run(capsys, "tau", ARG_MU, ARG_NU, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_three_branches_verified(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        ARG_MU, ARG_NU,
        "--weights=seed:3",
        "--branch=id,flip13,swap23",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["params"]["R2"] == 3
    assert doc["a"] == "1" and doc["b"] == "1"
    assert doc["c"] == ["-1", "4", "-13/4", "-3", "3/2", "-9/4"]
    assert doc["A"] == ["9", "0", "24", "16"]
    assert [b["branch"] for b in doc["branches"]] == [
        "0123++++", "0123-+-+", "0213++++",
    ]
    by = {b["branch"]: b for b in doc["branches"]}
    assert by["0123++++"]["v"] == ["2", "0", "-2", "-1"]
    assert by["0123-+-+"]["alpha"] == "9/2"
    assert by["0213++++"]["delta"] == "1/2"
    for b in doc["branches"]:
        assert b["pvi_residual_zero"] is True
        assert b["sigma_residual_zero"] is True
    assert doc["degenerate"] == []


# Frozen digest of the reference family's ``tauvi solve`` over all branches:
# a change to the order in which the tau matrices are built or expanded, or
# to any derived rational function, shows up here.
def test_solve_output_matches_golden_digest(capsys):
    code, out, err = run(capsys, "solve", ARG_MU, ARG_NU, "--weights=seed:3")
    assert code == EXIT_OK and err == ""
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f780ca48dfc8a0c0c807615552409c31ec4465508df79b38d70c86290a1ed543"
    )


# Frozen digest of one symbolic branch of the reference family: its residual
# multiplies operands of dozens of terms, so the packed-exponent products and
# the term order they keep show up here.
def test_solve_symbolic_output_matches_golden_digest(capsys):
    code, out, err = run(
        capsys, "solve", ARG_MU, ARG_NU, "--weights=sym", "--branch=id"
    )
    assert code == EXIT_OK and err == ""
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "68ac6fc8338fe55d67f79bfd79932cb6865e5fcfa9656829add482860d91171a"
    )


# Frozen digest of the reference family's ``tauvi solve`` over all branches
# with symbolic weights: 26 residual verdicts on images of up to a million
# digits, and 26 split-gcd reductions in ``okamoto_y``.
def test_solve_all_branches_symbolic_output_matches_golden_digest(capsys):
    code, out, err = run(capsys, "solve", ARG_MU, ARG_NU, "--weights=sym")
    assert code == EXIT_OK and err == ""
    assert len(json.loads(out)["branches"]) == 26
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "119920bd7944eff5c2978da21c1b7318f96209a5555b6db24df992e3a39d57d5"
    )


# Negative control for the solve digests: the seed:3 weights read from a file
# give the seed:3 digest, and the same file with one weight changed does not.
def test_solve_digest_changes_with_a_perturbed_weight_file(tmp_path, capsys):
    rows = parse_weights("seed:3").to_json()
    digests = []
    for entry in (rows[1][2], str(Fraction(rows[1][2]) + 1)):
        rows[1][2] = entry
        path = tmp_path / "w.json"
        path.write_text(json.dumps(rows))
        code, out, err = run(capsys, "solve", ARG_MU, ARG_NU, f"--weights=json:{path}")
        assert code == EXIT_OK and err == ""
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests[0] == "f780ca48dfc8a0c0c807615552409c31ec4465508df79b38d70c86290a1ed543"
    assert digests[1] != digests[0]


# Frozen digest of a larger ``tauvi tau`` run with symbolic weights: its 16x16
# Bareiss core is where the pivot order matters most, and the determinant,
# which is unique, must not change with it.
def test_tau_large_core_output_matches_golden_digest(capsys):
    code, out, err = run(
        capsys, "tau", "--mu=-9,-2,0", "--nu=-5,-4,-2", "--weights=sym"
    )
    assert code == EXIT_OK and err == ""
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "417292242e428d4c7ba7360dcf52c41ed24c6a3a25c152833b10fadc44da43d1"
    )


def test_solve_residual_failure_exits_one(capsys, monkeypatch):
    import tauvi.cli as climod

    def broken(y, *rest):
        return y.ring.one()

    monkeypatch.setattr(climod, "pvi_residual", broken)
    code, out, _ = run(
        capsys, "solve", ARG_MU, ARG_NU,
        "--weights=seed:3", "--branch=id",
    )
    assert code == EXIT_VERIFY
    assert json.loads(out)["branches"][0]["pvi_residual_zero"] is False


def test_solve_sigma_residual_failure_marks_every_branch(capsys, monkeypatch):
    import tauvi.cli as climod

    monkeypatch.setattr(
        climod, "sigma_form_residual", lambda sigma, v: sigma.ring.one()
    )
    code, out, _ = run(
        capsys, "solve", ARG_MU, ARG_NU,
        "--weights=seed:3", "--branch=id,flip13",
    )
    assert code == EXIT_VERIFY
    branches = json.loads(out)["branches"]
    assert len(branches) == 2
    assert all(b["sigma_residual_zero"] is False for b in branches)


def test_solve_fully_degenerate_family(capsys):
    code, out, _ = run(
        capsys, "solve", "--mu=-1,-1,0", "--nu=-1,-1,0", "--weights=seed:1"
    )
    assert code == EXIT_DEGENERATE
    doc = json.loads(out)
    assert doc["branches"] == []
    assert len(doc["degenerate"]) == 5
    assert all("reason" in d for d in doc["degenerate"])


def test_solve_off_support(capsys):
    code, _, err = run(
        capsys, "solve", ARG_MU, "--nu=-5,0,-1", "--weights=seed:1"
    )
    assert code == EXIT_USAGE
    assert "support" in err


def test_solve_bad_branch_id(capsys):
    code, _, err = run(
        capsys, "solve", ARG_MU, ARG_NU,
        "--weights=seed:1", "--branch=0124++++",
    )
    assert code == EXIT_USAGE
    assert "permutation" in err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_small_family_agrees(capsys):
    code, out, _ = run(
        capsys, "oracle", "--mu=-2,-1,0", "--nu=-1,-1,-1", "--order=1"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["cases"] == len(doc["support"]) > 0
    assert all(row["agree"] for row in doc["support"])
    assert set(doc["routes"]) == {"oracle", "detE", "detA"}
    assert doc["routes"]["oracle"] == doc["routes"]["detE"] == doc["routes"]["detA"]


def test_oracle_agrees_at_m1_four(capsys):
    code, out, err = run(
        capsys, "oracle", "--mu=-4,0,0", "--nu=-2,-1,-1", "--weights=sym",
        "--max-m1=4",
    )
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["cases"] == len(doc["support"]) > 0
    assert all(row["agree"] is True for row in doc["support"])


def test_oracle_trivial_family(capsys):
    code, out, _ = run(capsys, "oracle", "--mu=0,0,0", "--nu=0,0,0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["cases"] == 1
    assert doc["agree"] is True


def test_oracle_refuses_oversized_family(capsys):
    code, _, err = run(capsys, "oracle", "--mu=-5,-2,0", "--nu=-3,-2,-2")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert "refused" in err
    assert "8x8" in err


def test_oracle_requires_symbolic_weights(capsys):
    code, _, err = run(
        capsys, "oracle", "--mu=-1,0,0", "--nu=0,0,-1", "--weights=seed:2"
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert "sym" in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_oracle_order_below_one_exits_usage(capsys, order):
    # Order 0 leaves no time variables, so every route would read 0 and
    # "agree": true would check nothing.
    code, out, err = run(
        capsys, "oracle", "--mu=-3,-1,0", "--nu=-2,-1,-1", f"--order={order}"
    )
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--order" in err


def test_oracle_negative_control(capsys, monkeypatch):
    import tauvi.taudet as taudet_mod

    orig = taudet_mod.tau_from_E

    def skewed(params, weights, u, ring, nu=None):
        return orig(params, weights, u, ring, nu=nu) + ring.one()

    monkeypatch.setattr(taudet_mod, "tau_from_E", skewed)
    code, out, _ = run(
        capsys, "oracle", "--mu=-1,0,0", "--nu=0,0,-1", "--order=1"
    )
    assert code == EXIT_VERIFY
    assert json.loads(out)["agree"] is False


def test_oracle_expands_G_once_per_call(capsys, monkeypatch):
    import tauvi.fockoracle as fock_mod

    calls = []
    orig = fock_mod.build_G_vacuum

    def counted(*args, **kwargs):
        calls.append(args[0].m)
        return orig(*args, **kwargs)

    monkeypatch.setattr(fock_mod, "build_G_vacuum", counted)
    code, out, _ = run(
        capsys, "oracle", "--mu=-3,-1,0", "--nu=-2,-1,-1", "--order=1"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["cases"] > 1
    assert calls == [(3, 1, 0)]


# Frozen digests of ``tauvi oracle`` stdout: a change to the phase rule of a
# wedge shows up here, even where all three routes still agree.  A sign fixed
# per slot, such as the sea term of ``flip``, cancels in <nu|G|0>; the sign
# pins of test_fockoracle.py see that one.
@pytest.mark.parametrize(
    "order, digest",
    [
        ("1", "c5824c900a98167d07febb6876a49a82075771b84944c4faeed5a693e58a8301"),
        ("2", "e8f09b783d54f089732534af3ecfce01a421826570ec0334a9ccb0b03c9a4e5a"),
    ],
)
def test_oracle_output_matches_golden_digest(capsys, order, digest):
    code, out, err = run(
        capsys, "oracle", "--mu=-3,-1,0", "--nu=-2,-1,-1", "--weights=sym",
        f"--order={order}",
    )
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_at_m1_five_matches_golden_digest(capsys):
    # The largest Bareiss cores any oracle run reaches: every support charge
    # of m = (5, 0, 0), by the E route, the A route and the oracle.
    code, out, err = run(
        capsys, "oracle", "--mu=-5,0,0", "--nu=-2,-2,-1", "--weights=sym",
        "--max-m1=5",
    )
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["agree"] is True
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "122f730c720fa03ddd588b197cae04edc027d3129e38b2ed045070551bae24bd"
    )


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------


def test_euler_json_summary(capsys):
    code, out, _ = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["t0"] == 0.1 and doc["t_end"] == 0.9
    assert doc["samples"] == 20
    assert doc["steps"] > 0
    assert max(doc["monitor_max"]) <= 1e-8
    assert abs(doc["final"]["t"] - 0.9) < 1e-12
    assert len(doc["final"]["omega"]) == 3


def test_euler_csv_output_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run(
            capsys, "euler", ARG_MU, ARG_NU,
            "--weights=seed:11", "--format", "csv", f"--out={path}",
        )
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0].startswith("t,omega1")
    assert len(lines) == 21


# Frozen digests of the reference run's output: a change to the integrator's
# arithmetic, or to the order in which it sums, shows up here.
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "636933a1a4b483954ab2e73632ce619c801382bd02c478e2b12774db3f7f31b4"),
        ("json", "f018ccaa008294747762ed5cb988727cc484f53bc5fa0c4323116c5d5367dfb5"),
    ],
)
def test_euler_output_matches_golden_digest(capsys, fmt, digest):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", f"--format={fmt}"
    )
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The reference run above has no rejected step and integrates forward; these
# two pin the backward branch (153 steps) and the rejection branch (979 steps,
# 2 rejected) of the same integrator.
@pytest.mark.parametrize(
    "extra, digest",
    [
        (
            ("--t0=9/10", "--t-end=1/10"),
            "3a51bcc8a75a988dd63fdebaab1153dcc6d7e3e43147cb3f6926a1692f11de1f",
        ),
        (
            ("--tol=1e-14",),
            "fd0e56637f6402602e71ec151555246f7d4bfe48cf6a36c3755fe3a66cef34a8",
        ),
    ],
    ids=["backward", "rejections"],
)
def test_euler_backward_and_rejecting_runs_match_golden_digests(capsys, extra, digest):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", "--format=csv", *extra
    )
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_runs_on_the_standard_library_alone():
    # A fresh interpreter without site-packages imports all seven modules and
    # runs ``tauvi euler``; no module outside the standard library may load.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tauvi.__file__)))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from tauvi import cli, eulertop, exactalg, fockoracle, painleve, schur, taudet\n"
        "code = cli.main(['euler', '--mu=-4,-2,0', '--nu=-3,-2,-1', '--weights=seed:11'])\n"
        "loaded = {name.split('.')[0] for name in sys.modules}\n"
        "print(code, sorted(loaded - set(sys.stdlib_module_names) - {'__main__', 'tauvi'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tauvi.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "tauvi", "solve", ARG_MU, ARG_NU, "--weights=seed:3", "--branch=id"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    doc = json.loads(proc.stdout)
    assert [b["branch"] for b in doc["branches"]] == ["0123++++"]
    assert doc["branches"][0]["pvi_residual_zero"] is True


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps each (module, attribute) of TARGETS in every
    # ``perfbench/run.py --trace 1`` run; a name missing from tauvi would
    # crash that run, not fail a test of its own.
    root = Path(tauvi.__file__).resolve().parents[2]
    tracing = runpy.run_path(str(root / "perfbench" / "tracing.py"))
    assert tracing["TARGETS"]
    for module, attribute, *_ in tracing["TARGETS"]:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(obj, part), f"{module}.{attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attribute}"


def test_euler_rejects_symbolic_weights(capsys):
    code, _, err = run(capsys, "euler", ARG_MU, ARG_NU)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert "numeric" in err


# From 2, -1 or 3/2 the flow to t_end = 1/2 would cross a fixed singularity.
@pytest.mark.parametrize("t0", ["0", "1", "2", "-1", "3/2"])
def test_euler_t0_at_fixed_singularity_exits_usage(capsys, t0):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", f"--t0={t0}",
        "--t-end=1/2",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--t0" in err and "fixed singularities" in err


def test_euler_off_support_charge_exits_usage(capsys):
    code, out, err = run(
        capsys, "euler", ARG_MU, "--nu=-5,0,-1", "--weights=seed:11"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "tau0 vanishes for nu=(-5, 0, -1)" in err


@pytest.mark.parametrize("flag", ["--t0=1/0", "--t-end=1/0"])
def test_euler_zero_denominator_time_exits_usage(capsys, flag):
    code, out, err = run(capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", flag)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag.split("=")[0] in err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--t0=1/1" + "0" * 330, "does not fit in a float"),
        ("--t-end=1" + "0" * 400, "--t-end"),
    ],
    ids=["seed-overflows", "t-end-overflows"],
)
def test_euler_time_overflowing_a_float_exits_usage(capsys, flag, message):
    # the first is a valid time whose exact seed overflows; the second time
    # itself does not fit in a float, and the (0, 1) range check rejects it
    code, out, err = run(capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", flag)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_euler_start_rounding_to_one_aborts_with_one_line(capsys):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11",
        "--t0=99999999999999999/100000000000000000",
    )
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "integration aborted: step size underflow near t = 1.0\n"


@pytest.mark.parametrize("tol", ["-1e-10", "0", "inf", "nan"])
def test_euler_tolerance_not_positive_and_finite_exits_usage(capsys, tol):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", f"--tol={tol}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--tol" in err


# A nan or negative bound would fail every run only after the whole
# integration, and inf would pass every run without checking anything.
@pytest.mark.parametrize("bound", ["nan", "-1", "inf", "-inf"])
def test_euler_max_residual_not_nonnegative_and_finite_exits_usage(capsys, bound):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", f"--max-residual={bound}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--max-residual" in err


@pytest.mark.parametrize("t_end", ["1", "2", "0", "-1"])
def test_euler_t_end_outside_the_open_unit_interval_exits_usage(capsys, t_end):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", f"--t-end={t_end}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--t-end" in err


def test_euler_zero_samples_exits_usage(capsys):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", "--samples=0"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_euler_seed_at_a_zero_of_tau0_exits_usage(tmp_path, capsys):
    # tau0 of these weights vanishes at t = 1/2, so no seed exists there
    path = tmp_path / "w.json"
    path.write_text(json.dumps([[1, 1, 1], [0, 2, 1], [0, 3, 1]]))
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, f"--weights=json:{path}", "--t0=1/2"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "t0=1/2" in err


def test_euler_reports_movable_pole(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([[1, 1, 1], [0, 2, 1], [0, 3, 1]]))
    code, _, err = run(
        capsys, "euler", ARG_MU, ARG_NU,
        f"--weights=json:{path}", "--t0=3/10",
    )
    assert code == EXIT_VERIFY
    assert "aborted" in err


def test_parse_weights_forms():
    assert parse_weights("sym").is_symbolic
    assert not parse_weights("seed:4").is_symbolic
    assert parse_weights("seed:4") == parse_weights("seed:4")
    with pytest.raises(ValueError):
        parse_weights("seed:x")
