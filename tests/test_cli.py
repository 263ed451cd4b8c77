"""Command-line interface: exit codes, JSON/CSV shapes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

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


def test_oracle_trivial_family(capsys):
    code, out, _ = run(capsys, "oracle", "--mu=0,0,0", "--nu=0,0,0")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["cases"] == 1
    assert doc["agree"] is True


def test_oracle_refuses_oversized_family(capsys):
    code, _, err = run(capsys, "oracle", ARG_MU, ARG_NU)
    assert code == EXIT_USAGE
    assert "refused" in err
    assert "6x6" in err


def test_oracle_requires_symbolic_weights(capsys):
    code, _, err = run(
        capsys, "oracle", "--mu=-1,0,0", "--nu=0,0,-1", "--weights=seed:2"
    )
    assert code == EXIT_USAGE
    assert "sym" in err


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


def test_euler_rejects_symbolic_weights(capsys):
    code, _, err = run(capsys, "euler", ARG_MU, ARG_NU)
    assert code == EXIT_USAGE
    assert "numeric" in err


@pytest.mark.parametrize("t0", ["0", "1"])
def test_euler_t0_at_fixed_singularity_exits_usage(capsys, t0):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", f"--t0={t0}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "fixed singularities" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--t0=1/0", "--t-end=1/0"])
def test_euler_zero_denominator_time_exits_usage(capsys, flag):
    code, out, err = run(capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", flag)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag.split("=")[0] in err


@pytest.mark.parametrize(
    "flag",
    ["--t0=1/1" + "0" * 330, "--t-end=1" + "0" * 400],
    ids=["seed-overflows", "t-end-overflows"],
)
def test_euler_time_overflowing_a_float_exits_usage(capsys, flag):
    # the first is a valid time whose exact seed overflows; the second time
    # itself does not fit in a float
    code, out, err = run(capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", flag)
    assert code == EXIT_USAGE
    assert out == ""
    assert "does not fit in a float" in err and err.count("\n") == 1


def test_euler_start_rounding_to_one_aborts_with_one_line(capsys):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11",
        "--t0=10000000000000001/10000000000000000",
    )
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "integration aborted: step size underflow near t = 1.0\n"


def test_euler_zero_samples_exits_usage(capsys):
    code, out, err = run(
        capsys, "euler", ARG_MU, ARG_NU, "--weights=seed:11", "--samples=0"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
