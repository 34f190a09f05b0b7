import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import robinbec.cli as cli
from robinbec.cli import main


def run(argv):
    return main(argv)


def test_spectrum_command(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = run(["spectrum", "--sigma", "-1", "--L", "20", "--k-max", "10",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi"
    rows = lines[header_idx + 1:]
    assert len(rows) == 11
    # bracket invariant holds row by row for k >= 2
    for row in rows[2:]:
        f = row.split(",")
        assert float(f[5]) < float(f[2]) < float(f[6])


@pytest.mark.parametrize("k_max", [0, 10])
def test_spectrum_command_reports_its_mode_count(tmp_path, capsys, k_max):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--sigma", "-1", "--L", "20", "--k-max", str(k_max),
                "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({k_max + 1} modes)\n"
    rows = [line for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert [int(row.split(",")[0]) for row in rows] == list(range(k_max + 1))


def test_spectrum_command_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["spectrum", "--sigma", "-1.3", "--L", "17", "--k-max", "7",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_command_occupation_bound(tmp_path):
    out = tmp_path / "oracle.json"
    rc = run(["oracle", "--check", "occupation-bound", "--sigma", "-1", "--L", "10",
              "--beta", "1", "--mu", "-1.5", "--lambda", "1", "--mode", "2",
              "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["check"] == "occupation-bound"
    assert rep["pass"] is True
    assert rep["lhs"] <= rep["rhs"] + rep["tail_budget"] + 1e-12
    assert set(rep) >= {"check", "params", "lhs", "rhs", "residual", "tail_budget", "pass"}


def test_oracle_command_exchange_default_instance(tmp_path):
    out = tmp_path / "oracle.json"
    rc = run(["oracle", "--check", "exchange", "--sigma", "-1", "--L", "10",
              "--beta", "1", "--mu", "-1.5", "--lambda", "1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["params"]["j"] == 1
    assert rep["params"]["targets"] == [[0, 1]]
    assert rep["pass"] is True


def test_thermo_command(tmp_path):
    out = tmp_path / "thermo.json"
    rc = run(["thermo", "--sigma", "-1", "--L", "40", "--beta", "1", "--rho", "1",
              "--lambda", "1", "--model", "scf", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["model"] == "mean_field_scf"
    assert rep["mu"] < rep["eps0"]
    assert abs(rep["rho_tilde"] + rep["rho_cond_finite"] - 1.0) < 1e-9


def test_profile_command(tmp_path):
    out = tmp_path / "prof.csv"
    rc = run(["profile", "--sigma", "-1", "--L", "30", "--beta", "1", "--rho", "1",
              "--model", "free", "--grid-n", "301", "--fraction", "0.9",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "x,n_total,n_cond,n_thermal"
    assert len(lines) == header_idx + 1 + 301


def test_sweep_command_with_fits(tmp_path):
    out = tmp_path / "sweep.csv"
    fit_out = tmp_path / "sweep.fit.json"
    rc = run(["sweep", "--sigma", "-1", "--beta", "1", "--rho", "1", "--lambda", "1",
              "--model", "scf", "--L-grid", "50:400:geometric:6",
              "--out", str(out), "--fit-out", str(fit_out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    rows = lines[header_idx + 1:]
    assert len(rows) == 6
    fits = json.loads(fit_out.read_text())
    assert fits["mu_asymptotics"]["pass"] is True
    assert abs(fits["critical_density"] - 0.14274846129686652) < 1e-12


def test_json_reports_are_sorted_indented_text(tmp_path):
    # thermo, oracle and sweep-fit reports: `json.dumps(payload, indent=2,
    # sort_keys=True)` and one newline, byte for byte
    thermo, oracle, fit = (tmp_path / name for name in ("thermo.json", "oracle.json", "fit.json"))
    box = ["--sigma", "-1", "--beta", "1", "--lambda", "1"]
    assert run(["thermo", *box, "--L", "40", "--rho", "1", "--model", "scf",
                "--out", str(thermo)]) == 0
    assert run(["oracle", *box, "--check", "occupation-bound", "--L", "10", "--mu", "-1.5",
                "--mode", "2", "--out", str(oracle)]) == 0
    assert run(["sweep", *box, "--rho", "1", "--model", "scf", "--L-grid", "50:400:geometric:4",
                "--out", str(tmp_path / "sweep.csv"), "--fit-out", str(fit)]) == 0
    for path in (thermo, oracle, fit):
        text = path.read_bytes().decode()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def test_sweep_rows_ordered_and_deterministic(tmp_path):
    args = ["sweep", "--sigma", "-1", "--beta", "1", "--rho", "1",
            "--L-grid", "20:80:geometric:4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a), "--fit-out", str(tmp_path / "a.json")]) == 0
    assert run(args + ["--out", str(b), "--fit-out", str(tmp_path / "b.json")]) == 0
    assert a.read_bytes() == b.read_bytes()
    Ls = [float(r.split(",")[0]) for r in a.read_text().splitlines()
          if r and not r.startswith("#") and not r.startswith("L,")]
    assert Ls == sorted(Ls)


def test_sweep_evaluates_each_gap_once(tmp_path, monkeypatch):
    import robinbec.cli as cli
    import robinbec.thermo as thermo

    calls = []
    original = thermo.equal_distribution_gap

    def counted(state):
        calls.append(state.params.box.L)
        return original(state)

    monkeypatch.setattr(thermo, "equal_distribution_gap", counted)
    monkeypatch.setattr(cli, "equal_distribution_gap", counted)
    rc = run(["sweep", "--sigma", "-1", "--beta", "1", "--rho", "1",
              "--L-grid", "20:320:geometric:5", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert len(calls) == 5
    fits = json.loads((tmp_path / "s.csv.fit.json").read_text())
    assert "gap_decay_rate" in fits


def test_sweep_solves_each_wall_pair_once(tmp_path, monkeypatch):
    # a sweep reads the spectrum roots and the table's wall offsets only:
    # one wall-pair solve per state and no derived spectrum column
    import robinbec.spectrum as spectrum

    calls = {name: 0 for name in ("_wall_roots", "_wall_columns", "_ladder_columns")}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(spectrum, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spectrum, name, counted)
    rc = run(["sweep", "--sigma", "-1", "--beta", "1", "--rho", "1", "--model", "scf",
              "--lambda", "1", "--L-grid", "20:320:geometric:5", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "mu_asymptotics" in json.loads((tmp_path / "s.csv.fit.json").read_text())
    assert calls == {"_wall_roots": 5, "_wall_columns": 0, "_ladder_columns": 0}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--L", "3000", "--k-max", "3", "--sigma", "-1e-3"],
    ["oracle", "--check", "occupation-bound", "--sigma", "-1", "--L", "10",
     "--beta", "1", "--lambda", "1", "--mode", "2", "--mu", "-1.5e0"],
    ["thermo", "--sigma", "-1", "--L", "40", "--lambda", "-0e0"],
])
def test_negative_exponent_value_after_space(tmp_path, argv):
    # the last flag's value is negative, in exponent form, after a space
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    spaced, eq = tmp_path / "spaced.out", tmp_path / "eq.out"
    assert run(argv + ["--out", str(spaced)]) == 0
    assert run(joined + ["--out", str(eq)]) == 0
    assert spaced.read_bytes() == eq.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": -1.0, "L": 20.0, "k_max": 4}))
    out = tmp_path / "spec.csv"
    rc = run(["spectrum", "--config", str(cfg), "--k-max", "6", "--out", str(out)])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("k,")]
    assert len(rows) == 7  # flag overrides the file's k_max = 4


def test_validation_exit_code(tmp_path, capsys):
    rc = run(["spectrum", "--sigma", "1.0", "--L", "20",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sigma" in err
    # second bound state missing at L|sigma| <= 2 is also a validation error
    rc = run(["spectrum", "--sigma", "-1", "--L", "1.5", "--k-max", "3",
              "--out", str(tmp_path / "y.csv")])
    assert rc == 2


def test_missing_required_flag(tmp_path):
    rc = run(["spectrum", "--L", "20", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_mu_above_ground_state_is_validation_error(tmp_path):
    rc = run(["oracle", "--check", "occupation-bound", "--sigma", "-1", "--L", "10",
              "--beta", "1", "--mu", "0.5", "--lambda", "1", "--mode", "2",
              "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import robinbec.cli as cli
    from robinbec.spectrum import BracketFailure

    def boom(*args, **kwargs):
        raise BracketFailure("no sign change on [1.0, 2.0]")

    monkeypatch.setattr(cli, "build_spectrum", boom)
    rc = run(["spectrum", "--sigma", "-1", "--L", "20",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "no sign change on [1.0, 2.0]" in capsys.readouterr().err


def test_config_lambda_alias(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sigma": -1.0, "L": 10.0, "beta": 1.0, "mu": -1.5, "lambda": 1.0,
        "check": "occupation-bound", "mode": 2,
    }))
    out = tmp_path / "o.json"
    rc = run(["oracle", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["params"]["lambda"] == 1.0


def _assert_one_line_rejection(rc, capsys, *needles):
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err and err.count("\n") == 1
    for needle in needles:
        assert needle in err


def test_malformed_exchange_target_is_validation_error(tmp_path, capsys):
    rc = run(["oracle", "--check", "exchange", "--sigma", "-1", "--L", "10",
              "--beta", "1", "--mu", "-1.5", "--lambda", "1", "--target", "0",
              "--out", str(tmp_path / "o.json")])
    _assert_one_line_rejection(rc, capsys, "--target", "'0'")


def test_malformed_config_value_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": -1.0, "L": 40.0, "k_max": "abc"}))
    rc = run(["thermo", "--config", str(cfg), "--out", str(tmp_path / "t.json")])
    _assert_one_line_rejection(rc, capsys, "k_max", "'abc'")


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simga": -1.0, "sigma": -1.0, "L": 20.0}))
    rc = run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    _assert_one_line_rejection(rc, capsys, "simga", "spectrum")


@pytest.mark.parametrize("argv,needle", [
    (["sweep", "--sigma", "-1", "--L-grid", "a:800:geometric:5"], "L-grid"),
    (["thermo", "--sigma", "-1", "--L", "20", "--config", "missing.json"], "missing.json"),
])
def test_malformed_grid_or_config_file_is_validation_error(tmp_path, monkeypatch, capsys,
                                                           argv, needle):
    monkeypatch.chdir(tmp_path)
    rc = run(argv + ["--out", "out"])
    _assert_one_line_rejection(rc, capsys, needle)


@pytest.mark.parametrize("command", [
    ["thermo", "--L", "20"],
    ["profile", "--L", "20", "--grid-n", "101"],
    ["sweep", "--L-grid", "20:40:linear:3"],
])
@pytest.mark.parametrize("bad,needle", [
    (["--beta", "0"], "beta must be"),
    (["--beta=-1"], "beta must be"),
    (["--beta", "nan"], "beta must be"),
    (["--cutoff-tol", "0"], "cutoff_tol must be"),
])
def test_bad_thermo_input_rejected_before_cutoff(tmp_path, capsys, command, bad, needle):
    # the inputs are checked before the mode-sum cutoff is certified from them
    rc = run(command + ["--sigma", "-1"] + bad + ["--out", str(tmp_path / "o")])
    _assert_one_line_rejection(rc, capsys, needle)


@pytest.mark.parametrize("argv,bad", [
    (["spectrum", "--sigma", "-1", "--L", "20", "--out", "{missing}"], "{missing}"),
    (["oracle", "--sigma", "-1", "--L", "10", "--mu", "-1.5", "--out", "{tmp}"], "{tmp}"),
    (["sweep", "--sigma", "-1", "--L-grid", "20:40:linear:3", "--out", "{tmp}/s.csv",
      "--fit-out", "{missing}"], "{missing}"),
])
def test_unwritable_output_is_validation_error(tmp_path, capsys, argv, bad):
    paths = {"missing": str(tmp_path / "no-such-dir" / "x"), "tmp": str(tmp_path)}
    rc = run([a.format(**paths) for a in argv])
    _assert_one_line_rejection(rc, capsys, bad.format(**paths))


_HUGE_BETA = ["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--beta", "1e300",
              "--out", "{tmp}/o"]


@pytest.mark.parametrize("argv,needle", [
    (["profile", "--sigma", "-1", "--L", "20", "--fraction", "0", "--out", "{tmp}/fr.csv"],
     "fraction must be"),
    (["sweep", "--sigma", "-1", "--L-grid", "20:40:linear:3", "--out", "{tmp}/s.csv",
      "--fit-out", "{missing}"], "{missing}"),
    (["sweep", "--sigma", "-1", "--L-grid", "20:40:linear:3", "--out", "{missing}",
      "--fit-out", "{tmp}/f.json"], "{missing}"),
    # extreme finite inputs, rejected before anything is sized from them:
    # they overflowed in suggest_k_max or asked numpy for ~80 TB
    (["thermo", "--sigma=-1", "--L", "1e-300", "--out", "{tmp}/o"], "L*|sigma| > 2"),
    (["thermo", "--sigma=-1e300", "--L", "20", "--out", "{tmp}/o"], "sigma^2"),
    # (the ladder's k >= 2 roots; the continuum, unset --k-max, takes L up to the wall pair's limit)
    (["thermo", "--sigma=-1", "--L", "1e300", "--k-max", "2", "--out", "{tmp}/o"],
     "L*|sigma| <= 1e+15, got 1e+300"),
    (["thermo", "--sigma=-1", "--L", "20", "--beta", "1e-300", "--out", "{tmp}/o"],
     "needs k_max > 10000000"),
    (["spectrum", "--sigma=-1", "--L", "20", "--k-max", "10000000000000", "--out", "{tmp}/o"],
     "k_max must be an integer in [0, 10000000]"),
    (["oracle", "--sigma=-1", "--L", "20", "--mu=-2", "--k-top", "10000000000000",
      "--out", "{tmp}/o"], "k_max must be an integer in [0, 10000000]"),
    (["profile", "--sigma=-1", "--L", "20", "--grid-n", "10000000000000", "--out", "{tmp}/o"],
     "grid_n must be in [64, 10000000]"),
    (["sweep", "--sigma=-1", "--L-grid", "10:20:linear:10000000000000", "--out", "{tmp}/o"],
     "count <= 10000"),
    # huge or tiny beta: overflowed in the exchange prefactor, or in the cap
    # search before its cap limit
    (_HUGE_BETA + ["--check", "exchange", "--j", "1", "--target", "0:1"], "prefactor"),
    (_HUGE_BETA + ["--check", "exchange", "--j", "4", "--target", "2:1"], "prefactor"),
    (["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--beta", "1e-300", "--out", "{tmp}/o"],
     "(beta = 1e-300, mu = -1.5)"),
    # beta (eps_0 - mu) overflows: the wall-mode sum gave lhs = NaN at exit 0
    (["oracle", "--check", "wall-occupation", "--sigma=-1", "--L", "10", "--mu=-1e10",
      "--beta", "1e300", "--mode", "0", "--out", "{tmp}/o"], "overflows a float (beta = 1e+300"),
    # past the phase-form range of the k >= 2 roots (exited 1, "no sign change")
    (["thermo", "--sigma=-1e17", "--L", "1", "--out", "{tmp}/o"], "L*|sigma| <= 1e+15"),
    (["thermo", "--sigma=-1e20", "--L", "20", "--out", "{tmp}/o"], "L*|sigma| <= 1e+15"),
    (["spectrum", "--sigma=-1e17", "--L", "1", "--k-max", "3", "--out", "{tmp}/o"],
     "L*|sigma| <= 1e+15"),
    # every command that builds mode 1 needs L|sigma| > 2
    (["spectrum", "--sigma=-1", "--L", "1", "--k-max", "3", "--out", "{tmp}/o"],
     "odd bound state needs L*|sigma| > 2"),
    (["oracle", "--sigma=-1", "--L", "1.5", "--mu=-3", "--out", "{tmp}/o"],
     "odd bound state needs L*|sigma| > 2"),
    # past the range of the wall rows: residual = nan at exit 0, with an
    # overflow warning at L = 1.8e154
    (["spectrum", "--sigma=-1e154", "--L", "1e300", "--k-max", "1", "--out", "{tmp}/o"],
     "wall modes need L*|sigma| <= 1e+307, got inf"),
    (["spectrum", "--sigma=-1e154", "--L", "1e154", "--k-max", "1", "--out", "{tmp}/o"],
     "wall modes need L*|sigma| <= 1e+307, got 1e+308"),
    (["spectrum", "--sigma=-1", "--L", "1e308", "--k-max", "1", "--out", "{tmp}/o"],
     "wall modes need L*|sigma| <= 1e+307, got 1e+308"),
    (["spectrum", "--sigma=-1e154", "--L", "1.8e154", "--k-max", "1", "--out", "{tmp}/o"],
     "wall modes need L*|sigma| <= 1e+307, got inf"),
    # x = eps(0) - mu ~ 1/(beta rho L) underflows
    (["thermo", "--sigma=-1", "--L", "20", "--rho", "1e300", "--beta", "1e300", "--out", "{tmp}/o"],
     "eps(0) - mu ~ 1/(beta*rho*L) is below the smallest double"),
    # a grid of one repeated L: the fits of five identical points came out
    # at exit 0, with numpy rank warnings
    (["sweep", "--sigma=-1", "--L-grid", "100:100:linear:5", "--out", "{tmp}/s.csv"],
     "L-grid points must be distinct"),
    (["sweep", "--sigma=-1", "--L-grid", "100:100:geometric:2", "--out", "{tmp}/s.csv"],
     "L-grid points must be distinct"),
    # a fit report on the sweep CSV's own path: exit 0 with the CSV lost
    (["sweep", "--sigma=-1", "--L-grid", "50:100:geometric:5", "--out", "{tmp}/a.csv",
      "--fit-out", "{tmp}/./a.csv"], "names the --out file"),
    # beta (eps_2 - mu) ~ 2e-3: the wall caps fit, the k >= 2 window does not
    (["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--beta", "1e-3", "--out", "{tmp}/o"],
     "window needs more than 9961 particles over 5 modes to certify tol 1.0e-12 "
     "(beta = 0.001, mu = -1.5)"),
    # beta (eps_0 - mu) ~ 5e-321: the cap estimate overflowed with a RuntimeWarning
    (["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--beta", "1e-320", "--out", "{tmp}/o"],
     "mode 0 needs a cap above 5000000"),
    # L*|sigma| underflows: the bracket of q0 divided by zero (a traceback)
    (["spectrum", "--sigma=-1e-300", "--L=1e-300", "--k-max", "0", "--out", "{tmp}/o"],
     "L*|sigma| = 1e-300*1e-300 underflows to 0"),
    (["oracle", "--sigma=-1e-300", "--L=1e-300", "--mu=-3", "--k-top", "0", "--out", "{tmp}/o"],
     "L*|sigma| = 1e-300*1e-300 underflows to 0"),
    # p^2 + sigma^2 underflows in the phase slope: a divide-by-zero warning,
    # then exit 1 with a root outside its bracket
    (["spectrum", "--sigma=-5.167677704679182e-258", "--L=7.275517662052197e+267",
      "--k-max", "5", "--out", "{tmp}/o"],
     "modes k >= 2 need (pi/L)^2 + sigma^2 >= 2.22507e-308, got 0"),
    (["oracle", "--sigma=-7.979135192702125e-280", "--L=5.197053249311789e+292",
      "--mu=-0.06938635847253745", "--beta=23.07424396066628",
      "--lambda=1.1380518424042817e+223", "--k-top", "6", "--out", "{tmp}/o"],
     "modes k >= 2 need (pi/L)^2 + sigma^2 >= 2.22507e-308, got 0"),
    # the cutoff search started from L*sqrt(4/beta)/pi = inf (OverflowError),
    # and the tail divided by 1 - exp(-y) = 0 at beta = 1e-300 (ZeroDivisionError)
    (["thermo", "--sigma=-1", "--L=1.7e308", "--out", "{tmp}/o"],
     "wall modes need L*|sigma| <= 1e+307, got 1.7e+308"),
    (["thermo", "--sigma=-1", "--L=20", "--beta=1e-300", "--k-max=3", "--out", "{tmp}/o"],
     "certified k_max tail inf exceeds cutoff_tol"),
    # rho*L underflows to 0 (ZeroDivisionError), or 1/(rho*L) overflows (the
    # message blamed an x below the smallest double)
    (["thermo", "--sigma=-10", "--L=0.3", "--rho=5e-324", "--out", "{tmp}/o"],
     "rho*L = 0 is too small: 2/(rho*L) overflows a float"),
    (["thermo", "--sigma=-1", "--L=20", "--rho=5e-324", "--out", "{tmp}/o"],
     "rho*L = 9.88131e-323 is too small: 2/(rho*L) overflows a float"),
    # -2/(beta*rho_cond) underflows to -0: a ZeroDivisionError after the
    # sweep CSV was written, and no fit report
    (["sweep", "--sigma=-1", "--beta=1e308", "--rho=2", "--L-grid", "20:40:linear:5",
      "--out", "{tmp}/s.csv"], "the mu fit's reference -2/(beta*rho_cond) = -0 underflows"),
    # eps(0) <= -2|sigma|/L overflows: log(0.5*L) = log(0) after the CSV header
    (["spectrum", "--sigma=-1", "--L=5e-324", "--k-max", "0", "--out", "{tmp}/o"],
     "eps(0) <= -2|sigma|/L overflows a float"),
    # occ_0 phi_0^2 overflows at the walls: inf in 660 of 2001 rows at exit 0
    (["profile", "--sigma=-400", "--L=0.01", "--rho=1.7e308", "--out", "{tmp}/o"],
     "the density profile overflows a float near the walls"),
    # an exchange truncation is certified at tol / pref, e^697.9 here
    (["oracle", "--check", "exchange", "--sigma=-1.003005732233222", "--L=10.481102170507942",
      "--beta=93", "--mu=-1.0900658867759876", "--k-top", "79", "--j", "10", "--target", "4:2",
      "--out", "{tmp}/o"], "tol / pref = 1e-12 / 9.17957e+302 underflows a float"),
    # tol/3 underflows to 0: a math domain error in the cap estimate
    (["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--trunc-tol", "5e-324",
      "--out", "{tmp}/o"], "tol = 4.94066e-324 is too small: tol/3 underflows a float"),
])
def test_rejected_run_leaves_no_output(tmp_path, capsys, argv, needle):
    paths = {"missing": str(tmp_path / "no-such-dir" / "x"), "tmp": str(tmp_path)}
    rc = run([a.format(**paths) for a in argv])
    _assert_one_line_rejection(rc, capsys, needle.format(**paths))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # x = eps(0) - mu ~ 2/(beta L rho) is far below the spacing of doubles
    # near eps(0) at these points; a solve in mu or in nu = mu - lam*rho_tilde
    # cannot resolve it, one in x itself can (mu rounds onto eps(0) at
    # beta = 1e300 and at sigma = -1e15)
    ["--sigma=-1", "--L", "20", "--beta", "1e8"],
    ["--sigma=-1", "--L", "20", "--beta", "316227.7660168379"],
    ["--sigma=-1", "--L", "200", "--beta", "31622.776601683792"],
    ["--sigma=-0.5", "--L", "50", "--rho", "2", "--beta", "1e5"],
    ["--sigma=-0.5", "--L", "50", "--rho", "2", "--beta", "177827.94100389228"],
    ["--sigma=-1", "--L", "20", "--rho", "0.2", "--beta", "562341.3251903491"],
    ["--sigma=-1", "--L", "20", "--beta", "1e14"],
    ["--sigma=-1", "--L", "20", "--beta", "1e300"],
    ["--sigma=-1e15", "--L", "1"],
    ["--sigma=-1", "--L", "800", "--rho", "1e300"],
    # default cutoffs that failed the certificate solve_mu took at eps(0),
    # above the level suggest_k_max had certified them at
    ["--sigma=-0.19257894301031425", "--L=10.385428016585738", "--beta=20.56563665862788"],
    ["--sigma=-4.1205447190168085", "--L=0.5321989074440958", "--beta=0.062001604993144395"],
])
def test_density_equation_solved_below_double_spacing_at_eps0(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    assert run(["thermo"] + argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text())
    assert rep["mu"] <= rep["eps0"]
    assert abs(rep["rho_tilde"] + rep["rho_cond_finite"] - rep["rho"]) <= 1e-10 * rep["rho"]


@pytest.mark.parametrize("sigma,L", [
    ("-1", "1e307"), ("-1e154", "1e153"),
    # the bracket end |sigma|*coth(L*|sigma|/2) ~ 2/L of q0 squared to
    # bracket_lo = -inf; one mode, as L*|sigma| < 2
    ("-1", "1e-160"), ("-1e-160", "1e-160"), ("-1", "1e-300"),
])
def test_wall_rows_at_the_limit_are_finite(tmp_path, sigma, L):
    k_max = 1 if float(L) * -float(sigma) > 2.0 else 0
    out = tmp_path / "o.csv"
    assert run(["spectrum", f"--sigma={sigma}", "--L", L, "--k-max", str(k_max),
                "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")[2:]] for line in out.read_text().splitlines()
            if line[:1].isdigit()]
    assert len(rows) == k_max + 1
    assert all(math.isfinite(v) for row in rows for v in row)
    for eps, _, _, lo, hi in rows:
        assert 1.000001 * eps <= lo <= eps <= hi  # an informative bracket


@pytest.mark.parametrize("argv", [
    # closed forms 1/(e^c - 1) overflowed in expm1; the moment rhs took log(0)
    _HUGE_BETA + ["--check", "wall-occupation", "--mode", "0"],
    _HUGE_BETA + ["--check", "occupation-bound", "--mode", "3"],
    _HUGE_BETA + ["--check", "moment-inequality", "--mode", "3", "--power", "1"],
    # (m + 1) log x and t (window + 2) overflowed, a RuntimeWarning each
    ["oracle", "--sigma=-1", "--L=10", "--beta=1", "--mu=-1.7e308", "--k-top", "1",
     "--check", "wall-occupation", "--mode", "0", "--out", "{tmp}/o"],
    ["oracle", "--sigma=-0.04127034880800683", "--L=866.1551265434781", "--beta=1.7e+308",
     "--mu=-0.23808861513076054", "--k-top", "3", "--check", "wall-occupation", "--mode", "0",
     "--out", "{tmp}/o"],
])
def test_huge_beta_gives_a_finite_report(tmp_path, capsys, argv):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((tmp_path / "o").read_text())
    assert rep["pass"] is True
    assert all(math.isfinite(rep[key]) for key in ("lhs", "rhs", "residual", "tail_budget"))


def test_localization_radius_of_a_huge_condensate(tmp_path, capsys):
    # the trapezoid sums of n_cond ~ 1e307 overflowed (a RuntimeWarning, so
    # a traceback here); scaled by a power of two they give the radius of
    # the same box at rho = 1e300, whose sums fit
    radii = []
    for rho in ("1e305", "1e300"):
        assert run(["profile", "--sigma=-0.5", "--L=800", f"--rho={rho}", "--fraction", "0.5",
                    "--grid-n", "64", "--out", str(tmp_path / "p.csv")]) == 0
        radii.append(capsys.readouterr().out.split("localization_radius(0.5)=")[1].strip())
    assert radii[0] == radii[1] and math.isfinite(float(radii[0]))


def test_overflowing_coupling_weight_gives_a_finite_report(tmp_path, capsys):
    # lam n^2 overflows at lam = 1e308 (an overflow warning); the weight
    # e^{-inf} of every n > 0 is 0, so both sides are exactly 0
    out = tmp_path / "o"
    assert run(["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--lambda", "1e308",
                "--check", "moment-inequality", "--mode", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text())
    assert rep["pass"] is True and rep["lhs"] == rep["rhs"] == 0.0
    assert math.isfinite(rep["tail_budget"])


@pytest.mark.parametrize("sigma,L,beta", [("-1", "20", "1"), ("-1", "800", "1"),
                                          ("-0.5", "50", "3")])
@pytest.mark.parametrize("lam", ["1e29", "1e300"])
def test_extreme_coupling_is_solved_or_rejected(tmp_path, sigma, L, beta, lam):
    # lam*rho_tilde enters only as the explicit shift of the k >= 2 levels;
    # at lam = 1e300 the root's rho_tilde is below the rounding of
    # rho - (occ_0 + occ_1)/L and the solve returns the closer bracket end
    out = tmp_path / "o.json"
    rc = run(["thermo", f"--sigma={sigma}", "--L", L, "--beta", beta, "--lambda", lam,
              "--model", "scf", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert all(math.isfinite(v) for v in rep.values() if isinstance(v, float))
    assert rep["mu"] < rep["eps0"]
    assert abs(rep["rho_tilde"] + rep["rho_cond_finite"] - rep["rho"]) <= 1e-10 * rep["rho"]


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, robinbec.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["thermo", "--sigma=-1", "--L", "20", "--out", "{missing}"],
    ["profile", "--sigma=-1", "--L", "20", "--out", "{missing}"],
    ["sweep", "--sigma=-1", "--L-grid", "20:40:linear:3", "--out", "{missing}",
     "--fit-out", "{tmp}/f.json"],
    ["sweep", "--sigma=-1", "--L-grid", "20:40:linear:3", "--out", "{tmp}/s.csv",
     "--fit-out", "{missing}"],
    # a spectrum or an oracle table of up to 10^7 modes was built first
    ["spectrum", "--sigma=-1", "--L", "20", "--k-max", "10000000", "--out", "{missing}"],
    ["oracle", "--sigma=-1", "--L", "10", "--mu=-1.5", "--out", "{missing}"],
])
def test_unwritable_output_is_rejected_before_solving(tmp_path, capsys, monkeypatch, argv):
    # a large sweep used to solve every L-grid point before it learned this
    calls = []
    monkeypatch.setattr(cli, "solve_mu", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "build_spectrum", lambda *a, **k: calls.append(a))
    paths = {"missing": str(tmp_path / "no-such-dir" / "x"), "tmp": str(tmp_path)}
    rc = run([a.format(**paths) for a in argv])
    _assert_one_line_rejection(rc, capsys, "cannot write output file", paths["missing"])
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_writability_check_keeps_an_existing_file(tmp_path):
    kept = tmp_path / "f.json"
    kept.write_text("old\n")
    cli._check_writable(str(kept))
    assert kept.read_text() == "old\n"


@pytest.mark.parametrize("argv,needle", [
    # an exact wall-pair identity whose N_1^8 factor the cubic tail envelope
    # does not cover: it reported pass = false (residual 4.8e-7, allowance 2.1e-8)
    (["oracle", "--check", "exchange", "--sigma=-1", "--L", "10", "--mu=-2",
      "--lambda", "0.5", "--k-top", "8", "--j", "0", "--target", "1:8"], "target powers"),
    (["oracle", "--check", "moment-inequality", "--sigma", "-1", "--L", "10",
      "--mu", "-1.5", "--mode", "3", "--power", "3"], "moment power"),
    # N_2 (N_3 + 1)^2 N_4^2 has total k >= 2 degree 5, above the window's 4
    (["oracle", "--check", "exchange", "--sigma", "-1", "--L", "10", "--mu", "-1.5",
      "--j", "2", "--target", "3:2", "--target", "4:2"], "certifies degree 4 at most"),
])
def test_oracle_power_beyond_certified_degree_is_validation_error(tmp_path, capsys, argv,
                                                                  needle):
    rc = run(argv + ["--out", str(tmp_path / "o.json")])
    _assert_one_line_rejection(rc, capsys, needle)


def _sample(param):
    """A value of one schema parameter: (flag arguments, config value, merged value)."""
    if param.repeat:
        return ["2:3", "4:1"], ["2:3", "4:1"], ["2:3", "4:1"]
    if param.choices is not None:
        return [param.choices[-1]], param.choices[-1], param.choices[-1]
    value = {float: 0.375, int: 7, str: "x:y"}[param.kind]
    return [str(value)], value, value


@pytest.mark.parametrize("command,name", [
    (command, name) for command, spec in cli._SCHEMA.items()
    for name in spec.params if name != "config"
])
def test_config_value_merges_like_its_flag(tmp_path, command, name):
    params = cli._SCHEMA[command].params
    param = params[name]
    flag = cli._flag(name, param)
    base = []
    for other, p in params.items():
        if p.required and other != name:
            base += [cli._flag(other, p), "2.5" if p.kind is float else "1:2:linear:2"]
    values, cfg_value, merged = _sample(param)

    def merge(argv):
        return cli._merge_config(cli._parser().parse_args(argv))

    from_flags = merge([command] + base + [a for v in values for a in (flag, v)])
    assert from_flags[name] == merged
    for key in {name, flag[2:]}:  # e.g. k_max and k-max, lam and lambda
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: cfg_value}))
        assert merge([command, "--config", str(cfg)] + base) == from_flags


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    argv = ["oracle", "--check", "exchange", "--sigma", "-1", "--L", "10", "--mu", "-1.5",
            "--j", "2", "--target", "3:2", "--target", "4:1", "--k-top", "6"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--out", str(a)]) == 0

    def no_new_parser(*args, **kwargs):
        raise AssertionError("the parser is built again")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_new_parser)
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["params"]["targets"] == [[3, 2], [4, 1]]


def _flag_table_rows():
    """One README table row per flag: the subcommands that take it, grouped
    by their default."""
    uses = {}
    for command, spec in cli._SCHEMA.items():
        for name, param in spec.params.items():
            if param.required:
                default = "**required**"
            elif param.default is None:
                default = "unset"
            else:
                values = param.default if param.repeat else [param.default]
                default = "`" + ", ".join(map(str, values)) + "`"
            uses.setdefault(cli._flag(name, param), {}).setdefault(default, []).append(command)
    rows = []
    for flag, by_default in uses.items():
        cell = "; ".join(f"{', '.join(cmds)}: {d}" for d, cmds in by_default.items())
        rows.append(f"| `{flag}` | {cell} |")
    return rows


def test_readme_flag_table_matches_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    table = [line for line in readme if line.startswith("| `--")]
    assert table == _flag_table_rows()


def _readme_cli_examples():
    """The robinbec commands of the README "CLI examples" block, as argv lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = shlex.split(block.replace("\\\n", " "), comments=True)
    starts = [i for i, word in enumerate(commands) if word == "robinbec"] + [len(commands)]
    return [commands[a + 1:b] for a, b in zip(starts, starts[1:])]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = _readme_cli_examples()
    assert [argv[0] for argv in examples] == ["spectrum", "oracle", "thermo", "profile", "sweep"]
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert run(argv) == 0, argv
        assert capsys.readouterr().err == ""
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()
