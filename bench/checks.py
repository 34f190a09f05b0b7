"""Correctness checks on the files one robinbec op wrote.

Each check returns None when the output holds, or a one-line reason.  The
checks only read files, so they run outside the timed region.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from workloads import MIN_POINTS_PER_WAVELENGTH

_ULP = 2.0 ** -52
# The density equation is solved to |total - rho| <= 1e-10 rho, where
# total sums the occupations.  The rho_tilde column is the SCF fixed point,
# bisected to a bracket of width 1e-12 max(1, rho_tilde); it differs from
# the excited occupations it sets by at most that width times the slope
# of the fixed-point map (scf_slope_bound).
SWEEP_REL_TOL = 1e-10
SCF_FIXED_POINT_TOL = 1e-12


def _read_csv(path):
    """(echo dict from '# key = value' lines, column names, float rows)."""
    echo = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        m = re.match(r"# (\w+) = (.*)$", lines[i])
        if m:
            echo[m.group(1)] = m.group(2)
        i += 1
    cols = lines[i].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[i + 1:]], ndmin=2)
    if rows.shape[1] != len(cols):
        raise ValueError("row width does not match the header")
    return echo, cols, rows


def scf_slope_bound(beta, sigma, lam, rho_tilde):
    """Bound on |d/drt (excited(rt) - rt)| = 1 + lam beta (1/L) sum n_k (n_k + 1)
    over the excited modes.  Every excited level lies more than sigma^2
    above mu - lam rt (eps_k > 0 for k >= 2, mu < eps(0) <= -sigma^2), so
    n_k <= 1/expm1(beta sigma^2), and (1/L) sum n_k is rho_tilde."""
    return 1.0 + lam * beta * rho_tilde * (1.0 + 1.0 / math.expm1(beta * sigma * sigma))


def check_sweep(op, out_path, stdout):
    p = op["params"]
    echo, cols, rows = _read_csv(out_path)
    c = {name: rows[:, i] for i, name in enumerate(cols)}
    start, stop, _, count = p["L_grid"].split(":")
    expect_L = np.geomspace(float(start), float(stop), int(count))
    if len(rows) != len(expect_L) or np.any(np.abs(c["L"] / expect_L - 1.0) > 1e-12):
        return "sweep rows do not match the requested L-grid"
    rho = p["rho"]
    terms = np.stack([c["occ0_per_L"], c["occ1_per_L"], c["rho_tilde"]])
    resid = np.abs(terms.sum(axis=0) - rho)
    rt = c["rho_tilde"]
    slope = scf_slope_bound(p["beta"], p["sigma"], p["lam"], rt)
    tol = (SWEEP_REL_TOL * rho + SCF_FIXED_POINT_TOL * np.maximum(1.0, rt) * slope
           + 8 * _ULP * np.abs(terms).sum(axis=0))
    if np.any(resid > tol):
        i = int(np.argmax(resid / tol))
        return f"density residual {resid[i]:.3e} above {tol[i]:.3e} at L={c['L'][i]}"
    if not (np.all(c["mu"] < c["eps0"]) and np.all(c["eps0"] <= c["eps1"])):
        return "sweep row violates mu < eps0 <= eps1"
    with open(out_path + ".fit.json") as fh:
        fit = json.load(fh)
    if fit.get("n_states") != len(rows) or "mu_asymptotics" not in fit:
        return "fit report lacks n_states or the mu asymptotics fit"
    return None


def check_oracle(op, out_path, stdout):
    with open(out_path) as fh:
        report = json.load(fh)
    if report.get("check") != op["params"]["check"]:
        return f"report is for check {report.get('check')!r}"
    if report.get("pass") is not True:
        return f"oracle check {report.get('check')} did not pass: {report.get('residual')}"
    return None


def profile_mass_tol(sigma, L, grid_n):
    """Relative trapezoid tolerance on the profile mass.  The leading error
    is the wall layer n_cond ~ e^{2|sigma| d}: (h^2/12)(2 sigma)^2 =
    sigma^2 h^2 / 3; the tolerance allows three times that."""
    h = L / (grid_n - 1)
    return sigma * sigma * h * h + 1e-8


def check_profile(op, out_path, stdout):
    p = op["params"]
    echo, cols, rows = _read_csv(out_path)
    x, n_total, n_cond, n_thermal = (rows[:, i] for i in range(4))
    if cols != ["x", "n_total", "n_cond", "n_thermal"] or len(x) != p["grid_n"]:
        return "profile header or row count is wrong"
    k_max = int(echo["k_max"])
    per_wave = 2.0 * (p["grid_n"] - 1) / k_max
    if per_wave < MIN_POINTS_PER_WAVELENGTH:
        return f"grid has {per_wave:.1f} < {MIN_POINTS_PER_WAVELENGTH} points per top-mode wavelength"
    if np.any(np.abs(n_total - (n_cond + n_thermal)) > 2 * _ULP * np.abs(n_total)):
        return "n_total != n_cond + n_thermal"
    if np.any(x != -x[::-1]):
        return "grid is not mirror-symmetric"
    for comp in (n_total, n_cond, n_thermal):
        if np.any(np.abs(comp - comp[::-1]) > 4 * _ULP * np.abs(comp).max()):
            return "profile is not mirror-symmetric"
    mass = float(np.trapezoid(n_total, x) if hasattr(np, "trapezoid") else np.trapz(n_total, x))
    rel = abs(mass / (p["rho"] * p["L"]) - 1.0)
    tol = profile_mass_tol(p["sigma"], p["L"], p["grid_n"])
    if not rel <= tol:
        return f"profile mass off by {rel:.3e} (tolerance {tol:.3e})"
    m = re.search(r"localization_radius\([^)]*\)=(\S+)", stdout)
    if m is None or not (0.0 < float(m.group(1)) <= 0.5 * p["L"]):
        return "localization radius missing or outside (0, L/2]"
    return None


CHECKS = {"sweep": check_sweep, "oracle": check_oracle, "profile": check_profile}
OUT_NAME = {"sweep": "out.csv", "oracle": "out.json", "profile": "out.csv"}


def output_files(op, out_path):
    """Every file the op writes, in a fixed order."""
    return [out_path, out_path + ".fit.json"] if op["kind"] == "sweep" else [out_path]


def check_op(op, out_path, stdout):
    """None if the op's output holds, else a one-line reason."""
    try:
        return CHECKS[op["kind"]](op, out_path, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
