"""Command-line front end.

Subcommands
-----------
spectrum   solve modes 0..k_max and write the spectrum CSV
oracle     run one equilibrium check and write its JSON report
thermo     solve the density equation at one (sigma, L, beta, rho, lam)
profile    solve, then write the spatial density CSV
sweep      solve over an L-grid; write the sweep CSV and a JSON fit report

CSV files and stdout write numbers with 17 significant digits, and each
CSV starts with a '#' comment header echoing the full parameter set and
the tool version.  The JSON reports write floats in Python's shortest
round-trip repr (the same double: the thermo JSON's mu -0.05803276636399012
is stdout's mu=-0.058032766363990122) and carry the version in a "tool"
key.  Identical configurations produce byte-identical files.  `_SCHEMA` holds
every parameter of every subcommand once; the argparse tree, the
defaults, the config-file checks and the negative-value join read it.
`--config FILE` loads a JSON object whose keys mirror the flags of the
subcommand one-to-one; explicit flags override the file.  Config values
are converted and checked like the flags, and a key that is not a flag
of the subcommand is rejected.  Exit status: 0 ok, 2 validation error or
unwritable output file (one-line diagnostic), 1 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import NumericalFailure, ValidationError
from .gibbs_oracle import CHECK_ARGUMENTS, CHECK_NAMES, ModelParams, run_check, truncation_for_check
from .profile import density_profile, localization_radius, profile_input, write_profile_csv
from .spectrum import BoxParams, build_spectrum, write_spectrum_csv
from .thermo import (
    FREE, MEAN_FIELD_SCF, ThermoInput, critical_density, equal_distribution_gap,
    fit_exponential_rate, mu_asymptotics_check, solve_mu, write_sweep_csv,
)

_MODEL_ALIASES = {"free": FREE, "scf": MEAN_FIELD_SCF, "mean_field_scf": MEAN_FIELD_SCF}
# a sweep solves every point and keeps each state (its occupations and its
# table's energies and wavenumbers, 24 bytes per mode) for the fits
_MAX_SWEEP_POINTS = 10_000


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _echo_lines(command: str, params: dict) -> list[str]:
    lines = [f"robinbec {__version__}", f"command: {command}"]
    lines += [f"{k} = {_fmt(v)}" for k, v in sorted(params.items())]
    return lines


def _parse_l_grid(text: str) -> list[float]:
    """'start:stop:kind:count' with kind in {geometric, linear}, of count
    distinct points: the sweep fits need at least two distinct L."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError(
            f"L-grid must be start:stop:kind:count, got {text!r}"
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
        kind, count = parts[2], int(parts[3])
    except ValueError:
        raise ValidationError(
            f"L-grid bounds must be numbers and count an integer, got {text!r}"
        ) from None
    if not (0.0 < start <= stop) or not 1 <= count <= _MAX_SWEEP_POINTS:
        raise ValidationError(
            f"L-grid needs 0 < start <= stop and 1 <= count <= {_MAX_SWEEP_POINTS}, got {text!r}"
        )
    if kind not in ("geometric", "linear"):
        raise ValidationError(f"L-grid kind must be geometric or linear, got {kind!r}")
    grid = (np.geomspace if kind == "geometric" else np.linspace)(start, stop, count)
    if len(set(grid.tolist())) < count:
        raise ValidationError(
            f"L-grid points must be distinct (start < stop when count > 1), got {text!r}"
        )
    return [float(v) for v in grid]


def _write_json(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"  # one write, not one per chunk
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _thermo_input(cfg: dict, L: float) -> ThermoInput:
    return ThermoInput(
        box=BoxParams(sigma=cfg["sigma"], L=L), beta=cfg["beta"], rho=cfg["rho"],
        lam=cfg["lam"], k_max=cfg["k_max"], cutoff_tol=cfg["cutoff_tol"],
    )


def _thermo_point(cfg: dict, L: float):
    return solve_mu(_thermo_input(cfg, L), model=_MODEL_ALIASES[cfg["model"]])


def _state_summary(state) -> dict:
    box = state.params.box
    return {
        "model": state.model_tag,
        "sigma": box.sigma,
        "L": box.L,
        "beta": state.params.beta,
        "rho": state.params.rho,
        "lambda": state.params.lam,
        "k_max": state.spectrum.k_max,
        "mu": state.mu,
        "eps0": float(state.epsilons[0]),
        "eps1": float(state.epsilons[1]),
        "occ0": float(state.occ[0]),
        "occ1": float(state.occ[1]),
        "rho_tilde": state.rho_tilde,
        "rho_cond_finite": state.rho_cond_finite,
        "gap": equal_distribution_gap(state),
        "critical_density": critical_density(state.params.beta, box.sigma),
    }


def _write(writer, data, path, *rest):
    """Run one file writer; a path that cannot be written is a validation error."""
    try:
        return writer(data, path, *rest)
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path!r}: {exc.strerror}") from None


def _check_writable(path) -> None:
    """Fail now, as `_write` would later, if `path` cannot be opened for
    writing.  Leaves an existing file as it was and creates none."""
    existed = os.path.lexists(path)
    _write(lambda _, p: open(p, "a").close(), None, path)
    if not existed:
        os.remove(path)


def _cmd_spectrum(cfg: dict) -> int:
    _check_writable(cfg["out"])
    box = BoxParams(sigma=cfg["sigma"], L=cfg["L"])
    table = build_spectrum(box, cfg["k_max"])
    echo = {k: cfg[k] for k in ("sigma", "L", "k_max")}
    _write(write_spectrum_csv, table, cfg["out"], _echo_lines("spectrum", echo))
    print(f"wrote {cfg['out']} ({table.k_max + 1} modes)")
    return 0


def _parse_target(item) -> tuple[int, int]:
    """'K:N' -> (K, N)."""
    try:
        k_str, n_str = str(item).split(":")
        return int(k_str), int(n_str)
    except ValueError:
        raise ValidationError(f"--target must be K:N with integers K and N, got {item!r}") from None


def _cmd_oracle(cfg: dict) -> int:
    _check_writable(cfg["out"])
    box = BoxParams(sigma=cfg["sigma"], L=cfg["L"])
    model = ModelParams(box=box, beta=cfg["beta"], mu=cfg["mu"], lam=cfg["lam"])
    table = build_spectrum(box, cfg["k_top"])
    name = cfg["check"]
    given = {"j": cfg["j"], "targets": cfg["target"], "k": cfg["mode"], "n": cfg["power"]}
    kwargs = {arg: given[arg] for arg in CHECK_ARGUMENTS[name]}
    if "targets" in kwargs:  # parsed only for the check that takes them
        kwargs["targets"] = [_parse_target(item) for item in kwargs["targets"]]
    spec = truncation_for_check(name, table, model, cfg["trunc_tol"], **kwargs)
    report = run_check(name, spec, **kwargs)
    report["tool"] = f"robinbec {__version__}"
    _write(_write_json, report, cfg["out"])
    print(f"wrote {cfg['out']} (check={name} pass={report['pass']})")
    return 0


def _cmd_thermo(cfg: dict) -> int:
    _check_writable(cfg["out"])
    state = _thermo_point(cfg, cfg["L"])
    payload = _state_summary(state)
    payload["tool"] = f"robinbec {__version__}"
    _write(_write_json, payload, cfg["out"])
    print(f"wrote {cfg['out']} (mu={state.mu:.17g})")
    return 0


def _cmd_profile(cfg: dict) -> int:
    _check_writable(cfg["out"])
    inp = profile_input(_thermo_input(cfg, cfg["L"]))
    state = solve_mu(inp, model=_MODEL_ALIASES[cfg["model"]])
    prof = density_profile(state.spectrum, state, cfg["grid_n"])
    msg = f"wrote {cfg['out']} ({len(prof.grid)} points)"
    if cfg["fraction"] is not None:  # before the write: a rejected run leaves no file
        d = localization_radius(prof, cfg["fraction"])
        msg += f" localization_radius({cfg['fraction']})={d:.17g}"
    echo = {k: cfg[k] for k in ("sigma", "L", "beta", "rho", "model", "grid_n")}
    echo["lambda"] = cfg["lam"]
    echo["k_max"] = state.spectrum.k_max
    _write(write_profile_csv, prof, cfg["out"], _echo_lines("profile", echo))
    print(msg)
    return 0


def _cmd_sweep(cfg: dict) -> int:
    grid = _parse_l_grid(cfg["L_grid"])
    fit_out = cfg["fit_out"] or cfg["out"] + ".fit.json"
    if os.path.realpath(fit_out) == os.path.realpath(cfg["out"]):
        raise ValidationError(f"--fit-out {fit_out!r} names the --out file {cfg['out']!r}; "
                              "the fit report would overwrite the sweep CSV")
    _check_writable(cfg["out"])
    _check_writable(fit_out)
    states = [_thermo_point(cfg, L) for L in grid]
    fits: dict = {"tool": f"robinbec {__version__}", "n_states": len(states)}
    rho_c = critical_density(cfg["beta"], cfg["sigma"])
    fits["critical_density"] = rho_c
    if len(states) >= 5 and cfg["rho"] > rho_c:  # may reject the sweep, so before any write
        fits["mu_asymptotics"] = mu_asymptotics_check(states).as_dict()

    # the gap fit takes the CSV's gap column, so the CSV is written first
    echo = {k: cfg[k] for k in ("sigma", "beta", "rho", "model", "L_grid")}
    echo["lambda"] = cfg["lam"]
    gaps = _write(write_sweep_csv, states, cfg["out"], _echo_lines("sweep", echo))
    if sum(1 for g in gaps if g > 0.0) >= 3:
        fits["gap_decay_rate"] = fit_exponential_rate(grid, gaps)
    _write(_write_json, fits, fit_out)
    print(f"wrote {cfg['out']} and {fit_out}")
    return 0


@dataclass(frozen=True)
class _Param:
    """One flag of one subcommand, and its config key.  A `repeat` flag may
    be given several times and collects a list; `flag` is needed only where
    it is not '--' plus the name with '-' for '_'."""

    kind: type = str
    default: object = None
    help: str | None = None
    required: bool = False
    choices: tuple | None = None
    metavar: str | None = None
    flag: str | None = None
    repeat: bool = False


def _flag(name: str, param: _Param) -> str:
    return param.flag or "--" + name.replace("_", "-")


_CONFIG = _Param(help="JSON config file; flags override")
_SIGMA = _Param(float, required=True, help="wall coupling, < 0")
_L = _Param(float, required=True)
_OUT = "output file path"

# the parameters thermo, profile and sweep share, after config, sigma and out
_THERMO = {
    "beta": _Param(float, 1.0),
    "rho": _Param(float, 1.0),
    "lam": _Param(float, 0.0, flag="--lambda"),
    "model": _Param(str, "free", choices=tuple(sorted(_MODEL_ALIASES))),
    "k_max": _Param(int, help="mode cutoff: sum modes 0..k_max one by one, whose certified "
                    "tail must be at most --cutoff-tol; default auto-certified"),
    "cutoff_tol": _Param(float, 1e-10),
}


class _Command(NamedTuple):
    summary: str
    run: Callable[[dict], int]
    params: dict[str, _Param]  # in --help order


_SCHEMA = {
    "spectrum": _Command("solve modes 0..k_max, write CSV", _cmd_spectrum, {
        "config": _CONFIG, "sigma": _SIGMA, "out": _Param(str, "spectrum.csv", _OUT),
        "L": _L,
        "k_max": _Param(int, 10),
    }),
    "oracle": _Command("run one equilibrium check, write JSON", _cmd_oracle, {
        "config": _CONFIG, "sigma": _SIGMA, "out": _Param(str, "oracle.json", _OUT),
        "L": _L,
        "check": _Param(str, "occupation-bound", choices=CHECK_NAMES),
        "beta": _Param(float, 1.0),
        "mu": _Param(float, required=True),
        "lam": _Param(float, 1.0, flag="--lambda"),
        "k_top": _Param(int, 6, "highest mode in the truncation (default 6)"),
        "trunc_tol": _Param(float, 1e-12, "target truncation tail (default 1e-12)"),
        "mode": _Param(int, 2, "mode k for the check"),
        "power": _Param(int, 0, "moment power n"),
        "j": _Param(int, 1, "source mode for exchange"),
        "target": _Param(str, ("0:1",), "exchange target mode:power; repeatable, "
                         "first needs N >= 1", metavar="K:N", repeat=True),
    }),
    "thermo": _Command("solve the density equation at one point", _cmd_thermo, {
        "config": _CONFIG, "sigma": _SIGMA, "out": _Param(str, "thermo.json", _OUT),
        **_THERMO,
        "L": _L,
    }),
    "profile": _Command("solve, then write the density profile CSV", _cmd_profile, {
        "config": _CONFIG, "sigma": _SIGMA, "out": _Param(str, "profile.csv", _OUT),
        **_THERMO,
        "L": _L,
        "grid_n": _Param(int, 2001),
        "fraction": _Param(float, help="report the localization radius at this mass fraction"),
    }),
    "sweep": _Command("solve over an L-grid, write CSV + fit JSON", _cmd_sweep, {
        "config": _CONFIG, "sigma": _SIGMA, "out": _Param(str, "sweep.csv", _OUT),
        **_THERMO,
        "L_grid": _Param(required=True, metavar="A:B:KIND:N"),
        "fit_out": _Param(help="JSON fit-report path (default: <out>.fit.json)"),
    }),
}

_FLOAT_FLAGS = frozenset(
    _flag(name, param) for command in _SCHEMA.values()
    for name, param in command.params.items() if param.kind is float
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree of `_SCHEMA`, built once per process.  Every flag
    defaults to None, so `_merge_config` sees which ones were given."""
    ap = argparse.ArgumentParser(
        prog="robinbec",
        description="Bose gas in a 1D box with attractive walls: spectrum, "
        "equilibrium checks, condensation thermodynamics, density profiles.",
    )
    ap.add_argument("--version", action="version", version=f"robinbec {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, spec in _SCHEMA.items():
        p = sub.add_parser(command, help=spec.summary)
        for name, param in spec.params.items():
            p.add_argument(
                _flag(name, param), dest=name, type=param.kind, choices=param.choices,
                action="append" if param.repeat else "store",
                help=param.help, metavar=param.metavar,
            )
    return ap


def _config_value(key: str, val, param: _Param):
    """A config value converted and checked as its flag would be."""
    if param.repeat:
        items = val if isinstance(val, list) else [val]
        return [_config_value(key, v, replace(param, repeat=False)) for v in items]
    bad = ValidationError(f"config key {key!r}: invalid {param.kind.__name__} value {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise bad
    try:
        val = param.kind(str(val))
    except ValueError:
        raise bad from None
    if param.choices is not None and val not in param.choices:
        raise ValidationError(
            f"config key {key!r} must be one of {sorted(param.choices)}, got {val!r}"
        )
    return val


def _config_name(params: dict, key: str) -> str | None:
    """The parameter a config key names: its name or its flag, '-' or '_'."""
    key = key.replace("-", "_")
    names = (n for n, p in params.items() if key in (n, _flag(n, p)[2:].replace("-", "_")))
    return next(names, None)


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    params = _SCHEMA[args.command].params
    cfg = {name: param.default for name, param in params.items() if name != "config"}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read config file {args.config!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, val in loaded.items():
            if key in ("command", "config"):
                continue
            name = _config_name(params, key)
            if name is None:
                raise ValidationError(f"unknown config key {key!r}: not a flag of {args.command}")
            if val is not None:  # null leaves the default in place
                cfg[name] = _config_value(name, val, params[name])
    for name, val in vars(args).items():
        if name in cfg and val is not None:
            cfg[name] = val
    for name, param in params.items():
        if param.required and cfg[name] is None:
            raise ValidationError(f"missing required parameter {_flag(name, param)}")
    return cfg


def _join_negative_values(argv: list[str]) -> list[str]:
    """'--sigma -1e-3' -> '--sigma=-1e-3' for every float flag.

    argparse (3.10 to 3.13.0 checked) reads a token that starts with '-'
    as an option unless it is a plain negative number like -1 or -0.5, so
    an exponent form such as -1e-3 after a space was rejected.  The joined
    form parses the same under every version, including those whose
    argparse accepts the spaced form.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _FLOAT_FLAGS and tok.startswith("-") and _is_float(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_join_negative_values(argv))
    try:
        cfg = _merge_config(args)
        return _SCHEMA[args.command].run(cfg)
    except ValidationError as exc:
        print(f"robinbec: validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"robinbec: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
