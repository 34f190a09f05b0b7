"""Command-line front end.

Subcommands
-----------
spectrum   solve modes 0..k_max and write the spectrum CSV
oracle     run one equilibrium check and write its JSON report
thermo     solve the density equation at one (sigma, L, beta, rho, lam)
profile    solve, then write the spatial density CSV
sweep      solve over an L-grid; write the sweep CSV and a JSON fit report

All numeric output uses 17 significant digits and files carry a '#'
comment header echoing the full parameter set and the tool version, so
identical configurations produce byte-identical files.  `--config FILE`
loads a JSON object whose keys mirror the flags of the subcommand
one-to-one; explicit flags override the file.  Config values are
converted and checked like the flags, and a key that is not a flag of
the subcommand is rejected.  Exit status: 0 ok, 2 validation error
(one-line diagnostic), 1 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import NumericalFailure, ValidationError
from .gibbs_oracle import (
    CHECK_NAMES,
    ModelParams,
    make_truncation,
    run_check,
)
from .profile import density_profile, localization_radius, write_profile_csv
from .spectrum import BoxParams, build_spectrum, write_spectrum_csv
from .thermo import (
    FREE,
    MEAN_FIELD_SCF,
    ThermoInput,
    critical_density,
    equal_distribution_gap,
    fit_exponential_rate,
    mu_asymptotics_check,
    solve_mu,
    suggest_k_max,
    write_sweep_csv,
)

_MODEL_ALIASES = {"free": FREE, "scf": MEAN_FIELD_SCF, "mean_field_scf": MEAN_FIELD_SCF}


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _echo_lines(command: str, params: dict) -> list[str]:
    lines = [f"robinbec {__version__}", f"command: {command}"]
    lines += [f"{k} = {_fmt(v)}" for k, v in sorted(params.items())]
    return lines


def _parse_l_grid(text: str) -> list[float]:
    """'start:stop:kind:count' with kind in {geometric, linear}."""
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
    if not (0.0 < start <= stop) or count < 1:
        raise ValidationError(f"bad L-grid bounds or count in {text!r}")
    if kind == "geometric":
        return [float(v) for v in np.geomspace(start, stop, count)]
    if kind == "linear":
        return [float(v) for v in np.linspace(start, stop, count)]
    raise ValidationError(f"L-grid kind must be geometric or linear, got {kind!r}")


def _write_json(payload: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="robinbec",
        description="Bose gas in a 1D box with attractive walls: spectrum, "
        "equilibrium checks, condensation thermodynamics, density profiles.",
    )
    ap.add_argument("--version", action="version", version=f"robinbec {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file; flags override")
        p.add_argument("--sigma", type=float, default=None, help="wall coupling, < 0")
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("spectrum", help="solve modes 0..k_max, write CSV")
    add_common(p)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)

    p = sub.add_parser("oracle", help="run one equilibrium check, write JSON")
    add_common(p)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--check", choices=CHECK_NAMES, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--k-top", dest="k_top", type=int, default=None,
                   help="highest mode in the truncation (default 6)")
    p.add_argument("--trunc-tol", dest="trunc_tol", type=float, default=None,
                   help="target truncation tail (default 1e-12)")
    p.add_argument("--mode", type=int, default=None, help="mode k for the check")
    p.add_argument("--power", type=int, default=None, help="moment power n")
    p.add_argument("--j", type=int, default=None, help="source mode for exchange")
    p.add_argument("--target", action="append", default=None, metavar="K:N",
                   help="exchange target mode:power; repeatable, first needs N >= 1")

    def add_thermo_args(p):
        add_common(p)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--model", default=None, choices=sorted(_MODEL_ALIASES))
        p.add_argument("--k-max", dest="k_max", type=int, default=None,
                       help="mode cutoff; default auto-certified")
        p.add_argument("--cutoff-tol", dest="cutoff_tol", type=float, default=None)

    p = sub.add_parser("thermo", help="solve the density equation at one point")
    add_thermo_args(p)
    p.add_argument("--L", type=float, default=None)

    p = sub.add_parser("profile", help="solve, then write the density profile CSV")
    add_thermo_args(p)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    p.add_argument("--fraction", type=float, default=None,
                   help="report the localization radius at this mass fraction")

    p = sub.add_parser("sweep", help="solve over an L-grid, write CSV + fit JSON")
    add_thermo_args(p)
    p.add_argument("--L-grid", dest="L_grid", default=None, metavar="A:B:KIND:N")
    p.add_argument("--fit-out", dest="fit_out", default=None,
                   help="JSON fit-report path (default: <out>.fit.json)")
    return ap


_DEFAULTS = {
    "spectrum": {"k_max": 10, "out": "spectrum.csv"},
    "oracle": {
        "check": "occupation-bound", "beta": 1.0, "lam": 1.0, "k_top": 6,
        "trunc_tol": 1e-12, "mode": 2, "power": 0, "j": 1, "target": ["0:1"],
        "out": "oracle.json",
    },
    "thermo": {"beta": 1.0, "rho": 1.0, "lam": 0.0, "model": "free",
               "cutoff_tol": 1e-10, "out": "thermo.json"},
    "profile": {"beta": 1.0, "rho": 1.0, "lam": 0.0, "model": "free",
                "cutoff_tol": 1e-10, "grid_n": 2001, "out": "profile.csv"},
    "sweep": {"beta": 1.0, "rho": 1.0, "lam": 0.0, "model": "free",
              "cutoff_tol": 1e-10, "out": "sweep.csv"},
}

_REQUIRED = {
    "spectrum": ("sigma", "L"),
    "oracle": ("sigma", "L", "mu"),
    "thermo": ("sigma", "L"),
    "profile": ("sigma", "L"),
    "sweep": ("sigma", "L_grid"),
}


_KEY_ALIASES = {"lambda": "lam"}


def _flags(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse action for every flag of one subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest not in ("help", "config")}


def _config_scalar(key: str, val, convert, choices=None):
    bad = ValidationError(f"config key {key!r}: invalid {convert.__name__} value {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise bad
    try:
        val = convert(str(val))
    except ValueError:
        raise bad from None
    if choices is not None and val not in choices:
        raise ValidationError(f"config key {key!r} must be one of {sorted(choices)}, got {val!r}")
    return val


def _config_value(key: str, val, action: argparse.Action):
    """A config value converted and checked as its flag would be."""
    convert = action.type or str
    if isinstance(action, argparse._AppendAction):
        return [_config_scalar(key, v, convert) for v in (val if isinstance(val, list) else [val])]
    return _config_scalar(key, val, convert, action.choices)


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Defaults < config file < explicit flags."""
    cfg = dict(_DEFAULTS[args.command])
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read config file {args.config!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        flags = _flags(parser, args.command)
        for key, val in loaded.items():
            key = key.replace("-", "_")
            key = _KEY_ALIASES.get(key, key)
            if key in ("command", "config"):
                continue
            if key not in flags:
                raise ValidationError(
                    f"unknown config key {key!r}: not a flag of {args.command}"
                )
            if val is not None:  # null leaves the default in place
                cfg[key] = _config_value(key, val, flags[key])
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = val
    for key in _REQUIRED[args.command]:
        if cfg.get(key) is None:
            raise ValidationError(f"missing required parameter --{key.replace('_', '-')}")
    return cfg


def _thermo_point(cfg: dict, L: float):
    box = BoxParams(sigma=float(cfg["sigma"]), L=float(L))
    beta = float(cfg["beta"])
    cutoff_tol = float(cfg["cutoff_tol"])
    k_max = cfg.get("k_max")
    if k_max is None:
        k_max = suggest_k_max(box, beta, cutoff_tol)
    inp = ThermoInput(
        box=box, beta=beta, rho=float(cfg["rho"]), lam=float(cfg["lam"]),
        k_max=int(k_max), cutoff_tol=cutoff_tol,
    )
    return solve_mu(inp, model=_MODEL_ALIASES[cfg["model"]])


def _state_summary(state) -> dict:
    box = state.params.box
    return {
        "model": state.model_tag,
        "sigma": box.sigma,
        "L": box.L,
        "beta": state.params.beta,
        "rho": state.params.rho,
        "lambda": state.params.lam,
        "k_max": state.params.k_max,
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


def _cmd_spectrum(cfg: dict) -> int:
    box = BoxParams(sigma=float(cfg["sigma"]), L=float(cfg["L"]))
    table = build_spectrum(box, int(cfg["k_max"]))
    echo = {k: cfg[k] for k in ("sigma", "L", "k_max")}
    write_spectrum_csv(table, cfg["out"], _echo_lines("spectrum", echo))
    print(f"wrote {cfg['out']} ({len(table.modes)} modes)")
    return 0


def _parse_target(item) -> tuple[int, int]:
    """'K:N' -> (K, N)."""
    try:
        k_str, n_str = str(item).split(":")
        return int(k_str), int(n_str)
    except ValueError:
        raise ValidationError(f"--target must be K:N with integers K and N, got {item!r}") from None


def _cmd_oracle(cfg: dict) -> int:
    box = BoxParams(sigma=float(cfg["sigma"]), L=float(cfg["L"]))
    model = ModelParams(box=box, beta=float(cfg["beta"]), mu=float(cfg["mu"]),
                        lam=float(cfg["lam"]))
    table = build_spectrum(box, int(cfg["k_top"]))
    spec = make_truncation(table, model, tol=float(cfg["trunc_tol"]))
    name = cfg["check"]
    kwargs = {}
    if name == "exchange":
        targets = [_parse_target(item) for item in cfg["target"]]
        kwargs = {"j": int(cfg["j"]), "targets": targets}
    elif name in ("wall-occupation", "occupation-bound"):
        kwargs = {"k": int(cfg["mode"])}
    elif name == "moment-inequality":
        kwargs = {"k": int(cfg["mode"]), "n": int(cfg["power"])}
    report = run_check(name, spec, model, **kwargs)
    report["tool"] = f"robinbec {__version__}"
    _write_json(report, cfg["out"])
    print(f"wrote {cfg['out']} (check={name} pass={report['pass']})")
    return 0


def _cmd_thermo(cfg: dict) -> int:
    state = _thermo_point(cfg, float(cfg["L"]))
    payload = _state_summary(state)
    payload["tool"] = f"robinbec {__version__}"
    _write_json(payload, cfg["out"])
    print(f"wrote {cfg['out']} (mu={state.mu:.17g})")
    return 0


def _cmd_profile(cfg: dict) -> int:
    state = _thermo_point(cfg, float(cfg["L"]))
    table = build_spectrum(state.params.box, state.params.k_max)
    prof = density_profile(table, state, int(cfg["grid_n"]))
    echo = {k: cfg[k] for k in ("sigma", "L", "beta", "rho", "model", "grid_n")}
    echo["lambda"] = cfg["lam"]
    echo["k_max"] = state.params.k_max
    write_profile_csv(prof, cfg["out"], _echo_lines("profile", echo))
    msg = f"wrote {cfg['out']} ({len(prof.grid)} points)"
    if cfg.get("fraction") is not None:
        d = localization_radius(prof, float(cfg["fraction"]))
        msg += f" localization_radius({cfg['fraction']})={d:.17g}"
    print(msg)
    return 0


def _cmd_sweep(cfg: dict) -> int:
    grid = _parse_l_grid(str(cfg["L_grid"]))
    states = [_thermo_point(cfg, L) for L in grid]
    echo = {k: cfg[k] for k in ("sigma", "beta", "rho", "model")}
    echo["lambda"] = cfg["lam"]
    echo["L_grid"] = cfg["L_grid"]
    gaps = write_sweep_csv(states, cfg["out"], _echo_lines("sweep", echo))

    fits: dict = {"tool": f"robinbec {__version__}", "n_states": len(states)}
    rho_c = critical_density(float(cfg["beta"]), float(cfg["sigma"]))
    fits["critical_density"] = rho_c
    if len(states) >= 5 and float(cfg["rho"]) > rho_c:
        fits["mu_asymptotics"] = mu_asymptotics_check(states).as_dict()
    if sum(1 for g in gaps if g > 0.0) >= 3:
        fits["gap_decay_rate"] = fit_exponential_rate(grid, gaps)
    fit_out = cfg.get("fit_out") or str(cfg["out"]) + ".fit.json"
    _write_json(fits, fit_out)
    print(f"wrote {cfg['out']} and {fit_out}")
    return 0


_RUNNERS = {
    "spectrum": _cmd_spectrum,
    "oracle": _cmd_oracle,
    "thermo": _cmd_thermo,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
}


def _join_negative_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """'--sigma -1e-3' -> '--sigma=-1e-3' for every float flag.

    argparse (3.10 to 3.13.0 checked) reads a token that starts with '-'
    as an option unless it is a plain negative number like -1 or -0.5, so
    an exponent form such as -1e-3 after a space was rejected.  The joined
    form parses the same under every version, including those whose
    argparse accepts the spaced form.
    """
    float_flags = {
        opt
        for command in _DEFAULTS
        for action in _flags(parser, command).values()
        if action.type is float
        for opt in action.option_strings
    }
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in float_flags and tok.startswith("-") and _is_float(tok):
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
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_negative_values(parser, argv))
    try:
        cfg = _merge_config(args, parser)
        return _RUNNERS[args.command](cfg)
    except ValidationError as exc:
        print(f"robinbec: validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"robinbec: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
