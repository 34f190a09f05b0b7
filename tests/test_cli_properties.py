"""Property test of the CLI: random flags and config files for every
subcommand, valid values mixed with zero, negative, NaN and extreme finite
ones.  Every run ends in rc 0, 1 or 2; a failure prints one line and no
traceback; a solved thermo point satisfies its density equation and an
oracle report is finite."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import robinbec.cli as cli

BAD = {float: ("0", "-1", "nan", "1e-300", "1e300", "-1e17", "5e-324", "1.7e308"), int: ("0", "-1")}

# small valid values, so each run takes milliseconds
VALID = {
    "sigma": ("-1", "-0.6"),
    "L": ("10", "25"),
    "k_max": ("60", "120"),
    "beta": ("0.5", "1", "2"),
    "rho": ("0.5", "1", "2"),
    "lam": ("0", "1"),
    "model": ("free", "scf", "mean_field_scf"),
    "cutoff_tol": ("1e-10", "1e-6"),
    "grid_n": ("64", "201"),
    "fraction": ("0.5", "0.9"),
    "L_grid": ("20:40:geometric:3", "10:30:linear:5"),
    "check": cli.CHECK_NAMES,
    "mu": ("-1.5", "-2"),
    "k_top": ("6", "8"),
    "trunc_tol": ("1e-12", "1e-8"),
    "mode": ("1", "2", "3"),
    "power": ("0", "1", "2"),
    "j": ("1", "2"),
    "target": ("0:1", "3:2", "1:0"),
}


@st.composite
def invocations(draw):
    """(argv without --out, config dict) for one random subcommand run."""
    command = draw(st.sampled_from(sorted(cli._SCHEMA)))
    argv, config = [command], {}
    for name, param in cli._SCHEMA[command].params.items():
        if name not in VALID:
            continue
        where = draw(st.sampled_from(("flag", "config", "omit")))
        if where == "omit" and not param.required:
            continue
        # about one value in six is bad, so that about half of the runs succeed
        bad = BAD.get(param.kind, ()) if draw(st.integers(0, 5)) == 0 else ()
        value = draw(st.sampled_from(bad or VALID[name]))
        if where != "config":
            argv += [cli._flag(name, param), value]
        else:
            config[name] = float(value) if param.kind is float else (
                int(value) if param.kind is int else value)
    return argv, config


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_run_exits_cleanly(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if config:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = argv + ["--config", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--out", out])
        err = err.getvalue()
        assert rc in (0, 1, 2)
        if rc != 0:
            assert err.count("\n") == 1 and "Traceback" not in err, err
        elif argv[0] == "thermo":
            with open(out) as fh:
                rep = json.load(fh)
            residual = abs(rep["rho_tilde"] + rep["rho_cond_finite"] - rep["rho"])
            assert residual <= 1e-10 * rep["rho"]
            assert math.isfinite(rep["mu"])
        elif argv[0] == "oracle":
            with open(out) as fh:
                rep = json.load(fh)
            sides = [rep[key] for key in ("lhs", "rhs", "residual") if rep[key] is not None]
            assert all(math.isfinite(v) for v in sides + [rep["tail_budget"]]), rep
