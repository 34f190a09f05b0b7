"""What the benchmark's tracer (bench/tracing.py) needs of the package: every
function it wraps still resolves, and the attributes its counters read
still exist.  `Tracer.install` looks each traced name up with a strict
getattr, so a renamed or deleted function breaks every traced run."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import robinbec
import robinbec.cli as cli


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _tracing()
    for home, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"robinbec.{home}"), name)), (home, name)


def test_traced_runs_record_their_counters(tmp_path):
    # one run of each command under the installed tracer: `_observe` reads
    # SpectrumTable.modes, ThermoState.epsilons / .occ / .density_residual
    # and the state as density_profile's second argument
    tracing = _tracing()
    tracer = tracing.Tracer(robinbec)
    tracer.install()
    try:
        out = str(tmp_path / "o")
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["spectrum", "--sigma=-1", "--L=20", "--k-max=10"],
                ["sweep", "--model", "scf", "--sigma=-1", "--beta=1", "--rho=3", "--lambda=0.7",
                 "--L-grid", "50:800:geometric:5"],
                ["profile", "--sigma=-1", "--L=40", "--beta=1", "--rho=1", "--grid-n=401"],
                ["oracle", "--sigma=-1", "--L=10", "--mu=-1.5", "--k-top=8"],
            ):
                assert cli.main(argv + ["--out", out]) == 0, argv
    finally:
        tracer.uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    assert all(s["modes"] > 0 for s in spans["spectrum.build_spectrum"])
    assert all(s["modes"] > 2 and s["residual_rel"] <= 1e-10 for s in spans["thermo.solve_mu"])
    assert all(s["mode_points"] > 0 for s in spans["profile.density_profile"])
    assert spans["gibbs_oracle.run_check"]
    metrics = tracing.layer_metrics(tracer.spans, 4)
    assert set(metrics) <= set(tracing.PER_LAYER_UNITS)
