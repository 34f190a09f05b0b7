"""What the benchmark (bench/) needs of the package.  The tracer
(bench/tracing.py): every function it wraps still resolves, and the
attributes its counters read still exist; `Tracer.install` looks each
traced name up with a strict getattr, so a renamed or deleted function
breaks every traced run.  The self-test (bench/selftest.py), which the
tier-1 suite does not collect: every package name it imports resolves, and
the per-mode adapters it and the tracer read agree with the table."""

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

import robinbec
import robinbec.cli as cli
from robinbec.spectrum import BoxParams, build_spectrum, solve_mode

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
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
    # the sweep solves its points in lockstep through thermo.solve_grid, which
    # the tracer does not wrap, so its solves make no thermo.solve_mu span:
    # the one left is the profile's, on the half-line continuum, whose table
    # is the wall pair
    assert len(spans["thermo.solve_mu"]) == 1
    assert all(s["modes"] == 2 and s["residual_rel"] <= 1e-10 for s in spans["thermo.solve_mu"])
    assert all(s["mode_points"] > 0 for s in spans["profile.density_profile"])
    assert spans["gibbs_oracle.run_check"]
    metrics = tracing.layer_metrics(tracer.spans, 4)
    assert set(metrics) <= set(tracing.PER_LAYER_UNITS)


def _package_names(path):
    """(module, name) for each `from robinbec... import name` in the file at
    `path`, and (module, attribute) for each `robinbec.module.attribute` it
    reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "robinbec":
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and (
                isinstance(node.value.value, ast.Name) and node.value.value.id == "robinbec"):
            names.add((f"robinbec.{node.value.attr}", node.attr))
    return names


def test_every_selftest_import_resolves():
    names = _package_names(BENCH / "selftest.py")
    assert ("robinbec.spectrum", "solve_mode") in names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), (module, name)


@pytest.mark.parametrize("sigma,L", [(-1.0, 1.5), (-1.0, 10.0), (-1.5, 40.0)])
def test_per_mode_adapters_read_the_table(sigma, L):
    # the self-test reads `solve_mode(box, 0).epsilon`, the tracer
    # `len(result.modes)` of each built table
    box = BoxParams(sigma=sigma, L=L)
    assert solve_mode(box, 0).epsilon == build_spectrum(box, 0).epsilons[0]
    for k in (0, 1, 12) if box.has_second_bound_state() else (0,):
        assert len(build_spectrum(box, k).modes) == k + 1
