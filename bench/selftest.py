"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest bench/selftest.py -q

Every workload runs at a tiny size through bench/run.py; the rest checks
the generator, the output checks and the tracer in-process.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import robinbec  # noqa: E402
import robinbec.cli  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import OUT_NAME  # noqa: E402
from worker import Loop, run_op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT, seed=3):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return out


_RUNS = {}


def _result(workload, trace):
    if (workload, trace) not in _RUNS:
        out = _bench(workload, trace)
        assert out.returncode == 0, out.stderr
        _RUNS[workload, trace] = json.loads(out.stdout.strip().splitlines()[-1])
    return _RUNS[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    res = _result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in res["metrics"].values():
        assert math.isfinite(m["value"])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_profile_rebuilds_the_spectrum_solve_mu_built():
    # _cmd_profile builds the same (sigma, L, k_max) table solve_mu built
    assert _result("profile-dense", 1)["metrics"]["spectrum.useful_build_ratio"]["value"] == 0.5


@pytest.mark.parametrize("workload", ["oracle-checks", "profile-dense"])
def test_counters_repeat_exactly_for_a_fixed_seed(workload):
    first = _result(workload, 1)["metrics"]
    out = _bench(workload, 1)
    again = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("gibbs_oracle.conv_cells", "spectrum.modes_built", "profile.mode_points",
                 "cli.bytes_written", "gibbs_oracle.dp_passes"):
        assert first[name]["value"] == again[name]["value"], name


def test_bench_only_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("oracle-checks", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
def test_decks_are_seeded_and_stay_in_valid_regimes(seed):
    from robinbec.spectrum import BoxParams, solve_mode
    from robinbec.thermo import critical_density, suggest_k_max

    for w in workloads.WORKLOADS:
        assert workloads.make_deck(w, seed) == workloads.make_deck(w, seed)
        assert workloads.make_deck(w, seed) != workloads.make_deck(w, seed + 1)
    for op in workloads.make_deck("sweep-scf", seed):
        p = op["params"]
        assert p["rho"] > 1.1 * critical_density(p["beta"], p["sigma"])
    seen = collections.Counter()
    for op in workloads.make_deck("oracle-checks", seed):
        p, argv = op["params"], op["argv"]
        seen[p["check"], p.get("pair")] += 1
        assert p["mu"] < solve_mode(BoxParams(p["sigma"], p["L"]), 0).epsilon
        if p["check"] == "exchange":
            j = int(argv[argv.index("--j") + 1])
            k1 = int(argv[argv.index("--target") + 1].split(":")[0])
            assert (j < 2) == (k1 < 2), "exchange pair must not mix sectors"
            assert j < 2 or j < k1, "excited pair must have j < k1"
    assert set(seen) == {("exchange", "wall"), ("exchange", "excited"), ("wall-occupation", None),
                           ("moment-inequality", None), ("occupation-bound", None)}
    for op in workloads.make_deck("profile-dense", seed):
        p = op["params"]
        k_max = suggest_k_max(BoxParams(p["sigma"], p["L"]), p["beta"], 1e-10)
        assert 2 * (p["grid_n"] - 1) / k_max >= workloads.MIN_POINTS_PER_WAVELENGTH


def test_independent_regime_helpers_match_the_package():
    from robinbec.spectrum import BoxParams, solve_mode
    from robinbec.thermo import critical_density

    for beta, sigma in [(0.5, -0.5), (1.0, -1.0), (2.0, -1.5)]:
        assert workloads.critical_density(beta, sigma) == pytest.approx(
            critical_density(beta, sigma), rel=1e-10)
    for sigma, L in [(-1.0, 10.0), (-1.5, 40.0)]:
        assert workloads.ground_energy(sigma, L) == pytest.approx(
            solve_mode(BoxParams(sigma, L), 0).epsilon, rel=1e-12)


@pytest.mark.parametrize("L", [50.0, 3200.0])
def test_scf_slope_bound_holds_on_solved_states(L):
    from robinbec.spectrum import BoxParams
    from robinbec.thermo import MEAN_FIELD_SCF, ThermoInput, solve_mu, suggest_k_max

    for sigma, beta, lam in [(-0.5, 0.5, 1.0), (-0.5, 2.0, 1.0), (-1.5, 1.0, 0.3)]:
        box = BoxParams(sigma, L)
        rho = 2.0 * workloads.critical_density(beta, sigma)
        st = solve_mu(ThermoInput(box=box, beta=beta, rho=rho, lam=lam,
                                  k_max=suggest_k_max(box, beta, 1e-10)), MEAN_FIELD_SCF)
        n = st.occ[2:]
        slope = 1.0 + lam * beta * float((n * (n + 1.0)).sum() / L)
        assert slope <= checks.scf_slope_bound(beta, sigma, lam, st.rho_tilde)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _corrupting_cli(edit):
    """A stand-in for robinbec.cli whose main runs the real one, then
    rewrites the output file with `edit`."""
    class Corrupt:
        @staticmethod
        def main(argv):
            code = robinbec.cli.main(argv)
            path = Path(argv[argv.index("--out") + 1])
            path.write_text(edit(path.read_text()))
            return code
    return Corrupt


def _perturb_column(text, column, factor):
    lines = text.splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[header].split(",").index(column)
    row = lines[header + 1].split(",")
    row[col] = repr(float(row[col]) * factor)
    lines[header + 1] = ",".join(row)
    return "\n".join(lines) + "\n"


def _tiny_op(workload):
    return workloads.make_deck(workload, 5, tiny=True)[0]


def test_honest_outputs_pass_the_checks(tmp_path):
    for w in workloads.WORKLOADS:
        _, error, digest = run_op(robinbec.cli, _tiny_op(w), str(tmp_path))
        assert error is None and digest


@pytest.mark.parametrize("workload,edit", [
    ("sweep-scf", lambda t: _perturb_column(t, "rho_tilde", 1.0 + 1e-6)),
    ("sweep-scf", lambda t: _perturb_column(t, "mu", -1.0)),
    ("profile-dense", lambda t: _perturb_column(t, "n_total", 1.0 + 1e-9)),
    ("profile-dense", lambda t: _perturb_column(t, "n_cond", 2.0)),
    ("oracle-checks", lambda t: t.replace('"pass": true', '"pass": false')),
])
def test_a_corrupted_output_counts_as_a_failed_op(tmp_path, workload, edit):
    op = _tiny_op(workload)
    loop = Loop(_corrupting_cli(edit), [op], str(tmp_path))
    loop._op(0)
    assert loop.attempted == 1 and len(loop.errors) == 1


def test_a_changed_repeat_counts_as_a_failed_op(tmp_path):
    calls = []

    def edit(text):
        calls.append(1)
        return ("# extra\n" if len(calls) > 1 else "") + text

    loop = Loop(_corrupting_cli(edit), [_tiny_op("profile-dense")], str(tmp_path))
    loop._op(0)
    loop._op(0)
    assert loop.errors == ["op 0: output differs from an earlier run of the same argv"]


# The generator orders excited exchange pairs j < k1 because of this case
# (seed 863034452 draws it when a pair may take either order): the
# oracle's pass test ignores the factor e^{beta (eps_j - eps_k1)} ~ 2e6
# that multiplies the truncation error of the lhs.  When the oracle
# accounts for it, this test passes, fails as strict, and the generator
# can draw both orders.
@pytest.mark.xfail(strict=True, reason="oracle exchange test omits the j > k1 prefactor")
def test_exchange_with_j_above_k1_passes(tmp_path):
    op = {"kind": "oracle", "params": {"check": "exchange"}, "argv": [
        "oracle", "--check", "exchange", "--sigma=-1.003005732233222",
        "--L=10.481102170507942", "--beta=1.9444452815123277", "--mu=-1.0900658867759876",
        "--lambda=0.38070415273263053", "--k-top", "79", "--j", "10", "--target", "4:2"]}
    _, error, _ = run_op(robinbec.cli, op, str(tmp_path))
    assert error is None, error


def test_a_rejected_argv_counts_as_a_failed_op(tmp_path):
    op = dict(_tiny_op("oracle-checks"), argv=["oracle", "--sigma=-1", "--L", "10"])  # no --mu
    loop = Loop(robinbec.cli, [op], str(tmp_path))
    loop._op(0)
    assert loop.errors and loop.errors[0].startswith("op 0: exit 2")


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

# DP passes per op from a reading of gibbs_oracle: a pass is a
# constrained_partition call or a grand_expectation call with a k >= 2
# factor.  Wall-pair exchange and wall-occupation build one z they never
# read, because grand_expectation returns before using it.
EXPECTED_PASSES = {
    ("occupation-bound", ("--mode", "3")): (2, 2),
    ("moment-inequality", ("--mode", "3", "--power", "1")): (4, 4),
    ("exchange", ("--j", "2", "--target", "4:1")): (3, 3),
    ("exchange", ("--j", "0", "--target", "1:2")): (1, 0),
    ("wall-occupation", ("--mode", "1")): (1, 0),
}


@pytest.mark.parametrize("check,extra", list(EXPECTED_PASSES))
def test_dp_passes_per_op_match_the_code(tmp_path, check, extra):
    tracer = tracing.Tracer(robinbec)
    tracer.install()
    try:
        tracer.start_op(0)
        argv = ["oracle", "--check", check, "--sigma=-1.2", "--L", "12", "--beta", "1.5",
                "--mu=-1.6", "--lambda", "0.7", "--k-top", "15", *extra,
                "--out", str(tmp_path / OUT_NAME["oracle"])]
        with contextlib.redirect_stdout(io.StringIO()):
            assert robinbec.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert not hasattr(robinbec.gibbs_oracle.constrained_partition, "__wrapped__")
    passes, useful = tracing.dp_passes(tracer.spans)
    assert (passes, useful) == EXPECTED_PASSES[check, extra]

    from robinbec.gibbs_oracle import ModelParams, make_truncation
    from robinbec.spectrum import BoxParams, build_spectrum

    box = BoxParams(-1.2, 12.0)
    caps = make_truncation(build_spectrum(box, 15), ModelParams(box, 1.5, -1.6, 0.7)).caps
    assert sum(s.get("cells", 0) for s in tracer.spans) == passes * tracing.conv_cells(caps)


def test_self_time_excludes_child_spans():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_conv_cells_counts_direct_convolution_products():
    # running lengths 1, 1 + 2, 1 + 2 + 3 against operands of 3, 4, 2 entries
    assert tracing.conv_cells([9, 9, 2, 3, 1]) == 3 * 1 + 4 * 3 + 2 * 6
