"""The k >= 2 sum of the density solve on its ladder path: modes 2..K one by
one and a certified Euler-Maclaurin tail (`thermo.ladder_sum`), against the
explicit sum it replaces, taken to 3x the certified cutoff.  The ladders are
planned by the head search (`thermo._head_plan`) whether or not the box is
past the switch to the half-line continuum, which `ThermoInput` takes there
unless a head is given."""

import importlib.util
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robinbec.thermo as thermo
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import (
    MEAN_FIELD_SCF,
    ThermoInput,
    build_ladder,
    certified_density_tail,
    ladder_sum,
    solve_mu,
    suggest_k_max,
)

EPS = np.finfo(float).eps
# what rounding moves a sum of positive terms by, relative: both sums here
# are fsum or einsum over at most ~100 terms with a few ulp each
FLOAT_FLOOR = 16 * EPS


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _levels(box, beta):
    """D_k = eps_k - eps(0), k >= 2, to 3x the certified cutoff, and the
    certified bound on the sum past them (sum units)."""
    k_max = 3 * suggest_k_max(box, beta)
    q = build_spectrum(box, k_max).wavenumbers
    return q[2:] * q[2:] + q[0] * q[0], certified_density_tail(box, beta, k_max) * box.L


def _ladder(box, beta, tol=1e-10):
    plan = thermo._head_plan(box, beta, tol)
    return build_ladder(build_spectrum(box, plan.head), beta, plan)


def _errors(box, beta, shifts, ladder=None):
    """(|ladder - explicit|, certificate + float floor + the explicit sum's
    own tail) at each shift, in sum units."""
    ladder = ladder or _ladder(box, beta)
    levels, dropped = _levels(box, beta)
    out = []
    for shift in shifts:
        ref = math.fsum(1.0 / np.expm1(beta * (levels + shift)))
        got = ladder_sum(ladder, beta, shift)[0]
        out.append((abs(got - ref), ladder.plan.certificate * box.L + FLOAT_FLOOR * ref + dropped))
    return out


def _assert_certified(box, beta, shifts):
    for err, bound in _errors(box, beta, shifts):
        assert err <= bound, (box, beta, err, bound)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ladder_sum_matches_the_explicit_sum_on_the_deck_boxes(seed):
    grid = np.geomspace(50.0, 12800.0, 5)  # the sweep-scf deck's L-grid
    for op in _workloads().make_deck("sweep-scf", seed):
        p = op["params"]
        x = 2.0 / (p["beta"] * p["rho"] * grid[0])
        for L in grid:
            _assert_certified(BoxParams(p["sigma"], float(L)), p["beta"], (0.0, x, 1.0))


def test_ladder_sum_matches_the_explicit_sum_on_random_boxes():
    rng = random.Random(21)
    kinds = set()
    for _ in range(60):
        box = BoxParams(-10.0 ** rng.uniform(-1.0, 0.5), 10.0 ** rng.uniform(1.0, 4.0))
        if not box.has_second_bound_state():
            continue
        beta = 10.0 ** rng.uniform(-1.0, 1.0)
        kinds.add(_ladder(box, beta).plan.terms > 0)
        _assert_certified(box, beta, (0.0, 10.0 ** rng.uniform(-6.0, 0.0), 10.0 ** rng.uniform(0.0, 1.0)))
    assert kinds == {False, True}  # truncated sums and ladder tails both


@pytest.mark.parametrize("sigma,beta,crossover", [
    (-1.0, 1.0, 95.84), (-0.5, 0.5, 276.0), (-1.5, 2.0, 36.98),
])
def test_ladder_sum_near_the_head_crossover(sigma, beta, crossover):
    # `crossover` is the smallest L (on steps of 1.2) whose searched head is
    # 2: boxes within 4x of it on either side
    assert thermo._head_plan(BoxParams(sigma, crossover), beta, 1e-10).head == 2
    assert thermo._head_plan(BoxParams(sigma, crossover / 1.2), beta, 1e-10).head > 2
    for L in crossover * np.geomspace(0.25, 4.0, 9):
        box = BoxParams(sigma, float(L))
        if box.has_second_bound_state():
            _assert_certified(box, beta, (0.0, 1e-3, 0.3))


@pytest.mark.parametrize("sigma,L,beta", [(-1.0, 30.0, 1.0), (-0.5, 80.0, 0.5), (-1.5, 200.0, 2.0)])
def test_ladder_sum_matches_mpmath(sigma, L, beta):
    # the explicit sum at 40 digits on the table's double wavenumbers
    mpmath = pytest.importorskip("mpmath")
    box = BoxParams(sigma, L)
    ladder = _ladder(box, beta)
    levels, dropped = _levels(box, beta)
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        mp_levels = [mpmath.mpf(float(d)) for d in levels]
        for shift in (0.0, 1e-4, 0.5):
            ref = mpmath.fsum(1 / mpmath.expm1(b * (d + mpmath.mpf(shift))) for d in mp_levels)
            got = ladder_sum(ladder, beta, shift)[0]
            bound = ladder.plan.certificate * L + FLOAT_FLOOR * float(ref) + dropped
            assert float(abs(got - ref)) <= bound, (shift, float(abs(got - ref)), bound)


def test_one_evaluation_takes_a_vector_flat_in_L(monkeypatch):
    # the Bose vector of one evaluation: the head plus the quadrature nodes
    # (the searched head, given), against the ~1.4 L modes of a certified
    # cutoff at beta = 1; and on the half-line continuum (no head given),
    # the same trapezoid nodes at every L
    sizes, nodes = {}, {}
    real = thermo._occ_free
    for L in (50.0, 1e3, 1e5, 1e8):
        box = BoxParams(-1.0, L)
        for given, out in ((thermo._head_plan(box, 1.0, 1e-10).head, sizes), (None, nodes)):
            seen = []
            monkeypatch.setattr(thermo, "_occ_free", lambda d, *a: seen.append(len(d)) or real(d, *a))
            inp = ThermoInput(box=box, beta=1.0, rho=3.0, lam=0.7, k_max=given)
            st = solve_mu(inp, MEAN_FIELD_SCF)
            monkeypatch.undo()
            assert st.density_residual <= 1e-10 * 3.0
            out[L] = max(seen)
        assert nodes[L] == inp.plan.continuum.nodes
    assert max(sizes.values()) <= 100, sizes
    assert max(sizes.values()) <= 2 * min(sizes.values()), sizes
    assert len(set(nodes.values())) == 1, nodes


def test_dropping_the_last_em_term_breaks_the_certificate():
    # the certificate is not vacuous: with the last Bernoulli term left out
    # the error passes it on some box, while the full tail stays inside it
    broken = 0
    for sigma, L, beta in [(-1.0, 30.0, 1.0), (-1.5, 30.0, 1.0), (-0.5, 30.0, 1.0)]:
        box = BoxParams(sigma, L)
        ladder = _ladder(box, beta)
        plan, q = ladder.plan, build_spectrum(box, ladder.plan.head).wavenumbers
        assert plan.terms >= 2
        short = replace(ladder, em=thermo._em_weights(box.s, L, beta, float(q[plan.head]),
                                                       ladder.scale, plan.terms - 1))
        for (err, bound), (short_err, _) in zip(_errors(box, beta, (1e-4,), ladder),
                                                _errors(box, beta, (1e-4,), short)):
            assert err <= bound
            broken += short_err > bound
    assert broken >= 1
