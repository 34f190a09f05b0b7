"""The k >= 2 sum of the density solve on the half-line continuum: one
trapezoid sum on `thermo.continuum_plan`'s nodes (`ThermoInput` with no
head given, past the switch), against the explicit mode sum it replaces on
a table whose certified tail is below 1e-30; and the one predicate that
sends the solve and the density profile down the same path."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

import robinbec.thermo as thermo
from robinbec.profile import profile_input
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import (
    FREE,
    MEAN_FIELD_SCF,
    LadderPlan,
    ThermoInput,
    build_ladder,
    certified_density_tail,
    continuum_plan,
    critical_density,
    ladder_sum,
    solve_mu,
    suggest_k_max,
)

EPS = np.finfo(float).eps
# what rounding moves the reference by, relative: occupations of a few ulp
# each on the table's double levels, summed by fsum
FLOAT_FLOOR = 16 * EPS
DROPPED = 1e-30  # the reference table's certified tail


def _switch(sigma, beta, tol=1e-10):
    """The smallest L|sigma| on steps of 2 % from 10 whose box takes the
    continuum."""
    Ls = 10.0
    while continuum_plan(BoxParams(sigma, Ls / -sigma), beta, tol) is None:
        Ls *= 1.02
    return Ls


def _reference(st):
    """(1/L) sum_{k>=2} occ_k at the state's own x', by fsum over a table
    whose certified tail is at most DROPPED."""
    box, beta = st.params.box, st.params.beta
    k_max = suggest_k_max(box, beta, DROPPED)
    assert certified_density_tail(box, beta, k_max) <= DROPPED
    occ = st.occupations(build_spectrum(box, k_max))
    return math.fsum(occ[2:].tolist()) / box.L


def _boxes():
    """(sigma, beta, L, model, lam) on seeded random boxes: beta sigma^2
    from 0.05 to 4 (one in each tenth of its log range), each at the switch,
    at a random L|sigma| from there to 1e4 and at 1e4, free and SCF."""
    rng = random.Random(29)
    out = []
    for i in range(10):
        sigma = -(10.0 ** rng.uniform(-1.0, 0.5))
        beta = 0.05 * 80.0 ** ((i + rng.random()) / 10.0) / (sigma * sigma)
        switch = _switch(sigma, beta)
        for Ls in (switch, 10.0 ** rng.uniform(math.log10(switch), 4.0), 1e4):
            model, lam = (FREE, 0.0) if i % 2 else (MEAN_FIELD_SCF, 10.0 ** rng.uniform(-2.0, 1.0))
            out.append((sigma, beta, Ls / -sigma, model, lam))
    return out


@pytest.mark.parametrize("sigma,beta,L,model,lam", _boxes())
def test_continuum_solve_matches_the_explicit_sum(sigma, beta, L, model, lam):
    box = BoxParams(sigma, L)
    rho = 1.5 * critical_density(beta, sigma)
    inp = ThermoInput(box=box, beta=beta, rho=rho, lam=lam)
    assert inp.plan.head == 1 and inp.plan.continuum == continuum_plan(box, beta, inp.cutoff_tol)
    st = solve_mu(inp, model)
    assert st.spectrum.k_max == 1 and len(st.occ) == 2
    ref = _reference(st)
    bound = inp.plan.certificate + FLOAT_FLOOR * ref + DROPPED
    assert abs(st.rho_tilde - ref) <= bound, (st.rho_tilde, ref, bound)
    # the certificate resolves the -b(0)/2 of the k = 1 end: without it the
    # same sum misses
    ladder = build_ladder(st.spectrum, beta, inp.plan)
    weights = ladder.weights.copy()
    weights[0] += 0.5
    shift = st.excited_shift
    assert st.rho_tilde == ladder_sum(ladder, beta, shift)[0] / L
    whole = ladder_sum(replace(ladder, weights=weights), beta, shift)[0] / L
    assert abs(whole - ref) > bound


def test_continuum_weights_are_the_phase_map_trapezoid():
    # dp k'(p_m) on p_m = m dp, the first halved less 1/2: negative where L
    # < pi/dp + 2/s, as its rounding bound takes it
    for L in (30.0, 60.0, 1e4):
        box = BoxParams(-1.0, L)
        inp = ThermoInput(box=box, beta=1.0, rho=1.0, lam=0.0)
        plan = inp.plan.continuum
        ladder = build_ladder(build_spectrum(box, 1), 1.0, inp.plan)
        p = np.arange(plan.nodes) * plan.dp
        kprime = (L - 2.0 / (p * p + 1.0)) / math.pi
        np.testing.assert_allclose(ladder.weights[1:], plan.dp * kprime[1:], rtol=4 * EPS)
        assert ladder.weights[0] == pytest.approx(0.5 * plan.dp * kprime[0] - 0.5, rel=1e-14, abs=1e-15)
        assert (ladder.weights[0] < 0.0) == (L < math.pi / plan.dp + 2.0)
        assert ladder.em == () and len(ladder.levels) == plan.nodes


def test_solve_and_profile_take_the_path_continuum_plan_takes(monkeypatch):
    # on boxes either side of the switch, the solve takes the continuum
    # (head 1, the wall pair) exactly where continuum_plan fits, and so
    # does the profile (profile_input leaves the input as it is)
    for sigma, beta, tol in ((-1.0, 1.0, 1e-10), (-0.5, 2.0, 1e-10), (-1.5, 0.3, 1e-6)):
        switch = _switch(sigma, beta, tol)
        for Ls in (switch / 1.02, switch, 4.0 * switch):
            box = BoxParams(sigma, Ls / -sigma)
            fits = continuum_plan(box, beta, tol) is not None
            assert fits == (Ls >= switch)
            inp = ThermoInput(box=box, beta=beta, rho=1.0, lam=0.0, cutoff_tol=tol)
            assert (inp.plan.head == 1) == fits == (profile_input(inp) is inp)
            assert solve_mu(inp).spectrum.k_max == inp.plan.head
    # continuum_plan alone decides: a plan whose solve's rounding part does
    # not fit (patched in) sends both down the other path, at a box far past
    # the switch; a given k_max is a plain mode cutoff either way
    box = BoxParams(-1.0, 200.0)
    real = thermo._continuum
    monkeypatch.setattr(thermo, "_continuum", lambda *a: real(*a)._replace(summation=math.inf))
    inp = ThermoInput(box=box, beta=1.0, rho=1.0, lam=0.0)
    assert continuum_plan(box, 1.0, 1e-10) is None
    cutoff = suggest_k_max(box, 1.0)
    assert inp.plan.head > 1 and inp.plan.continuum is None and profile_input(inp).k_max == cutoff
    monkeypatch.undo()
    given = ThermoInput(box=box, beta=1.0, rho=1.0, lam=0.0, k_max=cutoff)
    assert given.plan == LadderPlan(cutoff, 0, (), certified_density_tail(box, 1.0, cutoff))


@pytest.mark.parametrize("L", [1e16, 1e100, 1e300])
def test_continuum_solve_runs_past_the_phase_roots(L):
    # the continuum needs the wall pair alone, so the free solve runs to the
    # wall pair's L|sigma| <= 1e307 (a head's phase roots stop at 1e15), and
    # there rho_tilde is the bulk critical density (its 1/L corrections are
    # below a double), within the certificate and its own rounding
    inp = ThermoInput(box=BoxParams(-1.0, L), beta=1.0, rho=1.0, lam=0.0)
    st = solve_mu(inp, FREE)
    assert inp.plan.head == 1 and st.density_residual <= 1e-10
    rho_c = critical_density(1.0, -1.0)
    assert abs(st.rho_tilde - rho_c) <= inp.plan.certificate + FLOAT_FLOOR * rho_c
