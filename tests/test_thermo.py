import math
import random
import warnings

import numpy as np
import pytest

import robinbec.thermo as thermo
from robinbec.errors import NumericalFailure, ValidationError
from robinbec.gibbs_oracle import (
    DiagonalObservable,
    ModelParams,
    grand_expectation,
    make_truncation,
    occupation_bound_exponent,
)
from robinbec.spectrum import BoxParams, bound_state_gap, build_spectrum
from robinbec.thermo import (
    FREE,
    MEAN_FIELD_SCF,
    CutoffTooSmall,
    NotCondensing,
    SigmaZero,
    ThermoInput,
    build_ladder,
    certified_density_tail,
    critical_density,
    equal_distribution_gap,
    fit_exponential_rate,
    ladder_sum,
    mu_asymptotics_check,
    plan_ladder,
    solve_mu,
    suggest_k_max,
    write_sweep_csv,
)
from test_spectrum import REFERENCE_BOXES

# Li_{1/2}(e^{-1}) / (2 sqrt(pi)) at 40 digits, rounded to double
RHO_C_BETA1_SIGMA1 = 0.14274846129686652


def _input(sigma=-1.0, L=30.0, beta=1.0, rho=1.0, lam=0.0, k_max=None, cutoff_tol=1e-10):
    return ThermoInput(box=BoxParams(sigma=sigma, L=L), beta=beta, rho=rho, lam=lam,
                       k_max=k_max, cutoff_tol=cutoff_tol)


def record_bose_vectors(monkeypatch, seen):
    """Hook thermo._occ_free to append (length, shift) of each Bose vector
    it evaluates: once per row of a lockstep stack (one row a point), so
    each point's evaluations count as they would alone."""
    real = thermo._occ_free

    def hook(d, beta, x):
        rows = np.atleast_2d(d)
        seen.extend(zip([rows.shape[1]] * len(rows), np.broadcast_to(x, (len(rows), 1))[:, 0].tolist()))
        return real(d, beta, x)

    monkeypatch.setattr(thermo, "_occ_free", hook)


# ----------------------------------------------------------------------
# critical density
# ----------------------------------------------------------------------

@pytest.mark.parametrize("beta", [1e-3, 0.3, 1.0, 30.0, 1000.0])
def test_critical_density_matches_mpmath_polylog(beta):
    # rho_c = Li_{1/2}(e^{-a}) / (2 sqrt(pi beta)), a = beta sigma^2, for a
    # from 1e-20 to 700.  The first reference takes a as rounded in double,
    # the value the series sees; the second takes the exact inputs, where
    # the rounding of a itself moves rho_c by up to a 2^-52 relative
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings(), mpmath.workdps(40):
        warnings.simplefilter("error")
        for a in np.geomspace(1e-20, 700.0, 60):
            sigma = -math.sqrt(a / beta)
            got = critical_density(beta, sigma)
            for exact, tol in ((mpmath.mpf(beta * sigma * sigma), 1e-13),
                               (mpmath.mpf(beta) * mpmath.mpf(sigma) ** 2,
                                1e-14 + 2.3e-16 * a)):
                ref = mpmath.polylog(0.5, mpmath.exp(-exact))
                ref /= 2 * mpmath.sqrt(mpmath.pi * beta)
                rel = float(abs(got - ref) / ref)
                assert rel <= tol, (a, rel)


def test_critical_density_frozen_value():
    rc = critical_density(1.0, -1.0)
    assert abs(rc - RHO_C_BETA1_SIGMA1) <= 2 * math.ulp(RHO_C_BETA1_SIGMA1)
    # thermo --sigma=-0.5 --beta 1000: adaptive quadrature wrote 2.3825e-111
    assert abs(critical_density(1000.0, -0.5) / 2.3811e-111 - 1.0) < 1e-4


def test_critical_density_tiny_gap_stays_finite():
    # the quadrature returned rho_c = -0.73 at beta = 1, beta sigma^2 <=
    # 1e-17; rho_c tends to 1 / (2 beta |sigma|)
    for sigma in (-1e-10, -1e-100, -1e-200):
        rc = critical_density(1.0, sigma)
        assert abs(rc * 2.0 * -sigma - 1.0) < 1e-9


def test_critical_density_decreasing_in_beta():
    betas = np.linspace(0.2, 5.0, 12)
    vals = [critical_density(float(b), -1.0) for b in betas]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_critical_density_boltzmann_limit():
    for beta in (20.0, 35.0):
        lead = math.exp(-beta) / (2.0 * math.sqrt(math.pi * beta))
        assert abs(critical_density(beta, -1.0) / lead - 1.0) < 1e-8


def test_critical_density_sigma_zero():
    with pytest.raises(SigmaZero):
        critical_density(1.0, 0.0)


# ----------------------------------------------------------------------
# density equation
# ----------------------------------------------------------------------

def test_solve_mu_free_density_bookkeeping():
    inp = _input()
    st = solve_mu(inp, model=FREE)
    assert st.mu < st.epsilons[0]
    assert st.density_residual < 1e-10 * inp.rho
    assert st.occ[0] >= st.occ[1] > 0.0
    assert abs(st.rho_tilde + st.rho_cond_finite - inp.rho) < 1e-10


def test_solve_mu_below_critical_no_condensate():
    # rho < rho_c at large L: mu stays below -sigma^2, occ0/L vanishes
    rc = critical_density(1.0, -1.0)
    for L in (200.0, 400.0):
        st = solve_mu(_input(L=L, rho=0.5 * rc), model=FREE)
        assert st.mu < -1.0
        # wall occupations stay O(1): no macroscopic share
        assert st.rho_cond_finite < 3.0 / L
    # and the wall occupation share keeps shrinking with L
    a = solve_mu(_input(L=200.0, rho=0.5 * rc), model=FREE).rho_cond_finite
    b = solve_mu(_input(L=400.0, rho=0.5 * rc), model=FREE).rho_cond_finite
    assert b < a


def test_solve_mu_condensing_floor():
    rc = critical_density(1.0, -1.0)
    for model, lam in ((FREE, 0.0), (MEAN_FIELD_SCF, 1.0)):
        st = solve_mu(_input(L=250.0, rho=1.0, lam=lam), model=model)
        assert st.rho_cond_finite >= 1.0 - rc - 0.01


def test_solve_mu_monotone_density_premise():
    # G(x) = rho_tilde(x) - (1/L) sum_{k>=2} occ_k and rho_tilde(x) =
    # rho - (occ_0 + occ_1)/L increase strictly in x = eps(0) - mu; the
    # closed-form bracket ends have G < 0 and rho_tilde >= 0 (the k >= 2
    # sum explicit to 3x the certified cutoff); the solve's root leaves its
    # own equation, on the ladder, within rounding
    for model, lam in ((FREE, 0.0), (MEAN_FIELD_SCF, 1.0)):
        inp = _input(L=20.0, lam=lam)
        beta, L, rho = inp.beta, inp.box.L, inp.rho
        eps = build_spectrum(inp.box, 3 * suggest_k_max(inp.box, beta)).epsilons
        walls_at = np.array([0.0, bound_state_gap(inp.box)])

        def G(x):
            rho_tilde = rho - float((1.0 / np.expm1(beta * (walls_at + x))).sum()) / L
            excited = 1.0 / np.expm1(beta * (eps[2:] - eps[0] + x + lam * max(rho_tilde, 0.0)))
            return rho_tilde - float(excited.sum()) / L, rho_tilde

        x_lo, x_mid = math.log1p(1.0 / (rho * L)) / beta, math.log1p(2.0 / (rho * L)) / beta
        assert G(x_lo)[0] < 0.0 and G(x_lo)[1] <= 0.0
        assert G(x_mid)[1] >= 0.0
        prev = (-math.inf, -math.inf)
        for x in np.geomspace(0.1 * x_lo, 10.0, 40):
            value, rho_tilde = G(float(x))
            assert value > prev[0] and rho_tilde > prev[1]
            prev = value, rho_tilde
        st = solve_mu(inp, model=model)
        rho_tilde = G(st.x)[1]
        total = ladder_sum(build_ladder(st.spectrum, beta, inp.plan), beta,
                           st.x + lam * max(rho_tilde, 0.0))[0]
        assert abs(rho_tilde - total / L) <= 1e-14 * rho


def _solve_equation(mpmath, inp, st, model=MEAN_FIELD_SCF):
    """The equation the solve takes for G(x) = 0, at mpmath's precision on
    its double data: the wall gap of the state's table, and the levels,
    weights and Euler-Maclaurin terms of the ladder of inp.plan on it.
    Returns G/rho, which findroot's absolute tolerance can resolve."""
    ladder = build_ladder(st.spectrum, inp.beta, inp.plan)
    mpf = mpmath.mpf
    levels = [mpf(float(d)) for d in ladder.levels]
    weights = [mpf(float(w)) for w in ladder.weights]
    em, scale = [mpf(e) for e in ladder.em], mpf(ladder.scale)
    gap, b, n_L = (mpf(v) for v in (st.spectrum.wall_gap, inp.beta, inp.box.L))
    lam = inp.lam if model == MEAN_FIELD_SCF else 0.0

    def G(x):
        rho_tilde = inp.rho - (1 / mpmath.expm1(b * x) + 1 / mpmath.expm1(b * (gap + x))) / n_L
        shift = x + lam * max(rho_tilde, 0)
        occ = [1 / mpmath.expm1(b * (d + shift)) for d in levels]
        total = mpmath.fsum(w * o for w, o in zip(weights, occ))
        if em:
            bk = occ[inp.plan.head - 2]
            total += bk * mpmath.fsum(e * (-bk / scale) ** n for n, e in enumerate(em))
        return (rho_tilde - total / n_L) / inp.rho

    return G


@pytest.mark.parametrize("sigma,L,beta,rho,lam", [
    (-1.0, 20.0, 1.0, 1.0, 0.0),
    (-1.0, 100.0, 1.0, 1.0, 1.0),
    (-0.5, 50.0, 2.0, 2.0, 0.5),
    (-1.5, 100.0, 0.5, 0.05, 1.0),  # rho < rho_c: no condensate
    (-1.0, 20.0, 1e8, 1.0, 0.0),
    (-1.0, 20.0, 1.0, 1.0, 1e300),  # rho_tilde at the root is below rounding
    (-1.0, 12800.0, 1.0, 0.2, 1.0),  # a ladder tail
    (-1.0, 3000.0, 1.0, 3.0, 1e10),  # lam rho_tilde dominates below the root
])
def test_solve_mu_matches_mpmath_root(sigma, L, beta, rho, lam):
    # the solve's own equation (`_solve_equation`), solved at 40 digits by
    # mpmath.findroot on a bracket of +-2^-20 x around the double root.
    # How close that equation is to the sum over every mode is
    # tests/test_ladder.py's
    mpmath = pytest.importorskip("mpmath")
    inp = _input(sigma=sigma, L=L, beta=beta, rho=rho, lam=lam)
    st = solve_mu(inp, model=MEAN_FIELD_SCF)
    with mpmath.workdps(40):
        G = _solve_equation(mpmath, inp, st)
        x = mpmath.mpf(st.x)
        bracket = (x * (1 - mpmath.mpf(2) ** -20), x * (1 + mpmath.mpf(2) ** -20))
        assert G(bracket[0]) < 0 < G(bracket[1])
        root = mpmath.findroot(G, bracket, solver="anderson", verify=False)
        # the solver stops at a step or bracket of 2 eps in t = log(x/x_mid),
        # or at a step of at most 8 eps after one of at most 2^-22; G's
        # rounding moves that step, and x = x_mid e^t rounds once more.
        # Measured <= 9.6 eps on 660 seeded random boxes
        assert float(abs(x - root) / root) <= 12.0 * np.finfo(float).eps


@pytest.mark.parametrize("model,limit", [(MEAN_FIELD_SCF, 6), (FREE, 7)])
def test_solve_mu_occupation_evaluations(monkeypatch, model, limit):
    # counts Bose-vector evaluations over the k >= 2 modes: 6 and 7 measured
    # here for the Newton iteration in x = eps(0) - mu (two Brent roots in
    # nu = mu - lam*rho_tilde needed 59 and 42)
    import robinbec.thermo as thermo

    inp = _input(L=12800.0, rho=1.5 * RHO_C_BETA1_SIGMA1, lam=1.0)
    sizes = []
    record_bose_vectors(monkeypatch, sizes)
    st = solve_mu(inp, model=model)
    assert sum(n > 2 for n, _ in sizes) <= limit
    assert st.density_residual <= 1e-12 * inp.rho


@pytest.mark.parametrize("sigma,L,beta,rho,lam", [
    (-1.0, 20.0, 1.0, 1.0, 1e29), (-1.0, 800.0, 1.0, 1.0, 1e300),
    (-0.0196, 183.8, 735.0, 0.12, 9.5e189), (-4.0, 20.0, 1e90, 50.0, 1e245),
    (-0.0011886075161050285, 4152476287.149368, 1.102195228410279, 448.20366508363946,
     95847352772844.92),
])
def test_solve_mu_huge_lam_evaluations(monkeypatch, sigma, L, beta, rho, lam):
    # where lam*rho_tilde dominates, G jumps up where rho_tilde crosses 0:
    # bisection in t took 34, 33, 48 and 52 evaluations here, the Newton
    # step in the ground-mode occupation from the end where G > 0 takes 5,
    # 3, 8 and 2 (the fourth box had a NaN slope, 0 * inf, so bisected
    # alone).  On the last, beta lam rho eps = 10: the excited sum falls by
    # e^5 per double of x, the iteration stops on a step of 1.5 eps with
    # |G| = 3.6e-9 rho, and one more double of x, walked, ends at 6e-16 rho.
    # On every box beta (D_k + x') overflows expm1 inside the solve, which
    # must raise no RuntimeWarning (pyproject's filterwarnings), and nor may
    # `ladder_sum` called alone at the largest shift the solve took
    import robinbec.thermo as thermo

    inp = _input(sigma=sigma, L=L, beta=beta, rho=rho, lam=lam)
    calls = []
    record_bose_vectors(monkeypatch, calls)
    st = solve_mu(inp, model=MEAN_FIELD_SCF)
    assert sum(n > 2 for n, _ in calls) <= 12
    assert st.density_residual <= 1e-10 * rho
    shift = max(x for n, x in calls if n != 2)  # of the ladder, not the wall pair
    assert beta * shift > math.log(np.finfo(float).max)
    ladder = build_ladder(st.spectrum, beta, inp.plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total, slope, b = ladder_sum(ladder, beta, shift)
    assert total == slope == 0.0 and not b.any()


def test_solve_mu_evaluations_where_lam_rho_tilde_dominates(monkeypatch):
    # lam = 1e9..1e13 on 400 seeded boxes: below the root the excited sum
    # falls by e per unit of beta lam rho_tilde, so Newton steps on G took a
    # median of 28 evaluations and at most 35; the step on the log of its
    # ratio to rho_tilde takes 8 and 11
    import random
    import statistics

    import robinbec.thermo as thermo

    rng = random.Random(2021)
    counts = []
    record_bose_vectors(monkeypatch, counts)
    per_box = []
    for _ in range(400):
        sigma = -10.0 ** rng.uniform(-1.0, 0.3)
        beta = 10.0 ** rng.uniform(-0.5, 0.5)
        L = 10.0 ** rng.uniform(2.0, math.log10(3000.0))
        rho = critical_density(beta, sigma) * 10.0 ** rng.uniform(-0.5, 1.0)
        inp = _input(sigma=sigma, L=L, beta=beta, rho=rho, lam=10.0 ** rng.uniform(9.0, 13.0))
        counts.clear()
        st = solve_mu(inp, model=MEAN_FIELD_SCF)
        assert st.density_residual <= 1e-10 * rho
        per_box.append(sum(n > 2 for n, _ in counts))
    assert statistics.median(per_box) <= 8 and max(per_box) < 36


def _bits(st):
    return st.x.hex(), st.rho_tilde.hex(), st.occ.tobytes()


# the boxes of test_solve_mu_huge_lam_evaluations, and a grid about a box on
# the half-line continuum whose solve walks the doubles of x (found among
# 3000 seeded boxes with lam = 1e6 to 1e16)
HUGE_LAM_BOXES = [(-1.0, 20.0, 1.0, 1.0, 1e29), (-1.0, 800.0, 1.0, 1.0, 1e300),
                  (-0.0196, 183.8, 735.0, 0.12, 9.5e189), (-4.0, 20.0, 1e90, 50.0, 1e245),
                  (-0.0011886075161050285, 4152476287.149368, 1.102195228410279, 448.20366508363946,
                   95847352772844.92)]
WALKING_GRID = (-0.22142450825244592, (120.0, 265.14220999930734, 700.0, 2100.0), 1.6956454077491248,
                4.149035124182118, 5719406189483521.0)


def _random_grids(seed, count, k_max=False):
    """(inputs, model) of seeded grids of 3 to 7 points with L|sigma| from
    3 to 400, across the switch to the half-line continuum; with `k_max`,
    each grid takes the certified cutoff of its largest box."""
    rng = random.Random(seed)
    for n in range(count):
        sigma = -10.0 ** rng.uniform(-0.5, 0.3)
        beta = 10.0 ** rng.uniform(-0.3, 0.3)
        rho = critical_density(beta, sigma) * 10.0 ** rng.uniform(-0.5, 1.0)
        lam = rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 1.0)])
        Ls = sorted(10.0 ** rng.uniform(math.log10(3.0), math.log10(400.0)) / -sigma
                    for _ in range(rng.randint(3, 7)))
        cutoff = suggest_k_max(BoxParams(sigma, Ls[-1]), beta) if k_max else None
        yield ([_input(sigma=sigma, L=L, beta=beta, rho=rho, lam=lam, k_max=cutoff) for L in Ls],
               (FREE, MEAN_FIELD_SCF)[n % 2])


def _grid_cases():
    cases = [("random", inputs, model) for inputs, model in _random_grids(32, 24)]
    cases += [("k_max", inputs, model) for inputs, model in _random_grids(33, 4, k_max=True)]
    cases.append(("huge lam", [_input(*box) for box in HUGE_LAM_BOXES], MEAN_FIELD_SCF))
    sigma, Ls, beta, rho, lam = WALKING_GRID
    cases.append(("walk", [_input(sigma, L, beta, rho, lam) for L in Ls], MEAN_FIELD_SCF))
    # a cutoff past _STACKED_LEVELS, whose occupations there still move the
    # sums' last bits: stacked rows would end elsewhere
    cases.append(("long", [_input(L=L, rho=2.0, lam=0.5, k_max=12000) for L in (5000.0, 6000.0, 7000.0)],
                  MEAN_FIELD_SCF))
    return cases


def test_solve_grid_matches_solve_mu_bit_for_bit(monkeypatch):
    # the lockstep changes no step of any point: each state is the one
    # solve_mu reaches alone, bit for bit in x, rho_tilde and occ, and the
    # grid evaluates the same Bose vectors (length and shift) as the points
    # one at a time, counted per point; the k >= 2 sums of many of the
    # grids, on the continuum and with a given cutoff, are stacked
    paths, stacked = set(), []
    real_sums = thermo._bose_sums

    def sums(levels, *args):
        if np.ndim(levels) == 2:
            stacked.append(case)
        return real_sums(levels, *args)

    cases = _grid_cases()
    for case, (kind, inputs, model) in enumerate(cases):
        seen, alone_seen = [], []
        record_bose_vectors(monkeypatch, seen)
        monkeypatch.setattr(thermo, "_bose_sums", sums)
        states = thermo.solve_grid(inputs, model)
        monkeypatch.undo()
        record_bose_vectors(monkeypatch, alone_seen)
        alone = [solve_mu(inp, model) for inp in inputs]
        monkeypatch.undo()
        assert [_bits(st) for st in states] == [_bits(st) for st in alone], kind
        assert sorted(seen) == sorted(alone_seen), kind
        assert all(st.params is inp for st, inp in zip(states, inputs))
        paths.update((kind, inp.plan.continuum is not None) for inp in inputs)
    assert {("random", False), ("random", True), ("k_max", False), ("huge lam", True),
            ("huge lam", False), ("walk", True)} <= paths
    assert {"random", "k_max", "walk"} <= {cases[case][0] for case in stacked}
    assert len(set(stacked)) >= 10


def test_the_walking_grid_walks(monkeypatch):
    # WALKING_GRID shares one continuum node set, and at least one of its
    # points ends elsewhere, or fails, without the walk over the doubles of x
    sigma, Ls, beta, rho, lam = WALKING_GRID
    inputs = [_input(sigma, L, beta, rho, lam) for L in Ls]
    assert len({(inp.plan.continuum.dp, inp.plan.continuum.nodes) for inp in inputs}) == 1
    walked = [st.x for st in thermo.solve_grid(inputs, MEAN_FIELD_SCF)]
    monkeypatch.setattr(thermo, "_WALK", 0)
    unwalked = []
    for inp in inputs:
        try:
            unwalked.append(solve_mu(inp, MEAN_FIELD_SCF).x)
        except NumericalFailure:
            unwalked.append(None)
    assert walked != unwalked


def test_solve_grid_raises_the_first_failure_in_input_order(monkeypatch):
    # points 2 and 4 fail: the grid raises point 2's error, as solving the
    # points one at a time would, though point 4 fails first in the lockstep
    inputs = [_input(L=L, lam=1.0) for L in (40.0, 80.0, 160.0, 320.0, 640.0)]
    real = thermo._newton

    def newton(inp, model, spectrum, x_lo, x_mid):
        evaluations = {80.0: 3, 320.0: 1}.get(inp.box.L)
        if evaluations is None:
            return (yield from real(inp, model, spectrum, x_lo, x_mid))
        for _ in range(evaluations):
            yield x_mid  # the wall pair
            yield x_mid  # the k >= 2 sum
        raise NumericalFailure(f"injected at L = {inp.box.L:g}")

    monkeypatch.setattr(thermo, "_newton", newton)
    with pytest.raises(NumericalFailure, match="injected at L = 80$"):
        thermo.solve_grid(inputs, MEAN_FIELD_SCF)
    monkeypatch.undo()
    # so does a point that fails before its iteration starts
    too_small = _input(L=10.0, rho=1e-310)
    with pytest.raises(ValidationError, match="too small"):
        thermo.solve_grid(inputs[:2] + [too_small] + inputs[2:], MEAN_FIELD_SCF)
    states = thermo.solve_grid(inputs, MEAN_FIELD_SCF)
    assert [_bits(st) for st in states] == [_bits(solve_mu(inp, MEAN_FIELD_SCF)) for inp in inputs]


def test_input_grid_plans_as_thermo_input_does():
    # one plan pass for all L gives each input the plan ThermoInput makes
    # alone, Continuum tuple and all; the grid stops at its first input
    # that raises and returns that error
    for inputs, _ in _random_grids(34, 12):
        first = inputs[0]
        Ls = [inp.box.L for inp in inputs]
        grid, error = thermo.input_grid(first.box.sigma, Ls, first.beta, first.rho, first.lam)
        assert error is None and grid == inputs
        assert [inp.plan for inp in grid] == [inp.plan for inp in inputs]
    # L|sigma| <= 2 at the first point: nothing but its error
    grid, error = thermo.input_grid(-1.0, [1.5, 40.0], 1.0, 1.0, 0.0)
    assert grid == [] and isinstance(error, thermo.NoSecondBoundState)
    # a given cutoff certified at L = 15 and 20 but not past them
    Ls = [15.0, 20.0, 30.0, 40.0]
    grid, error = thermo.input_grid(-1.0, Ls, 1.0, 1.0, 0.0, k_max=40)
    assert grid == [_input(L=L, k_max=40) for L in Ls[:2]]
    with pytest.raises(CutoffTooSmall) as alone:
        _input(L=30.0, k_max=40)
    assert isinstance(error, CutoffTooSmall) and str(error) == str(alone.value)
    # a box that does not validate stops the grid as well
    grid, error = thermo.input_grid(-1.0, [40.0, math.inf], 1.0, 1.0, 0.0)
    assert grid == [_input(L=40.0)] and "L must be finite" in str(error)


def test_state_wall_pair_from_one_solve(monkeypatch):
    # solve_mu reads the roots and the table's wall offsets: one wall-pair
    # solve, no derived spectrum column, and the table the state keeps has
    # the gap and offsets of the box's own table bit for bit
    import robinbec.spectrum as spectrum

    calls = {name: 0 for name in ("_wall_roots", "_wall_columns", "_ladder_columns")}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(spectrum, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spectrum, name, counted)
    for sigma, L in REFERENCE_BOXES:
        inp = _input(sigma=sigma, L=L, lam=1.0)
        calls["_wall_roots"] = 0
        st = solve_mu(inp, model=MEAN_FIELD_SCF)
        assert calls == {"_wall_roots": 1, "_wall_columns": 0, "_ladder_columns": 0}
        table = build_spectrum(inp.box, 1)
        assert st.spectrum.k_max == inp.plan.head and st.spectrum.params == inp.box
        assert st.spectrum.wall_gap == table.wall_gap
        assert st.spectrum.wall_level_offsets == table.wall_level_offsets


@pytest.mark.parametrize("L,lam,rho", [(10.0, 1.0, 0.6), (250.0, 1.0, 1.0), (3200.0, 0.3, 2.0),
                                       (400.0, 2.0, 0.05)])
def test_scf_state_is_its_own_fixed_point(L, lam, rho):
    inp = _input(L=L, rho=rho, lam=lam)
    st = solve_mu(inp, model=MEAN_FIELD_SCF)
    eps, occ = st.epsilons, st.occ
    shifted = 1.0 / np.expm1(inp.beta * (eps[2:] - st.mu + lam * st.rho_tilde))
    np.testing.assert_allclose(occ[2:], shifted, rtol=1e-13, atol=0.0)
    # the same on a table to 3x the certified cutoff, whose k >= 2 modes
    # the head lacks on the continuum path (L >= 250 here)
    table = build_spectrum(inp.box, 3 * suggest_k_max(inp.box, inp.beta))
    full = st.occupations(table)
    shifted = 1.0 / np.expm1(inp.beta * (table.epsilons[2:] - st.mu + lam * st.rho_tilde))
    np.testing.assert_allclose(full[2:], shifted, rtol=1e-13, atol=0.0)
    # rho_tilde is the ladder's sum at the state's x, and that sum is
    # within the certificate of the explicit one to 3x the certified cutoff
    ladder = build_ladder(st.spectrum, inp.beta, inp.plan)
    shift = st.x + lam * max(rho - st.rho_cond_finite, 0.0)
    assert st.rho_tilde == ladder_sum(ladder, inp.beta, shift)[0] / L
    assert abs(st.rho_tilde - full[2:].sum() / L) <= 1e-15 * st.rho_tilde + inp.plan.certificate
    walls = 1.0 / np.expm1(inp.beta * (np.array([0.0, bound_state_gap(inp.box)]) + st.x))
    np.testing.assert_array_equal(occ[:2], walls)
    # mu = eps(0) - x rounds at ulp(eps(0)), which moves beta*(eps_k - mu)
    # by ulp(eps(0))/x relative
    rtol = 1e-14 + 2.0 * math.ulp(eps[0]) / st.x
    np.testing.assert_allclose(occ[:2], 1.0 / np.expm1(inp.beta * (eps[:2] - st.mu)), rtol=rtol)


def test_solve_mu_cutoff_certificate():
    # a head whose ladder certificate and truncated tail both miss the
    # tolerance is rejected; the profile's cutoff certifies its own tail
    box = BoxParams(sigma=-1.0, L=50.0)
    with pytest.raises(CutoffTooSmall):
        solve_mu(ThermoInput(box=box, beta=1.0, rho=1.0, lam=0.0, k_max=5,
                             cutoff_tol=1e-30), model=FREE)
    tail = certified_density_tail(box, 1.0, suggest_k_max(box, 1.0))
    assert tail < 1e-10


@pytest.mark.parametrize("sigma,L,beta", [
    # boxes whose default cutoff once failed the check the solve took at eps(0)
    (-0.19257894301031425, 10.385428016585738, 20.56563665862788),
    (-4.1205447190168085, 0.5321989074440958, 0.062001604993144395),
    (-1.0, 2.0 + 1e-9, 1.0), (-1.0, 50.0, 0.3), (-0.5, 200.0, 5.0), (-3.0, 1.0, 0.01),
])
def test_certified_tail_bounds_the_dropped_modes_at_eps0(sigma, L, beta):
    # mu = eps(0), the top of the range the bound covers, maximizes every
    # occupation; modes past K add at most the bound at K, 1e-6 of the one tested
    box = BoxParams(sigma, L)
    for k_max in (2, 5, suggest_k_max(box, beta)):
        bound = certified_density_tail(box, beta, k_max)
        K = k_max
        while certified_density_tail(box, beta, K) > 1e-6 * bound:
            K = 2 * K + 10
        q = build_spectrum(box, K).wavenumbers
        with np.errstate(over="ignore"):
            dropped = float(np.sum(1.0 / np.expm1(beta * (q[k_max + 1:] ** 2 + q[0] ** 2)))) / L
        assert dropped <= bound, (k_max, dropped, bound)


def test_scf_matches_gibbs_oracle_at_small_scale():
    # same mu in both machines: wall modes agree exactly, k >= 2 modes sit
    # inside the envelope between the shifted-free law and its upper bound
    inp = _input(L=10.0, rho=0.6, lam=1.0, k_max=6, cutoff_tol=0.2)
    st = solve_mu(inp, model=MEAN_FIELD_SCF)
    table = build_spectrum(inp.box, inp.k_max)
    model = ModelParams(box=inp.box, beta=inp.beta, mu=st.mu, lam=inp.lam)
    spec = make_truncation(table, model, tol=1e-11)
    for k in (0, 1):
        exact = grand_expectation(DiagonalObservable.mode_number(k), spec)
        assert abs(st.occ[k] - exact) <= 1e-10 * max(1.0, exact)
    for k in range(2, 7):
        exact = grand_expectation(DiagonalObservable.mode_number(k), spec)
        bound = 1.0 / math.expm1(occupation_bound_exponent(k, spec))
        gap_width = bound - min(st.occ[k], exact)
        assert abs(st.occ[k] - exact) <= gap_width + 1e-9
        # both machines respect the occupation bound
        assert st.occ[k] <= bound + 1e-9
        assert exact <= bound + 1e-9


def test_scf_never_exceeds_occupation_bound():
    # on the solve's head (L = 15, the ladder) and on a table to the
    # certified cutoff, which the continuum's head (L = 40) lacks
    for L in (15.0, 40.0):
        inp = _input(L=L, rho=1.0, lam=1.0)
        st = solve_mu(inp, model=MEAN_FIELD_SCF)
        beta, lam = inp.beta, inp.lam
        for table in (st.spectrum, build_spectrum(inp.box, suggest_k_max(inp.box, beta))):
            eps = table.epsilons
            c = beta * (eps[2:] - eps[0] - 0.5 * lam / inp.box.L)
            bounds = 1.0 / np.expm1(c)
            assert np.all(st.occupations(table)[2:] <= bounds * (1.0 + 1e-12))


def test_equal_distribution_gap_positive_and_stable():
    st = solve_mu(_input(L=12.0, rho=1.0, lam=1.0), model=MEAN_FIELD_SCF)
    gap = equal_distribution_gap(st)
    naive = (st.occ[0] - st.occ[1]) / st.params.box.L
    assert gap > 0.0
    assert abs(gap - naive) <= 1e-6 * gap  # resolvable regime: formulas agree
    # far beyond double-resolution of eps1 - eps0 the gap stays finite and positive
    st_big = solve_mu(_input(L=100.0, rho=1.0, lam=1.0), model=MEAN_FIELD_SCF)
    gap_big = equal_distribution_gap(st_big)
    assert 0.0 < gap_big < 1e-30


@pytest.mark.parametrize("beta", [1e8, 1e300])
def test_equal_distribution_gap_at_huge_beta(beta):
    # mu rounds near (1e8) or onto (1e300) eps(0) here, so beta*(eps0 - mu)
    # is off by ulp(eps0)/x relative or is 0; the gap reads x itself
    inp = _input(L=20.0, beta=beta)
    st = solve_mu(inp, model=FREE)
    with np.errstate(over="ignore"):  # beta*gap overflows at beta = 1e300: occ_1 = 0
        occ = 1.0 / np.expm1(beta * (np.array([0.0, bound_state_gap(inp.box)]) + st.x))
    expected = (occ[0] - occ[1]) / inp.box.L
    assert expected > 0.0
    assert abs(equal_distribution_gap(st) - expected) <= 1e-14 * expected


def test_gap_decay_rate():
    Ls = np.geomspace(8.0, 36.0, 7)
    gaps = []
    for L in Ls:
        st = solve_mu(_input(L=float(L), rho=1.0, lam=1.0), model=MEAN_FIELD_SCF)
        gaps.append(equal_distribution_gap(st))
    rate = fit_exponential_rate(Ls, gaps)
    assert rate >= 0.9


def test_mu_asymptotics_free_gas_against_critical_density():
    # exact large-L reference for the free gas: rho_cond = rho - rho_c
    states = [solve_mu(_input(L=float(L), rho=1.0), model=FREE)
              for L in np.geomspace(50.0, 800.0, 8)]
    rc = critical_density(1.0, -1.0)
    report = mu_asymptotics_check(states, rho_cond=1.0 - rc)
    assert report.passed
    assert report.rel_error < 0.01
    assert abs(report.reference - (-2.0 / (1.0 - rc))) < 1e-12


def test_mu_asymptotics_scf_against_measured_condensate():
    states = [solve_mu(_input(L=float(L), rho=1.0, lam=1.0), model=MEAN_FIELD_SCF)
              for L in np.geomspace(50.0, 800.0, 8)]
    report = mu_asymptotics_check(states)
    assert report.passed
    # wall-law inversion: mu_L = eps0 - (1/beta) ln(1 + 1/occ0) exactly
    st = states[-1]
    mu_from_occ = st.epsilons[0] - math.log1p(1.0 / st.occ[0]) / st.params.beta
    assert abs(mu_from_occ - st.mu) < 1e-12 * abs(st.mu)
    # each wall mode carries half the condensate in the large-L limit
    assert abs(st.occ[0] / st.params.box.L - 0.5 * st.rho_cond_finite) \
        < 1e-6 * st.rho_cond_finite


def test_mu_asymptotics_requires_condensing():
    states = [solve_mu(_input(L=float(L), rho=0.05), model=FREE)
              for L in np.geomspace(50.0, 200.0, 5)]
    with pytest.raises(NotCondensing):
        mu_asymptotics_check(states)


def test_mu_asymptotics_requires_five_states():
    states = [solve_mu(_input(L=float(L), rho=1.0), model=FREE)
              for L in (50.0, 100.0, 200.0)]
    with pytest.raises(ValidationError):
        mu_asymptotics_check(states)


def test_fits_need_two_distinct_L():
    # one box fitted several times: polyfit warned of a rank deficit and
    # returned a limit and a rate from a single point
    states = {L: solve_mu(_input(L=L, rho=1.0), model=FREE) for L in (50.0, 100.0, 200.0)}
    sweep = [states[L] for L in (50.0, 100.0, 200.0, 200.0, 200.0)]
    with pytest.raises(ValidationError, match="two distinct L among the 3 largest"):
        mu_asymptotics_check(sweep)
    mu_asymptotics_check(sweep[:2] + [states[100.0]] + sweep[3:])  # 100, 200, 200 on top
    with pytest.raises(ValidationError, match="two distinct L"):
        fit_exponential_rate([100.0] * 5, [1e-3] * 5)
    with pytest.raises(ValidationError, match="two distinct L"):  # the positive ones
        fit_exponential_rate([50.0, 100.0, 100.0, 100.0], [-1.0, 1e-3, 2e-3, 3e-3])


def test_sweep_csv_format(tmp_path):
    states = [solve_mu(_input(L=float(L), rho=1.0), model=FREE)
              for L in (20.0, 40.0)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(states, path, comment_lines=["model = free"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# model = free"
    assert lines[1] == ("L,mu,eps0,eps1,occ0_per_L,occ1_per_L,rho_tilde,gap,"
                        "mu_plus_sigma2_times_L")
    row = lines[2].split(",")
    assert len(row) == 9
    assert float(row[0]) == 20.0


def _per_row_sweep_csv(states, gaps, comment_lines):
    """The sweep CSV as a per-row f-string writer made it."""
    lines = [f"# {line}\n" for line in comment_lines]
    lines.append("L,mu,eps0,eps1,occ0_per_L,occ1_per_L,rho_tilde,gap,mu_plus_sigma2_times_L\n")
    for st, gap in zip(states, gaps):
        L = st.params.box.L
        row = (L, st.mu, st.epsilons[0], st.epsilons[1], st.occ[0] / L, st.occ[1] / L,
               st.rho_tilde, gap, thermo._scaled_mu_offset(st))
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines).encode()


def test_sweep_csv_matches_per_row_format(tmp_path, monkeypatch):
    # an L one ulp above 200, and a gap of exactly 0 next to real ones
    states = [solve_mu(_input(L=L, rho=rho, lam=lam), model=model)
              for L, rho, lam, model in ((20.0, 1.0, 0.0, FREE), (200.00000000000003, 3.0, 0.7,
                                         MEAN_FIELD_SCF), (1600.0, 0.5, 0.0, FREE))]
    gaps = [equal_distribution_gap(st) for st in states]
    gaps[1] = 0.0
    by_state = {id(st): gap for st, gap in zip(states, gaps)}
    monkeypatch.setattr(thermo, "equal_distribution_gap", lambda st: by_state[id(st)])
    comments = ["robinbec 0", "model = free"]
    path = tmp_path / "sweep.csv"
    assert write_sweep_csv(states, path, comment_lines=comments) == gaps
    assert path.read_bytes() == _per_row_sweep_csv(states, gaps, comments)
    assert b",0," in path.read_bytes().splitlines()[4]  # the row of states[1]


def test_thermo_input_validation():
    box = BoxParams(-1.0, 10.0)
    with pytest.raises(ValidationError):
        ThermoInput(box=box, beta=0.0, rho=1.0, lam=0.0, k_max=10)
    with pytest.raises(ValidationError):
        ThermoInput(box=box, beta=1.0, rho=-1.0, lam=0.0, k_max=10)
    with pytest.raises(ValidationError):
        ThermoInput(box=box, beta=1.0, rho=1.0, lam=-0.5, k_max=10)
    with pytest.raises(ValidationError):
        solve_mu(_input(L=10.0), model="bogus")


@pytest.mark.parametrize("k_max", [None, 10])
def test_box_below_the_ladder_scale_is_rejected_before_its_plan(monkeypatch, k_max):
    # (pi/L)^2 + sigma^2 = 1e-340 underflows: plan_ladder's remainders
    # divided by a weight that underflowed to 0.  The input is rejected
    # with spectrum's own words before any plan is made, alone and on a grid
    import robinbec.spectrum as spectrum

    box = BoxParams(-1e-170, 1e171)
    with pytest.raises(ValidationError) as alone:
        spectrum.check_ladder_scale(box)
    for name in ("_cutoff_plan", "_head_plan", "continuum_plan"):
        monkeypatch.setattr(thermo, name, lambda *a: pytest.fail("a plan was made"))
    with pytest.raises(ValidationError) as rejected:
        ThermoInput(box=box, beta=1.0, rho=1.0, lam=0.0, k_max=k_max)
    assert str(rejected.value) == str(alone.value)
    grid, error = thermo.input_grid(-1e-170, [1e171, 1e180], 1.0, 1.0, 0.0, k_max=k_max)
    assert grid == [] and str(error) == str(alone.value)
    # the least box that passes, L|sigma| = 2.5 at sigma = -1e-154
    spectrum.check_ladder_scale(BoxParams(-1e-154, 2.5e154))


def test_thermo_input_certifies_its_own_cutoff(monkeypatch):
    import robinbec.thermo as thermo

    # L|sigma| = 12 is below the switch to the half-line continuum at each
    # (beta, cutoff_tol): the head search; at 40 it is past it at each
    box = BoxParams(-1.0, 12.0)
    for beta, tol in ((1.0, 1e-10), (0.3, 1e-6), (5.0, 1e-14)):
        assert thermo.continuum_plan(box, beta, tol) is None
        inp = ThermoInput(box=box, beta=beta, rho=1.0, lam=0.0, cutoff_tol=tol)
        # the first head on the search sequence whose certificate reaches tol
        head = inp.plan.head
        heads = [2]
        while heads[-1] < head:
            heads.append(2 * heads[-1] + 2)
        assert inp.k_max is None and heads[-1] == head and inp.plan == plan_ladder(box, beta, head, tol)
        assert all(plan_ladder(box, beta, k, tol).certificate > tol for k in heads[:-1])
        assert inp.plan.certificate <= tol
        assert solve_mu(inp).epsilons.shape == (head + 1,)
        # past the switch: the continuum's trapezoid on the wall pair, certified
        far = BoxParams(-1.0, 40.0)
        continuum = thermo.continuum_plan(far, beta, tol)
        inp = ThermoInput(box=far, beta=beta, rho=1.0, lam=0.0, cutoff_tol=tol)
        assert inp.k_max is None and inp.plan == thermo.LadderPlan(1, 0, (), continuum.density_certificate,
                                                                   continuum)
        assert inp.plan.certificate <= 0.75 * tol and continuum.certificate <= tol
        assert solve_mu(inp).epsilons.shape == (2,)
    # a given k_max whose certified tail exceeds cutoff_tol is rejected
    with pytest.raises(CutoffTooSmall, match="certified k_max tail 1.445e-02"):
        ThermoInput(box=BoxParams(-1.0, 3.0), beta=1.0, rho=1.0, lam=0.0, k_max=2)
    # every other field is checked first: a bad cutoff_tol or beta never
    # reaches the head search
    monkeypatch.setattr(thermo, "_head_plan", lambda *a: pytest.fail("head searched"))
    monkeypatch.setattr(thermo, "plan_ladder", lambda *a: pytest.fail("head planned"))
    monkeypatch.setattr(thermo, "continuum_plan", lambda *a: pytest.fail("continuum planned"))
    for bad, needle in (({"cutoff_tol": 0.0}, "cutoff_tol must be"),
                        ({"cutoff_tol": 1.5}, "cutoff_tol must be"),
                        ({"beta": 0.0}, "beta must be"),
                        ({"k_max": 1}, "k_max must be")):
        with pytest.raises(ValidationError, match=needle):
            ThermoInput(**{"box": box, "beta": 1.0, "rho": 1.0, "lam": 0.0, **bad})
    # a given k_max is kept as given and is a mode cutoff: the truncated sum
    # alone, which plans neither a ladder nor the continuum, past the switch
    # as below it
    for L in (12.0, 200.0):
        far = BoxParams(-1.0, L)
        k_max = suggest_k_max(far, 1.0)
        given = ThermoInput(box=far, beta=1.0, rho=1.0, lam=0.0, k_max=k_max)
        assert given.k_max == k_max
        assert given.plan == thermo.LadderPlan(k_max, 0, (), certified_density_tail(far, 1.0, k_max))


def test_replace_plans_an_auto_input_again():
    # k_max stays None on an auto input, so dataclasses.replace plans the
    # new input as a fresh one would: the continuum input with a new rho,
    # and the ladder's head of L = 12 moved onto the continuum of L = 400
    from dataclasses import replace

    inp = ThermoInput(box=BoxParams(-1.0, 200.0), beta=1.0, rho=1.0, lam=0.0)
    assert inp.plan.head == 1 and inp.k_max is None
    moved = replace(inp, rho=2.0)
    assert moved == ThermoInput(box=BoxParams(-1.0, 200.0), beta=1.0, rho=2.0, lam=0.0)
    assert moved.plan == inp.plan and solve_mu(moved).density_residual <= 1e-10 * 2.0
    small = ThermoInput(box=BoxParams(-1.0, 12.0), beta=1.0, rho=1.0, lam=0.0)
    assert small.plan.head > 1 and small.plan.continuum is None
    moved = replace(small, box=BoxParams(-1.0, 400.0))
    fresh = ThermoInput(box=BoxParams(-1.0, 400.0), beta=1.0, rho=1.0, lam=0.0)
    assert moved == fresh and moved.plan == fresh.plan and moved.plan.head == 1
    assert moved.plan.continuum is not None and solve_mu(moved).spectrum.k_max == 1


def test_state_reads_derived_values_from_its_fields():
    # mu, the wall-pair density and the energies are read from the table, x
    # and occ, so a state with replaced occupations carries no stale copy of
    # them; rho_tilde is the solve's sum over every mode, kept as solved
    from dataclasses import replace

    st = solve_mu(_input(L=60.0, lam=1.0), model=MEAN_FIELD_SCF)
    L = st.params.box.L
    assert st.mu == float(st.spectrum.epsilons[0]) - st.x
    assert st.epsilons is st.spectrum.epsilons
    occ = np.linspace(1.0, 2.0, len(st.occ))
    other = replace(st, occ=occ)
    assert other.rho_tilde == st.rho_tilde
    assert other.rho_cond_finite == float((occ[0] + occ[1]) / L) != st.rho_cond_finite
    assert other.density_residual == abs(other.rho_tilde + other.rho_cond_finite - 1.0)
