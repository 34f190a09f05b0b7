"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured margins.  Tolerances are fixed here, not tuned at run
time; every reference value is either exact arithmetic, an independent
oracle run in-process (finite differences, brute-force enumeration,
a directly summed series), or a stable closed-form rearrangement.
"""

import math
import time
from functools import lru_cache

import numpy as np

from helpers_bruteforce import enum_constrained_z, enum_expectation
from helpers_fd import boundary_residual_scale, fd_eigenvalues_richardson

from robinbec.gibbs_oracle import (
    DiagonalObservable,
    ModelParams,
    constrained_partition,
    grand_expectation,
    make_truncation,
    number_poly,
    run_check,
    shifted_number_poly,
    TruncationSpec,
)
from robinbec.profile import density_profile, localization_radius, profile_cutoff, profile_mass
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import (
    FREE,
    MEAN_FIELD_SCF,
    ThermoInput,
    critical_density,
    equal_distribution_gap,
    fit_exponential_rate,
    mu_asymptotics_check,
    solve_mu,
)


def _announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _solve_point(L, rho=1.0, lam=1.0, model=MEAN_FIELD_SCF, sigma=-1.0, beta=1.0):
    inp = ThermoInput(box=BoxParams(sigma=sigma, L=float(L)), beta=beta, rho=rho, lam=lam)
    return solve_mu(inp, model=model)


@lru_cache(maxsize=None)
def _main_sweep(model):
    return tuple(_solve_point(L, lam=(1.0 if model == MEAN_FIELD_SCF else 0.0),
                              model=model)
                 for L in np.geomspace(50.0, 800.0, 8))


def test_criterion_1_spectrum_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst_fd = 0.0
    worst_res = 0.0
    for _ in range(20):
        s = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        L = float(rng.uniform(3.0, 60.0)) / s
        params = BoxParams(sigma=-s, L=L)
        table = build_spectrum(params, 30)
        eps, lo, hi = table.epsilons, table.bracket_lo, table.bracket_hi
        assert np.all(lo <= eps) and np.all(eps <= hi)
        assert np.all(lo[2:] < eps[2:]) and np.all(eps[2:] < hi[2:])
        for k in range(table.k_max + 1):
            scaled = table.residuals[k] / boundary_residual_scale(table, k)
            worst_res = max(worst_res, scaled)
            assert scaled <= 1e-10
        fd = fd_eigenvalues_richardson(params, 2500, 6)
        err = float(np.max(np.abs(fd - table.epsilons[:6])))
        worst_fd = max(worst_fd, err)
        assert err < 1e-6
    elapsed = time.perf_counter() - t0
    _announce(1, elapsed < 10.0,
              f"20 random boxes, k <= 30: brackets exact, max scaled residual "
              f"{worst_res:.2e} <= 1e-10, max |solver - FD oracle| {worst_fd:.2e} "
              f"<= 1e-6 on eps0..eps5 ({elapsed:.2f}s < 10s)")


def test_criterion_2_bound_state_asymptotics():
    t0 = time.perf_counter()
    rates = {}
    for s in (1.0, 2.0):
        Ls = np.geomspace(10.0 / s, 60.0 / s, 8)
        offsets, gaps = [], []
        for L in Ls:
            table = build_spectrum(BoxParams(sigma=-s, L=float(L)), 1)
            offsets.append(table.wall_level_offsets[0])
            gaps.append(table.wall_gap)
        r_off = fit_exponential_rate(Ls, offsets)
        r_gap = fit_exponential_rate(Ls, gaps)
        rates[s] = (r_off, r_gap)
        assert r_off >= 0.95 * s
        assert r_gap >= 0.95 * s
    elapsed = time.perf_counter() - t0
    _announce(2, elapsed < 5.0,
              f"decay rates |eps0+s^2| / gap: s=1: {rates[1.0][0]:.4f}/"
              f"{rates[1.0][1]:.4f}, s=2: {rates[2.0][0]:.4f}/{rates[2.0][1]:.4f}, "
              f"all >= 0.95*s ({elapsed:.2f}s < 5s)")


def test_criterion_3_oracle_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    n_instances = 50
    for _ in range(n_instances):
        sigma = -float(rng.uniform(0.5, 2.0))
        L = float(rng.uniform(5.0, 25.0))
        k_top = int(rng.integers(2, 6))  # K <= 5
        table = build_spectrum(BoxParams(sigma, L), k_top)
        beta = float(rng.uniform(0.3, 2.5))
        mu = float(table.epsilons[0] - rng.uniform(0.05, 1.5))
        lam = float(rng.uniform(0.0, 2.0))
        model = ModelParams(box=table.params, beta=beta, mu=mu, lam=lam)
        window = int(rng.integers(1, 5))  # window <= 4
        caps = tuple(int(c) for c in rng.integers(1, 5, size=2))  # wall caps <= 4
        spec = TruncationSpec(table, model, caps, window)
        # window sums against full enumeration: every mode capped at the
        # window holds every configuration with ntil <= window
        z = np.exp(constrained_partition(spec).log_z)
        ref_z = enum_constrained_z(list(table.epsilons[2:]), beta, [window] * (k_top - 1))
        ref_z = np.asarray(ref_z[: window + 1])
        rel_z = float(np.max(np.abs(z - ref_z) / ref_z))
        worst = max(worst, rel_z)
        assert rel_z <= 1e-12
        # one random diagonal observable against full joint enumeration
        factors = {}
        wall_k = int(rng.integers(0, 2))
        factors[wall_k] = number_poly(int(rng.integers(1, 3)))
        exc_k = int(rng.integers(2, k_top + 1))
        factors[exc_k] = shifted_number_poly(int(rng.integers(1, 3)))
        obs = DiagonalObservable(
            factors=tuple(sorted(factors.items())),
            ntilde_poly=(0.0, 1.0) if rng.random() < 0.5 else None,
        )
        val = grand_expectation(obs, spec)
        ref = enum_expectation(list(table.epsilons), beta, mu, lam, L,
                               list(caps) + [window] * (k_top - 1), factors,
                               ntilde_poly=obs.ntilde_poly, window=window)
        rel = abs(val - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 1e-12
    elapsed = time.perf_counter() - t0
    _announce(3, elapsed < 30.0,
              f"{n_instances} random instances (K <= 5, window and wall caps <= 4): "
              f"window sums and expectations match enumeration, worst rel dev {worst:.2e} <= 1e-12 "
              f"({elapsed:.2f}s < 30s)")


def test_criterion_4_exchange_identity_and_wall_law():
    t0 = time.perf_counter()
    points = []
    for sigma, L in ((-1.0, 10.0), (-1.5, 8.0)):
        table = build_spectrum(BoxParams(sigma, L), 5)
        eps0 = table.epsilons[0]
        for lam in (0.0, 0.5, 1.0, 2.0):
            model = ModelParams(box=table.params, beta=1.0, mu=eps0 - 0.5, lam=lam)
            spec = make_truncation(table, model, tol=1e-12)
            points.append(("exchange", spec, {"j": 1, "targets": [(0, 1)]}))
        for lam, beta in ((0.5, 0.7), (1.0, 1.0), (2.0, 1.4)):
            model = ModelParams(box=table.params, beta=beta, mu=eps0 - 0.8, lam=lam)
            spec = make_truncation(table, model, tol=1e-12)
            points.append(("exchange", spec, {"j": 0, "targets": [(1, 2)]}))
            points.append(("exchange", spec, {"j": 2, "targets": [(3, 2), (4, 1)]}))
            points.append(("exchange", spec, {"j": 4, "targets": [(2, 1), (3, 1)]}))
    assert len(points) >= 20
    worst = 0.0
    for name, spec, kw in points:
        rep = run_check(name, spec, **kw)
        assert rep["pass"] is True, rep
        scale = max(1.0, abs(rep["lhs"]), abs(rep["rhs"]))
        worst = max(worst, abs(rep["residual"]) / scale)
    # wall-mode occupation law reproduced across a lambda grid
    table = build_spectrum(BoxParams(-1.0, 10.0), 5)
    for lam in (0.0, 0.5, 1.0, 2.0):
        model = ModelParams(box=table.params, beta=1.0, mu=-1.6, lam=lam)
        spec = make_truncation(table, model, tol=1e-12)
        for k in (0, 1):
            rep = run_check("wall-occupation", spec, k=k)
            assert rep["pass"] is True, rep
    elapsed = time.perf_counter() - t0
    _announce(4, True,
              f"exchange identity on {len(points)} points incl. (j=1,k=0): all "
              f"within certified budget (worst scaled residual {worst:.2e}); "
              f"wall occupation law exact across the lambda grid ({elapsed:.2f}s)")


def test_criterion_5_inequality_grid_and_saturation():
    t0 = time.perf_counter()
    table = build_spectrum(BoxParams(-1.0, 10.0), 6)
    eps = table.epsilons
    n_points = 0
    for beta in (0.5, 1.0, 2.0, 4.0):
        for off in (0.1, 0.3, 1.0, 3.0):
            for lam in (0.5, 1.0, 2.0):
                model = ModelParams(box=table.params, beta=beta,
                                    mu=float(eps[0] - off), lam=lam)
                spec = make_truncation(table, model, tol=1e-11)
                for (k, n) in ((2, 0), (3, 2)):
                    rep = run_check("moment-inequality", spec, k=k, n=n)
                    assert rep["pass"] is True, rep
                for k in (2, 3, 4, 5, 6):
                    rep = run_check("occupation-bound", spec, k=k)
                    assert rep["pass"] is True, rep
                n_points += 1
    # free-limit saturation: lam = 0, mu = eps(0) makes the bound an equality
    model0 = ModelParams(box=table.params, beta=1.0, mu=float(eps[0]), lam=0.0)
    spec0 = TruncationSpec(table, model0, (5, 5), 120)
    assert spec0.window_tail <= 1e-11
    max_sat = 0.0
    for k in (2, 3, 4):
        occ = grand_expectation(DiagonalObservable.mode_number(k), spec0)
        saturated = 1.0 / math.expm1(model0.beta * (eps[k] - eps[0]))
        max_sat = max(max_sat, abs(occ - saturated) / saturated)
        assert abs(occ - saturated) <= 1e-10 * saturated
    elapsed = time.perf_counter() - t0
    _announce(5, elapsed < 60.0,
              f"moment inequality and occupation bound hold at all {n_points} "
              f"(beta, mu, lambda) grid points; free-limit saturation to "
              f"{max_sat:.2e} <= 1e-10 ({elapsed:.2f}s < 60s)")


def test_criterion_6_condensate_floor_at_desk_scale():
    t0 = time.perf_counter()
    rc = critical_density(1.0, -1.0)
    # the Boltzmann series summed term by term, no tail closure: e^{-n}
    # falls below 1e-26 by n = 60
    rc_direct = math.fsum(math.exp(-n) / math.sqrt(n) for n in range(1, 61)) / (
        2.0 * math.sqrt(math.pi))
    assert abs(rc - rc_direct) <= 1e-15
    states = _main_sweep(MEAN_FIELD_SCF)
    floor = 1.0 - rc - 0.01
    margins = [st.rho_cond_finite - floor for st in states]
    assert all(m >= 0.0 for m in margins)
    elapsed = time.perf_counter() - t0
    _announce(6, True,
              f"sweep L in [50, 800] (sigma=-1, beta=1, lambda=1, rho=1): "
              f"(occ0+occ1)/L >= rho - rho_c - 0.01 everywhere (min margin "
              f"{min(margins):.4f}); rho_c against the direct series "
              f"{abs(rc - rc_direct):.2e} <= 1e-15 ({elapsed:.2f}s)")


def test_criterion_7_equal_distribution_and_mu_asymptotics():
    t0 = time.perf_counter()
    # exponential equal-distribution gap over a geometric L-grid
    Ls = np.geomspace(8.0, 36.0, 7)
    gaps = [equal_distribution_gap(_solve_point(L)) for L in Ls]
    rate = fit_exponential_rate(Ls, gaps)
    assert rate >= 0.9
    # chemical-potential asymptotics against the measured condensate density
    report = mu_asymptotics_check(_main_sweep(MEAN_FIELD_SCF))
    assert report.passed and report.rel_error <= 0.05
    # free-gas cross-check against the exact reference rho - rho_c
    rc = critical_density(1.0, -1.0)
    report_free = mu_asymptotics_check(_main_sweep(FREE), rho_cond=1.0 - rc)
    assert report_free.passed and report_free.rel_error <= 0.05
    elapsed = time.perf_counter() - t0
    _announce(7, elapsed < 60.0,
              f"gap decay rate {rate:.4f} >= 0.9; (mu+sigma^2)L limit "
              f"{report.limit_estimate:.5f} vs -2/(beta rho_cond) "
              f"{report.reference:.5f} (rel {report.rel_error:.2%} <= 5%), free-gas "
              f"cross-check rel {report_free.rel_error:.2%} ({elapsed:.2f}s < 60s)")


def test_criterion_8_profile_diagnostics():
    t0 = time.perf_counter()
    rc = critical_density(1.0, -1.0)
    Ls = np.geomspace(50.0, 400.0, 7)
    radii, n_cond, worst_mass = [], [], 0.0
    for L in Ls:
        st = _solve_point(L, lam=0.0, model=FREE)
        table = build_spectrum(st.params.box, profile_cutoff(st.params))
        n_coarse = 2 ** max(13, int(math.ceil(math.log2(40.0 * L)))) + 1
        fine = density_profile(table, st, 2 * n_coarse - 1)
        coarse = density_profile(table, st, n_coarse)
        mass = (4.0 * profile_mass(fine) - profile_mass(coarse)) / 3.0
        occ = st.occupations(table)
        rel_mass = abs(mass - occ.sum()) / occ.sum()
        worst_mass = max(worst_mass, rel_mass)
        assert rel_mass <= 1e-8
        sym = np.max(np.abs(fine.n_total - fine.n_total[::-1]))
        assert sym <= 1e-12 * fine.n_total.max()
        radii.append(localization_radius(fine, 0.9))
        n_cond.append(st.occ[0] + st.occ[1])
    top = [r for L, r in zip(Ls, radii) if L >= Ls[-1] / 2.0]
    variation = (max(top) - min(top)) / np.mean(top)
    assert variation < 0.10
    slope = float(np.polyfit(Ls, n_cond, 1)[0])
    rel_slope = abs(slope / (1.0 - rc) - 1.0)
    assert rel_slope <= 0.05
    elapsed = time.perf_counter() - t0
    _announce(8, True,
              f"mass conserved to {worst_mass:.2e} <= 1e-8, symmetry exact, "
              f"radius(0.9) top-octave variation {variation:.2e} < 10%, condensate "
              f"number slope {slope:.5f} = rho_cond {1.0 - rc:.5f} +/- 5% "
              f"(rel {rel_slope:.2%}) ({elapsed:.2f}s)")
