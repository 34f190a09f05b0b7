import json
import math

import mpmath
import numpy as np
import pytest

from helpers_bruteforce import enum_constrained_z, enum_expectation, enum_expectation_split
from helpers_caps import moment_tail, per_mode_caps, stepwise_truncation

import robinbec.gibbs_oracle as gibbs_oracle
from robinbec.errors import ValidationError
from robinbec.gibbs_oracle import (
    BadMode,
    CapOverflow,
    DiagonalObservable,
    IndexClash,
    ModelParams,
    NonpositiveGap,
    TruncationSpec,
    UnknownMode,
    check_moment_log_inequality,
    check_occupation_bound,
    check_wall_mode_occupation,
    constrained_partition,
    exchange_identity_sides,
    grand_expectation,
    make_truncation,
    number_poly,
    run_check,
    shifted_number_poly,
    truncation_for_check,
)
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import suggest_k_max


def _setup(sigma=-1.0, L=10.0, beta=1.0, mu=-1.5, lam=1.0, k_top=5, caps=None, window=None,
           tol=1e-12):
    box = BoxParams(sigma=sigma, L=L)
    table = build_spectrum(box, k_top)
    model = ModelParams(box=box, beta=beta, mu=mu, lam=lam)
    if caps is None:
        spec = make_truncation(table, model, tol=tol)
    else:
        spec = TruncationSpec(table, model, caps, window)
    return table, model, spec


def bose(x):
    return 1.0 / math.expm1(x)


# ----------------------------------------------------------------------
# constrained partition sums on the window
# ----------------------------------------------------------------------

def test_single_mode_geometric():
    table, model, spec = _setup(k_top=2, caps=(3, 3), window=2)
    w = math.exp(-model.beta * table.epsilons[2])
    z = np.exp(constrained_partition(spec).log_z)
    assert np.allclose(z, [1.0, w, w * w], rtol=1e-14)


def test_two_modes_caps_one_by_hand():
    # window 1 holds the sums of the caps-one space; window 2 adds the
    # three ways to place two particles
    for window in (1, 2):
        table, model, spec = _setup(k_top=3, caps=(3, 3), window=window)
        wa = math.exp(-model.beta * table.epsilons[2])
        wb = math.exp(-model.beta * table.epsilons[3])
        z = np.exp(constrained_partition(spec).log_z)
        assert np.allclose(z, [1.0, wa + wb, wa * wa + wa * wb + wb * wb][: window + 1],
                           rtol=1e-14)


def test_dp_matches_enumeration_k4_caps3():
    # every mode capped at N holds every configuration with ntil <= N
    table, model, spec = _setup(k_top=5, caps=(2, 2), window=3)
    z = np.exp(constrained_partition(spec).log_z)
    ref = enum_constrained_z(list(table.epsilons[2:]), model.beta, [3] * 4)[:4]
    assert np.allclose(z, ref, rtol=1e-13)


def test_dp_matches_enumeration_randomized():
    rng = np.random.default_rng(42)
    for _ in range(10):
        sigma = -float(rng.uniform(0.5, 2.0))
        L = float(rng.uniform(5.0, 20.0))
        beta = float(rng.uniform(0.3, 2.0))
        k_top = int(rng.integers(2, 6))
        window = int(rng.integers(1, 5))
        table = build_spectrum(BoxParams(sigma, L), k_top)
        mu = float(table.epsilons[0] - rng.uniform(0.05, 1.5))
        model = ModelParams(box=table.params, beta=beta, mu=mu, lam=float(rng.uniform(0.0, 2.0)))
        spec = TruncationSpec(table, model, (2, 2), window)
        z = np.exp(constrained_partition(spec).log_z)
        ref = enum_constrained_z(list(table.epsilons[2:]), beta, [window] * (k_top - 1))
        assert np.allclose(z, ref[: window + 1], rtol=1e-13)


def _mp_log_z(beta_eps, window):
    """log z[0..window] by the power-sum recursion in 40-digit mpmath."""
    mpmath.mp.dps = 40
    ys = [mpmath.exp(-mpmath.mpf(float(b))) for b in beta_eps]
    powers, p = [mpmath.mpf(1)] * len(ys), [None]
    for _ in range(window):
        powers = [q * y for q, y in zip(powers, ys)]
        p.append(mpmath.fsum(powers))
    z = [mpmath.mpf(1)]
    for n in range(1, window + 1):
        z.append(mpmath.fsum(p[m] * z[n - m] for m in range(1, n + 1)) / n)
    return [mpmath.log(v) for v in z]


def test_recursion_matches_mpmath_at_window_90():
    # 384 modes at L = 200; the float recursion's error grows with the
    # window (6.8e-14 here; 5.5e-13 at N = 225, 2.0e-12 at N = 662)
    box = BoxParams(-1.0, 200.0)
    table = build_spectrum(box, suggest_k_max(box, 1.0, 1e-12))
    spec = TruncationSpec(table, ModelParams(box, 1.0, float(table.epsilons[0]), 0.0), (5, 5), 90)
    got = constrained_partition(spec).log_z
    ref = _mp_log_z(table.epsilons[2:], 90)
    rel = max(abs(float(mpmath.expm1(mpmath.mpf(float(a)) - b))) for a, b in zip(got, ref))
    assert rel <= 2e-13


def test_cap_overflow():
    table, model, _ = _setup(k_top=3, caps=(2, 2), window=2)
    with pytest.raises(CapOverflow, match=r"\(beta = 1, mu = -1.5\)"):
        TruncationSpec(table, model, (2, 2), 1_000_000)


def test_cap_overflow_near_ground_state():
    # mu a hair below eps(0) would need astronomically large wall caps;
    # must fail loudly instead of allocating them
    table, _, _ = _setup(k_top=3, caps=(2, 2), window=2)
    model = ModelParams(box=table.params, beta=1.0,
                        mu=float(table.epsilons[0]) - 1e-12, lam=1.0)
    with pytest.raises(CapOverflow):
        make_truncation(table, model, tol=1e-12)


def test_cap_search_matches_per_mode_reference():
    # the array wall-cap search against the scalar per-mode search, on
    # random boxes that include CapOverflow cases.  numpy's exp, expm1 and
    # pow may differ from libm's in the last bit, so a tail within a few
    # ulp of the target may stop one search a step before the other; there
    # both caps must still certify.  The window is the smallest the tail
    # certifies, unless it is beyond the window limit
    rng = np.random.default_rng(8)
    compared = overflows = near = too_wide = 0
    for _ in range(1450):
        s = float(rng.uniform(0.3, 3.0))
        L = (2.0 + 10 ** rng.uniform(-2.0, 2.5)) / s
        table = build_spectrum(BoxParams(-s, L), int(rng.integers(2, 121)))
        beta, tol = float(10 ** rng.uniform(-1.5, 1.5)), float(10 ** rng.uniform(-15, -3))
        mu = float(table.epsilons[0] - 10 ** rng.uniform(-7.0, 1.5))
        model = ModelParams(box=table.params, beta=beta, mu=mu, lam=1.0)
        target = tol / 3.0
        ref = per_mode_caps(table.epsilons[:2], beta, mu, target)
        if None in ref:
            overflows += 1
            with pytest.raises(CapOverflow, match="needs a cap above"):
                make_truncation(table, model, tol=tol)
            continue
        try:
            spec = make_truncation(table, model, tol=tol)
        except CapOverflow as exc:
            assert str(exc).startswith("the k >= 2 window needs more than")
            too_wide += 1
            continue
        compared += 1
        assert all(type(c) is int for c in spec.caps) and len(spec.caps) == 2
        for k, (cap, want) in enumerate(zip(spec.caps, ref)):
            if cap != want:
                near += 1
                logx = -beta * (table.epsilons[k] - mu)
                assert moment_tail(logx, want) <= target and spec.per_mode_tail[k] <= target
                assert abs(moment_tail(logx, min(cap, want)) - target) <= 4 * math.ulp(target)
        assert spec.window_tail <= target
        if spec.window > 0:
            smaller = TruncationSpec(table, model, spec.caps, spec.window - 1)
            assert smaller.window_tail > target
    assert compared >= 1000 and overflows >= 100 and near <= 3 and too_wide <= 3


def test_one_pass_search_matches_the_stepwise_search():
    # make_truncation against helpers_caps.stepwise_truncation on random
    # boxes: the same caps, window and tail_budget to the last bit, or the
    # same CapOverflow.  Windows from 64 on come from the bisection above
    # the block of windows 0..63
    rng = np.random.default_rng(19)
    compared = wide = overflows = 0
    for _ in range(800):
        s = float(rng.uniform(0.3, 3.0))
        L = (2.0 + 10 ** rng.uniform(-2.0, 2.5)) / s
        table = build_spectrum(BoxParams(-s, L), int(rng.integers(2, 401)))
        beta, tol = float(10 ** rng.uniform(-1.5, 1.5)), float(10 ** rng.uniform(-15, -4))
        mu = float(table.epsilons[0] - 10 ** rng.uniform(-5.0, 1.5))
        model = ModelParams(box=table.params, beta=beta, mu=mu, lam=float(rng.uniform(0.0, 2.0)))
        ref = stepwise_truncation(table, model, tol)
        if isinstance(ref, str):
            overflows += 1
            with pytest.raises(CapOverflow) as exc:
                make_truncation(table, model, tol=tol)
            assert str(exc.value).startswith(ref)
            continue
        spec = make_truncation(table, model, tol=tol)
        assert (spec.caps, spec.window, spec.tail_budget) == ref
        compared += 1
        wide += spec.window >= 64
    assert compared >= 500 and wide >= 100 and overflows >= 50


def test_a_spec_takes_its_own_tails_after_another_truncation():
    # make_truncation and the spec it builds share one Chernoff grid; a spec
    # built directly after another box's truncation, or after the same
    # box's at another beta, must still take the tails of its own inputs
    table, model, _ = _setup(sigma=-1.2, L=14.0, beta=0.7, mu=-1.8, k_top=30)
    other = build_spectrum(BoxParams(-1.0, 11.0), 25)
    colder = ModelParams(box=table.params, beta=2.0, mu=model.mu, lam=model.lam)
    cases = [(other, ModelParams(other.params, 1.3, -1.4, 0.5)), (table, colder)]
    for own_table, own_model in cases:
        make_truncation(table, model)
        after = TruncationSpec(own_table, own_model, (40, 40), 12)
        gibbs_oracle._chernoff_grid_of.cache_clear()
        fresh = TruncationSpec(own_table, own_model, (40, 40), 12)
        assert (after.per_mode_tail, after.window_tail) == (fresh.per_mode_tail,
                                                            fresh.window_tail)
        assert after.window_tail != TruncationSpec(table, model, (40, 40), 12).window_tail
    t, g = gibbs_oracle._chernoff_grid(-model.beta * (table.epsilons - model.mu))
    with pytest.raises(ValueError, match="read-only"):
        g[0] = 0.0


@pytest.mark.parametrize("check,extra", [
    ("exchange", ["--j", "1", "--target", "0:1"]),
    ("exchange", ["--j", "2", "--target", "5:2"]),
    ("wall-occupation", ["--mode", "0"]),
    ("moment-inequality", ["--mode", "3", "--power", "1"]),
    ("occupation-bound", ["--mode", "4"]),
])
def test_an_oracle_op_runs_each_search_once(tmp_path, monkeypatch, check, extra):
    # per op: one Chernoff grid, one tail evaluation of the cap candidates
    # and one of windows 0..63, and one of each for the spec's certificate
    import robinbec.cli

    calls = {"_moment_tails": 0, "_log_tail_shares": 0}
    for name in calls:
        def counted(*args, _inner=getattr(gibbs_oracle, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(gibbs_oracle, name, counted)
    gibbs_oracle._chernoff_grid_of.cache_clear()
    out = tmp_path / "o.json"
    assert robinbec.cli.main(["oracle", "--check", check, "--sigma=-1.3", "--L=18.5",
                              "--beta=1.4", "--mu=-1.85", "--lambda=0.6", "--k-top", "120",
                              *extra, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["window"] < 64
    assert gibbs_oracle._chernoff_grid_of.cache_info().misses == 1
    assert calls == {"_moment_tails": 2, "_log_tail_shares": 2}


def test_a_wide_window_bisects_above_the_block(monkeypatch):
    # beyond N = 63 the window comes from a bisection over the windows up
    # to the work limit, one tail per step
    table, model, _ = _setup(sigma=-1.0, L=200.0, beta=1.0, mu=-1.01, k_top=300, lam=0.5)
    seen = []
    inner = gibbs_oracle._log_tail_shares
    monkeypatch.setattr(gibbs_oracle, "_log_tail_shares",
                        lambda t, g, windows: seen.append(len(windows)) or inner(t, g, windows))
    spec = make_truncation(table, model)
    n_max = gibbs_oracle._max_window(model, 299)
    assert spec.window >= 64 and seen[0] == 64 and set(seen[1:]) == {1}
    assert len(seen) <= 2 + (n_max - 63).bit_length()


def test_mismatched_precomputed_z_rejected():
    table, model, spec = _setup(k_top=3, caps=(3, 3), window=3)
    z = constrained_partition(spec)
    other = TruncationSpec(table, model, (3, 3), 5)
    with pytest.raises(ValidationError, match="another truncation"):
        grand_expectation(DiagonalObservable.mode_number(2), other, z=z)
    # an equal window at another beta: a z of the same length, summed with
    # other weights, is refused too
    table, model, spec = _setup(k_top=4, caps=(1, 1), window=1)
    z = constrained_partition(spec)
    colder = TruncationSpec(table, ModelParams(box=table.params, beta=3.0, mu=model.mu,
                                               lam=model.lam), spec.caps, spec.window)
    assert colder.window == spec.window and len(z.log_z) == colder.window + 1
    with pytest.raises(ValidationError, match="another truncation"):
        grand_expectation(DiagonalObservable.mode_number(2), colder, z=z)
    own = grand_expectation(DiagonalObservable.mode_number(2), colder,
                            z=constrained_partition(colder))
    assert own == grand_expectation(DiagonalObservable.mode_number(2), colder)


def test_spec_carries_its_model():
    # a spec holds the model its tails were taken at, for the table's own
    # box, and takes its tails from its own caps and window at that model;
    # no call past it takes a second model or a tail, so none can differ
    table, model, spec = _setup(k_top=3, caps=(3, 3), window=3)
    assert spec.model is model
    elsewhere = ModelParams(box=BoxParams(sigma=-1.0, L=11.0), beta=1.0, mu=-1.5, lam=1.0)
    with pytest.raises(ValidationError, match="box must match"):
        TruncationSpec(table, elsewhere, spec.caps, spec.window)
    with pytest.raises(ValidationError, match="tuple of two integers"):
        TruncationSpec(table, model, list(spec.caps), spec.window)
    with pytest.raises(ValidationError, match="tuple of two integers"):
        TruncationSpec(table, model, (3, 3, 3, 3), spec.window)
    with pytest.raises(ValidationError, match="window must be"):
        TruncationSpec(table, model, spec.caps, -1)
    for name in ("per_mode_tail", "window_tail", "tail_budget"):
        with pytest.raises(TypeError):
            TruncationSpec(table, model, spec.caps, spec.window, **{name: getattr(spec, name)})
    # the forged all-zero tail of caps (1, 1) and window 0 cannot be
    # passed; the spec computes the real one
    table, model, forged = _setup(k_top=4, caps=(1, 1), window=0)
    logx = -model.beta * (table.epsilons - model.mu)
    assert forged.per_mode_tail == tuple(gibbs_oracle._moment_tails(logx[:2], forged.caps).tolist())
    assert forged.window_tail == math.exp(
        gibbs_oracle._log_tail_share(*gibbs_oracle._chernoff_grid(logx), 0))
    assert forged.tail_budget == math.fsum(forged.per_mode_tail + (forged.window_tail,))
    report = run_check("wall-occupation", forged, k=0)
    assert report["tail_budget"] == forged.per_mode_tail[0]
    assert round(report["tail_budget"], 1) == 979.5
    assert report["params"]["caps_total"] == 2 and report["params"]["window"] == 0
    z = constrained_partition(spec)
    with pytest.raises(TypeError):
        grand_expectation(DiagonalObservable.mode_number(2), spec, z)  # z is keyword-only
    with pytest.raises(TypeError):
        run_check("wall-occupation", spec, model, k=0)


# ----------------------------------------------------------------------
# the window tail
# ----------------------------------------------------------------------

def _dense_window_weights(eps, model, length):
    """z[n] e^{beta (mu n - lam n^2 / (2L))} for n < length, by plain
    linear-space convolution of every mode's geometric series."""
    z = np.zeros(length)
    z[0] = 1.0
    for e in eps[2:]:
        z = np.convolve(z, np.exp(-model.beta * e * np.arange(length)))[:length]
    n = np.arange(length)
    return z * np.exp(model.beta * (model.mu * n - 0.5 * model.lam * n * n / model.box.L))


def test_window_tail_bounds_the_weight_above_the_window():
    # tau_N against the (ntil + 1)^4-weighted share above N, summed far
    # past the window, with and without the coupling
    rng = np.random.default_rng(11)
    for _ in range(12):
        table = build_spectrum(BoxParams(-float(rng.uniform(0.5, 2.0)),
                                         float(rng.uniform(5.0, 30.0))), int(rng.integers(2, 12)))
        mu = float(table.epsilons[0] - rng.uniform(0.0, 1.0))
        for lam in (0.0, float(rng.uniform(0.1, 3.0))):
            model = ModelParams(table.params, float(rng.uniform(0.3, 3.0)), mu, lam)
            for window in (0, 3, 10, 40):
                spec = TruncationSpec(table, model, (1, 1), window)
                w = _dense_window_weights(table.epsilons, model, 8 * window + 200)
                n = np.arange(len(w))
                share = ((n + 1.0) ** 4 * w)[window + 1:].sum() / w.sum()
                assert share <= spec.window_tail


def test_logsumexp_ignores_weightless_terms():
    a = np.array([np.inf, 1e308, 0.0, 1.0])
    b = np.array([0.0, 0.0, 1.0, 2.0])
    assert math.isclose(gibbs_oracle._logsumexp(a, b), math.log(1.0 + 2.0 * math.e), rel_tol=1e-15)
    assert gibbs_oracle._logsumexp(a, np.zeros(4)) == -math.inf
    assert gibbs_oracle._logsumexp(np.full(3, -np.inf)) == -math.inf


def test_polyval_gives_the_bits_of_numpy_polynomial():
    # the oracle's Horner steps are numpy.polynomial's, which it no longer
    # imports: the same bits on integer and float ranges, at every degree
    # the observables take and on coefficients of mixed sign and size
    from numpy.polynomial.polynomial import polyval

    rng = np.random.default_rng(7)
    ranges = (np.arange(41), np.arange(2001, dtype=float), np.arange(3))
    for degree in range(9):
        for _ in range(20):
            coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-8, 9, degree + 1)
            for n in ranges:
                ours, reference = gibbs_oracle._polyval(coeffs, n), polyval(n, coeffs)
                assert ours.dtype == reference.dtype and ours.tobytes() == reference.tobytes()
    assert gibbs_oracle._polyval((0, 1, 2), np.arange(4)).tolist() == [0.0, 3.0, 10.0, 21.0]


# ----------------------------------------------------------------------
# grand expectations
# ----------------------------------------------------------------------

def test_normalization_is_exactly_one():
    _, model, spec = _setup()
    assert grand_expectation(DiagonalObservable(), spec) == 1.0


def test_free_limit_reproduces_bose_law():
    # lam -> 0+ with generous caps: occupations go to the free-gas law
    table, model, spec = _setup(lam=1e-14, tol=1e-13)
    for k in range(spec.k_top + 1):
        occ = grand_expectation(DiagonalObservable.mode_number(k), spec)
        free = bose(model.beta * (table.epsilons[k] - model.mu))
        assert abs(occ - free) <= 20.0 * spec.tail_budget * max(1.0, free) + 1e-12


def test_expectation_matches_enumeration():
    table, model, spec = _setup(k_top=4, caps=(4, 4), window=4)
    obs = DiagonalObservable(
        factors=((0, number_poly(1)), (2, shifted_number_poly(2))),
        ntilde_poly=(0.0, 1.0),
    )
    val = grand_expectation(obs, spec)
    ref = enum_expectation(
        list(table.epsilons), model.beta, model.mu, model.lam, model.box.L,
        [4] * 5, {0: number_poly(1), 2: shifted_number_poly(2)},
        ntilde_poly=(0.0, 1.0), window=4,
    )
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_expectation_matches_split_enumeration_cap8():
    # K = 6 with window 8: oracle vs enumeration restricted identically
    table, model, spec = _setup(k_top=6, caps=(8, 8), window=8, mu=-1.5, lam=1.0)
    val = grand_expectation(DiagonalObservable.mode_number(2), spec)
    ref = enum_expectation_split(
        list(table.epsilons), model.beta, model.mu, model.lam, model.box.L,
        [8] * 7, {2: number_poly(1)}, window=8,
    )
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_monotone_in_mu():
    table, _, _ = _setup()
    occ_prev = -1.0
    for mu in np.linspace(-3.0, -1.1, 12):
        model = ModelParams(box=table.params, beta=1.0, mu=float(mu), lam=1.0)
        spec = make_truncation(table, model, tol=1e-12)
        occ = grand_expectation(DiagonalObservable.mode_number(2), spec)
        assert occ > occ_prev
        occ_prev = occ


def test_truncation_honesty_doubling_caps():
    # doubling both wall caps and the window moves every expectation by
    # less than the budget the smaller truncation reports
    for lam in (0.0, 1.0):
        table, model, spec = _setup(tol=1e-10, lam=lam, k_top=12)
        spec2 = TruncationSpec(table, model, tuple(2 * c for c in spec.caps), 2 * spec.window)
        for obs in (
            DiagonalObservable.mode_number(0),
            DiagonalObservable.mode_number(2),
            DiagonalObservable.mode_number(3, 2),
            DiagonalObservable.mode_number(4, 3),
            DiagonalObservable(factors=((2, shifted_number_poly(1)),), ntilde_poly=(0.0, 1.0)),
            DiagonalObservable(factors=((3, number_poly(3)),), ntilde_poly=(0.0, 1.0)),
        ):
            a = grand_expectation(obs, spec)
            b = grand_expectation(obs, spec2)
            assert abs(a - b) < spec.tail_budget * max(1.0, abs(a))


def test_unknown_mode_rejected():
    _, model, spec = _setup(k_top=3, caps=(2, 2), window=2)
    with pytest.raises(UnknownMode):
        grand_expectation(DiagonalObservable.mode_number(9), spec)


def test_observable_validation():
    with pytest.raises(ValidationError):
        DiagonalObservable(factors=((2, number_poly(1)), (2, number_poly(2))))
    with pytest.raises(ValidationError):
        DiagonalObservable(factors=((2, (math.nan,)),))


@pytest.mark.parametrize("poly", [(1.0, -1.0), (-1.0,), (0.0, 3.0, -1.0)])
def test_window_rejects_a_factor_that_decreases(poly):
    # the window convolution needs f(0) >= 0 and f(a) - f(a-1) >= 0 on
    # 0..N; 3n - n^2 rises to n = 1 and falls from n = 2
    _, _, spec = _setup(k_top=3, caps=(2, 2), window=4)
    with pytest.raises(ValidationError, match="nondecreasing and >= 0 on the window 0..4"):
        grand_expectation(DiagonalObservable(factors=((2, poly),)), spec)


def test_window_rejects_degree_above_four():
    _, _, spec = _setup()
    for obs in (
        DiagonalObservable(factors=((2, number_poly(3)), (3, number_poly(2)))),
        DiagonalObservable(factors=((2, number_poly(4)),), ntilde_poly=(0.0, 1.0)),
    ):
        with pytest.raises(ValidationError, match="certifies degree 4 at most"):
            grand_expectation(obs, spec)
    # degree 4 with a wall factor on top is fine
    grand_expectation(DiagonalObservable(factors=((0, number_poly(3)), (2, number_poly(3))),
                                         ntilde_poly=(0.0, 1.0)), spec)


# ----------------------------------------------------------------------
# exchange identity
# ----------------------------------------------------------------------

def test_exchange_identity_free_gas_wall_pair():
    _, model, spec = _setup(lam=0.0, tol=1e-13)
    lhs, rhs = exchange_identity_sides(0, [(1, 1)], spec)
    assert abs(lhs - rhs) <= 1e-12


def test_exchange_identity_wall_pair_interacting():
    # the j=1, k=0 instance that controls equal distribution
    _, model, spec = _setup(lam=1.0)
    lhs_scale = 5.0
    lhs, rhs = exchange_identity_sides(1, [(0, 1)], spec)
    assert abs(lhs - rhs) <= spec.tail_budget * lhs_scale + 1e-12


def test_exchange_identity_excited_with_spectators():
    table, model, spec = _setup(lam=1.0)
    lhs, rhs = exchange_identity_sides(2, [(3, 2), (4, 1)], spec)
    assert abs(lhs - rhs) <= spec.tail_budget + 1e-12
    # both sides against brute force on a small window, restricted identically
    spec_small = TruncationSpec(table, model, (3, 3), 3)
    enum = dict(eps=list(table.epsilons), beta=model.beta, mu=model.mu, lam=model.lam,
                L=model.box.L, caps=[3] * 6, window=3)
    ref_lhs = math.exp(model.beta * (table.epsilons[2] - table.epsilons[3]))
    ref_lhs *= enum_expectation(
        factors={2: number_poly(1), 3: shifted_number_poly(2), 4: number_poly(1)}, **enum)
    ref_rhs = enum_expectation(
        factors={2: shifted_number_poly(1), 3: number_poly(2), 4: number_poly(1)}, **enum)
    lhs, rhs = exchange_identity_sides(2, [(3, 2), (4, 1)], spec_small)
    assert abs(lhs - ref_lhs) < 1e-12 * max(1.0, abs(ref_lhs))
    assert abs(rhs - ref_rhs) < 1e-12 * max(1.0, abs(ref_rhs))
    assert abs((lhs - rhs) - (ref_lhs - ref_rhs)) < 1e-12 * max(1.0, abs(ref_lhs))


def test_exchange_with_j_above_k1_passes():
    # moving a particle between two k >= 2 modes keeps ntil, so the
    # identity is exact on the window whatever e^{beta (eps_j - eps_k1)}
    # (2e6 here); a per-mode cap broke it (residual -1.6e-10)
    box = BoxParams(-1.003005732233222, 10.481102170507942)
    model = ModelParams(box, 1.9444452815123277, -1.0900658867759876, 0.38070415273263053)
    spec = make_truncation(build_spectrum(box, 79), model)
    report = run_check("exchange", spec, j=10, targets=[(4, 2)])
    assert report["pass"] is True
    assert abs(report["residual"]) <= 1e-14 * abs(report["rhs"])


def test_exchange_budget_carries_the_prefactor():
    # lhs is e^{beta (eps_j - eps_k1)} (2.16e6 here) times a truncated
    # expectation, so its truncation error can reach that factor times the
    # window tail; the reported budget was the window tail alone
    box = BoxParams(-1.003005732233222, 10.481102170507942)
    model = ModelParams(box, 1.9444452815123277, -1.0900658867759876, 0.38070415273263053)
    spec = make_truncation(build_spectrum(box, 79), model)
    pref = math.exp(model.beta * (spec.table.epsilons[10] - spec.table.epsilons[4]))
    assert pref > 2e6
    report = run_check("exchange", spec, j=10, targets=[(4, 2)])
    assert report["tail_budget"] == pytest.approx(pref * spec.window_tail, rel=1e-15)
    report = run_check("exchange", spec, j=4, targets=[(10, 2)])  # prefactor < 1
    assert report["tail_budget"] == spec.window_tail


def test_exchange_truncation_is_certified_at_tol_over_the_prefactor():
    # pref = 2.16e6 multiplies the lhs truncation error; a truncation at
    # tol / pref keeps the reported budget near tol (it was 9.25e-8 at a
    # truncation made at tol)
    box = BoxParams(-1.003005732233222, 10.481102170507942)
    model = ModelParams(box, 1.9444452815123277, -1.0900658867759876, 0.38070415273263053)
    table = build_spectrum(box, 79)
    spec = truncation_for_check("exchange", table, model, 1e-12, j=10, targets=[(4, 2)])
    pref = math.exp(model.beta * (table.epsilons[10] - table.epsilons[4]))
    assert spec == make_truncation(table, model, 1e-12 / pref)
    report = run_check("exchange", spec, j=10, targets=[(4, 2)])
    assert report["pass"] is True and spec.window == 25
    assert report["tail_budget"] <= 1e-12
    # pref <= 1, other checks, and indices the check rejects keep tol
    plain = make_truncation(table, model, 1e-12)
    for name, kwargs in [("exchange", {"j": 4, "targets": [(10, 2)]}),
                         ("occupation-bound", {"k": 10}),
                         ("exchange", {"j": 80, "targets": [(4, 1)]})]:
        assert truncation_for_check(name, table, model, 1e-12, **kwargs) == plain
    hot = ModelParams(box, 93.0, model.mu, model.lam)
    with pytest.raises(ValidationError, match=r"tol / pref = 1e-12 / 9\.\d+e\+302 underflows"):
        truncation_for_check("exchange", table, hot, 1e-12, j=10, targets=[(4, 2)])


def test_exchange_identity_breaks_across_sectors_with_coupling():
    # moving a particle between a wall mode and a k >= 2 mode changes the
    # coupling term, so the plain identity must fail at lam > 0 ...
    _, model, spec = _setup(lam=1.0)
    lhs, rhs = exchange_identity_sides(0, [(2, 1)], spec)
    assert abs(lhs - rhs) > 1e-3
    # ... and hold again in the free gas
    _, model0, spec0 = _setup(lam=0.0)
    lhs, rhs = exchange_identity_sides(0, [(2, 1)], spec0)
    assert abs(lhs - rhs) <= 1e-12


def test_exchange_identity_requires_mu_below_ground():
    # at mu = eps(0) the untruncated wall series diverges; the check asserts
    # its precondition instead of computing
    table, model, _ = _setup()
    at_ground = ModelParams(box=table.params, beta=model.beta,
                            mu=float(table.epsilons[0]), lam=model.lam)
    spec = TruncationSpec(table, at_ground, (5, 5), 5)
    with pytest.raises(ValidationError):
        exchange_identity_sides(1, [(0, 1)], spec)


def test_exchange_identity_validation():
    _, model, spec = _setup()
    with pytest.raises(IndexClash):
        exchange_identity_sides(2, [(2, 1)], spec)
    with pytest.raises(IndexClash):
        exchange_identity_sides(0, [(2, 1), (2, 2)], spec)
    with pytest.raises(ValidationError):
        exchange_identity_sides(0, [(1, 0)], spec)  # first power must be >= 1
    with pytest.raises(UnknownMode):
        exchange_identity_sides(0, [(99, 1)], spec)
    with pytest.raises(ValidationError, match="target powers"):  # beyond the tail envelope
        exchange_identity_sides(0, [(1, 4)], spec)


# ----------------------------------------------------------------------
# wall-mode occupation law
# ----------------------------------------------------------------------

def test_wall_occupation_closed_form():
    for k in (0, 1):
        _, model, spec = _setup(lam=1.0)
        occ, closed = check_wall_mode_occupation(k, spec)
        assert abs(occ - closed) <= spec.tail_budget


def test_wall_occupation_boltzmann_tail():
    # beta (eps0 - mu) >= 30: occupation collapses to the Boltzmann weight
    _, model, spec = _setup(beta=30.0, mu=-2.01, lam=1.0)
    occ = grand_expectation(DiagonalObservable.mode_number(0), spec)
    x = model.beta * (spec.table.epsilons[0] - model.mu)
    assert x >= 30.0
    assert abs(occ - math.exp(-x)) <= 1e-14


def test_wall_occupation_independent_of_lambda():
    vals = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        _, model, spec = _setup(lam=lam, caps=(70, 60), window=25)
        vals.append(grand_expectation(DiagonalObservable.mode_number(0), spec))
    assert max(vals) - min(vals) <= 1e-12 * max(vals)


def test_wall_occupation_validation():
    _, model, spec = _setup()
    with pytest.raises(BadMode):
        check_wall_mode_occupation(2, spec)
    table = build_spectrum(BoxParams(-1.0, 10.0), 5)
    too_high = ModelParams(box=table.params, beta=1.0, mu=-0.9, lam=1.0)
    with pytest.raises(ValidationError):
        make_truncation(table, too_high, tol=1e-12)


# ----------------------------------------------------------------------
# moment log inequality
# ----------------------------------------------------------------------

def test_moment_inequality_saturates_free_gas():
    _, model, spec = _setup(lam=0.0, tol=1e-13)
    for n in (0, 1, 2):
        lhs, rhs = check_moment_log_inequality(2, n, spec)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_moment_inequality_holds_on_grid():
    table, _, _ = _setup()
    eps0 = table.epsilons[0]
    for beta in (0.5, 1.0, 2.0):
        for off in (0.1, 0.5, 2.0):
            for lam in (0.5, 2.0):
                model = ModelParams(box=table.params, beta=beta, mu=float(eps0 - off), lam=lam)
                spec = make_truncation(table, model, tol=1e-11)
                for (k, n) in ((2, 0), (3, 2)):
                    lhs, rhs = check_moment_log_inequality(k, n, spec)
                    scale = max(1.0, abs(lhs), abs(rhs))
                    assert lhs >= rhs - (spec.tail_budget + 4e-13) * scale


def test_moment_inequality_validation():
    _, model, spec = _setup()
    with pytest.raises(BadMode):
        check_moment_log_inequality(0, 0, spec)
    with pytest.raises(ValidationError):
        check_moment_log_inequality(2, -1, spec)
    with pytest.raises(ValidationError, match="moment power"):  # beyond the tail envelope
        check_moment_log_inequality(2, 3, spec)


# ----------------------------------------------------------------------
# occupation bound
# ----------------------------------------------------------------------

def test_occupation_bound_holds():
    _, model, spec = _setup(lam=1.0)
    for k in range(2, 6):
        occ, bound = check_occupation_bound(k, spec)
        assert occ <= bound


def test_occupation_bound_free_saturation():
    # lam = 0 and mu = eps(0): the occupation equals the bound exactly
    table = build_spectrum(BoxParams(-1.0, 10.0), 5)
    eps = table.epsilons
    model = ModelParams(box=table.params, beta=1.0, mu=float(eps[0]), lam=0.0)
    spec = TruncationSpec(table, model, (5, 5), 120)
    assert spec.window_tail <= 1e-11
    for k in (2, 3):
        occ, bound = check_occupation_bound(k, spec)
        free = bose(model.beta * (eps[k] - eps[0]))
        assert abs(occ - free) <= 1e-10 * free
        assert abs(bound - free) <= 1e-14 * free


def test_occupation_bound_large_k_geometric_tail():
    # once beta (eps_k - eps_0) >> 1 and beta lam/(2L) << 1e-6, occupation
    # and bound both collapse onto the bare Boltzmann factor
    _, model, spec = _setup(k_top=13, lam=1e-6)
    eps = spec.table.epsilons
    for k in (12, 13):
        occ, bound = check_occupation_bound(k, spec)
        env = math.exp(-model.beta * (eps[k] - eps[0])) * (1.0 + 1e-6)
        assert occ <= bound <= env


def test_occupation_bound_nonpositive_gap():
    # huge lam/(2L) swamps the spectral gap -> vacuous bound is reported
    table = build_spectrum(BoxParams(-1.0, 10.0), 5)
    model = ModelParams(box=table.params, beta=1.0, mu=-1.5, lam=2000.0)
    spec = make_truncation(table, model, tol=1e-10)
    with pytest.raises(NonpositiveGap):
        check_occupation_bound(2, spec)
    report = run_check("occupation-bound", spec, k=2)
    assert report["pass"] is None


def test_occupation_bound_validation():
    _, model, spec = _setup()
    with pytest.raises(BadMode):
        check_occupation_bound(1, spec)


# ----------------------------------------------------------------------
# JSON reports
# ----------------------------------------------------------------------

def test_run_check_reports():
    _, model, spec = _setup(lam=1.0)
    rep = run_check("exchange", spec, j=1, targets=[(0, 1)])
    assert rep["check"] == "exchange"
    assert rep["pass"] is True
    assert set(rep) >= {"check", "params", "lhs", "rhs", "residual", "tail_budget", "pass"}
    rep = run_check("wall-occupation", spec, k=0)
    assert rep["pass"] is True
    rep = run_check("moment-inequality", spec, k=2, n=0)
    assert rep["pass"] is True
    assert {"k": 2, "n": 0}.items() <= rep["params"].items()  # the check's own arguments
    rep = run_check("occupation-bound", spec, k=2)
    assert rep["pass"] is True
    with pytest.raises(ValidationError):
        run_check("nonsense", spec)
