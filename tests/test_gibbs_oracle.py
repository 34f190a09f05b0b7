import math
import tracemalloc

import numpy as np
import pytest

from helpers_bruteforce import enum_constrained_z, enum_expectation, enum_expectation_split
from helpers_caps import moment_tail, per_mode_caps

import robinbec.gibbs_oracle as gibbs_oracle
from robinbec.errors import ValidationError
from robinbec.gibbs_oracle import (
    BadMode,
    CapOverflow,
    ConstrainedZ,
    DiagonalObservable,
    IndexClash,
    ModelParams,
    NonpositiveGap,
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
    truncation_from_caps,
)
from robinbec.spectrum import BoxParams, build_spectrum


def _setup(sigma=-1.0, L=10.0, beta=1.0, mu=-1.5, lam=1.0, k_top=5, caps=None, tol=1e-12):
    box = BoxParams(sigma=sigma, L=L)
    table = build_spectrum(box, k_top)
    model = ModelParams(box=box, beta=beta, mu=mu, lam=lam)
    if caps is None:
        spec = make_truncation(table, model, tol=tol)
    else:
        spec = truncation_from_caps(table, model, caps)
    return table, model, spec


def bose(x):
    return 1.0 / math.expm1(x)


# ----------------------------------------------------------------------
# constrained partition sums
# ----------------------------------------------------------------------

def test_single_mode_geometric():
    table, model, spec = _setup(k_top=2, caps=(3, 3, 2))
    w = math.exp(-model.beta * table.epsilons[2])
    z = constrained_partition(spec, model).z
    assert np.allclose(z, [1.0, w, w * w], rtol=1e-14)


def test_two_modes_caps_one_by_hand():
    table, model, spec = _setup(k_top=3, caps=(3, 3, 1, 1))
    wa = math.exp(-model.beta * table.epsilons[2])
    wb = math.exp(-model.beta * table.epsilons[3])
    z = constrained_partition(spec, model).z
    assert np.allclose(z, [1.0, wa + wb, wa * wb], rtol=1e-14)


def test_dp_matches_enumeration_k4_caps3():
    table, model, spec = _setup(k_top=5, caps=(2, 2, 3, 3, 3, 3))
    z = constrained_partition(spec, model).z
    ref = enum_constrained_z(list(table.epsilons[2:]), model.beta, [3, 3, 3, 3])
    assert np.allclose(z, ref, rtol=1e-13)


def test_dp_matches_enumeration_randomized():
    rng = np.random.default_rng(42)
    for _ in range(10):
        sigma = -float(rng.uniform(0.5, 2.0))
        L = float(rng.uniform(5.0, 20.0))
        beta = float(rng.uniform(0.3, 2.0))
        k_top = int(rng.integers(2, 6))
        caps = tuple(int(c) for c in rng.integers(1, 5, size=k_top + 1))
        table = build_spectrum(BoxParams(sigma, L), k_top)
        mu = float(table.epsilons[0] - rng.uniform(0.05, 1.5))
        model = ModelParams(box=table.params, beta=beta, mu=mu, lam=float(rng.uniform(0.0, 2.0)))
        spec = truncation_from_caps(table, model, caps)
        z = constrained_partition(spec, model).z
        ref = enum_constrained_z(list(table.epsilons[2:]), beta, list(caps[2:]))
        assert np.allclose(z, ref, rtol=1e-13)


def test_cap_overflow():
    table, model, _ = _setup(k_top=3, caps=(2, 2, 2, 2))
    with pytest.raises(CapOverflow):
        truncation_from_caps(table, model, (2, 2, 1_000_000, 1_000_000))


def test_cap_overflow_near_ground_state():
    # mu a hair below eps(0) would need astronomically large wall caps;
    # must fail loudly instead of allocating them
    table, _, _ = _setup(k_top=3, caps=(2, 2, 2, 2))
    model = ModelParams(box=table.params, beta=1.0,
                        mu=float(table.epsilons[0]) - 1e-12, lam=1.0)
    with pytest.raises(CapOverflow):
        make_truncation(table, model, tol=1e-12)


def test_cap_search_matches_per_mode_reference():
    # the array cap search against the scalar per-mode search it replaced,
    # on random boxes that include CapOverflow cases.  numpy's exp, expm1
    # and pow may differ from libm's in the last bit, so a tail within a
    # few ulp of the target may stop one search a step before the other;
    # there both caps must still certify
    rng = np.random.default_rng(8)
    compared = overflows = near = 0
    for _ in range(1450):
        s = float(rng.uniform(0.3, 3.0))
        L = (2.0 + 10 ** rng.uniform(-2.0, 2.5)) / s
        table = build_spectrum(BoxParams(-s, L), int(rng.integers(2, 121)))
        beta, tol = float(10 ** rng.uniform(-1.5, 1.5)), float(10 ** rng.uniform(-15, -3))
        mu = float(table.epsilons[0] - 10 ** rng.uniform(-7.0, 1.5))
        model = ModelParams(box=table.params, beta=beta, mu=mu, lam=1.0)
        ref = per_mode_caps(table.epsilons, beta, mu, tol)
        if None in ref or sum(ref[2:]) + 1 > 2_000_000:
            overflows += 1
            with pytest.raises(CapOverflow):
                make_truncation(table, model, tol=tol)
            continue
        spec = make_truncation(table, model, tol=tol)
        compared += 1
        assert all(type(c) is int for c in spec.caps)
        target = tol / len(ref)
        for k, (cap, want) in enumerate(zip(spec.caps, ref)):
            if cap != want:
                near += 1
                logx = -beta * (table.epsilons[k] - mu)
                assert moment_tail(logx, want) <= target and spec.per_mode_tail[k] <= target
                assert abs(moment_tail(logx, min(cap, want)) - target) <= 4 * math.ulp(target)
    assert compared >= 1000 and overflows >= 100 and near <= 3


def test_mismatched_precomputed_z_rejected():
    table, model, spec = _setup(k_top=3, caps=(3, 3, 3, 3))
    z = constrained_partition(spec, model)
    other = truncation_from_caps(table, model, (3, 3, 5, 5))
    with pytest.raises(ValidationError):
        grand_expectation(DiagonalObservable.mode_number(2), other, model, z=z)


# ----------------------------------------------------------------------
# DP kernels and suffix reuse
# ----------------------------------------------------------------------

# Largest relative change of a finite log entry, windowed against dense,
# measured on the grid below: 1.8e-15 (log values from -5e4 to 5).
KERNEL_RTOL = 4e-15


@pytest.mark.parametrize("length", [1, 2, 7, 300])
def test_windowed_geometric_kernel_matches_dense_conv(length):
    rng = np.random.default_rng(length)
    widths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 1023, 1024, 1025]
    for width in widths:
        for logx in (-50.0, -7.3, -1.0, -0.1, -1e-3):
            la = rng.uniform(-40.0, 5.0, length)
            if length > 2:  # -inf at the start, inside and (length 300) at the end
                la[rng.integers(0, length, length // 5)] = -np.inf
                la[0] = -np.inf
            if length > 100:
                la[-1] = -np.inf
            got = gibbs_oracle._log_geometric_conv(la, logx, width - 1)
            ref = gibbs_oracle._log_conv(la, logx * np.arange(width))
            assert got.shape == ref.shape == (length + width - 1,)
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(got), finite)
            err = np.abs(got[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
            assert np.all(err <= KERNEL_RTOL), (width, logx, err.max())


def test_logsumexp_ignores_weightless_terms():
    a = np.array([np.inf, 1e308, 0.0, 1.0])
    b = np.array([0.0, 0.0, 1.0, 2.0])
    assert math.isclose(gibbs_oracle._logsumexp(a, b), math.log(1.0 + 2.0 * math.e), rel_tol=1e-15)
    assert gibbs_oracle._logsumexp(a, np.zeros(4)) == -math.inf
    assert gibbs_oracle._logsumexp(np.full(3, -np.inf)) == -math.inf


def _bench_like_setup():
    # an oracle-checks sized truncation: 79 excited modes, 54 with cap 1 (r = 8)
    return _setup(sigma=-1.2, L=25.0, beta=1.5, mu=-1.6, lam=0.7, k_top=80)


def _count_kernel_calls(monkeypatch):
    calls = []
    for name in ("_log_conv", "_log_geometric_conv"):
        fn = getattr(gibbs_oracle, name)

        def counted(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(gibbs_oracle, name, counted)
    return calls


def test_factored_expectation_convolves_at_most_r_modes(monkeypatch):
    _, model, spec = _bench_like_setup()
    r = gibbs_oracle._suffix_spacing(spec.caps)
    assert 1 < r < spec.k_top - 1
    z = constrained_partition(spec, model)
    calls = _count_kernel_calls(monkeypatch)
    for k in range(2, 2 + r):
        calls.clear()
        grand_expectation(DiagonalObservable.mode_number(k, 2), spec, model, z=z)
        assert len(calls) == r and calls.count("_log_conv") == 1
    calls.clear()
    grand_expectation(DiagonalObservable.mode_number(spec.k_top), spec, model, z=z)
    assert len(calls) == spec.k_top - 1  # no suffix above k_top: a full pass


def test_suffix_restart_equals_a_from_scratch_pass():
    _, model, spec = _bench_like_setup()
    z = constrained_partition(spec, model)
    scratch = ConstrainedZ(log_z=z.log_z)  # no suffixes: convolve from k_top
    observables = [
        DiagonalObservable.mode_number(2),
        DiagonalObservable.mode_number(9, 2),
        DiagonalObservable(factors=((3, number_poly(1)), (7, shifted_number_poly(2)))),
        DiagonalObservable(factors=((0, number_poly(1)), (40, number_poly(3))),
                           ntilde_poly=(0.0, 1.0)),
        DiagonalObservable(factors=((spec.k_top - 1, number_poly(1)),)),
    ]
    for obs in observables:
        fast = grand_expectation(obs, spec, model, z=z)
        slow = grand_expectation(obs, spec, model, z=scratch)
        assert abs(fast - slow) <= 4 * math.ulp(slow)


def test_stored_suffixes_stay_within_the_memory_bound():
    # dp_len ~ 48k: a dense (cap x n) stack for mode 2 alone would take 0.9 GB
    table, model, _ = _setup(k_top=40)
    caps = [1, 1] + [max(1, 2500 - 60 * k) for k in range(2, 41)]
    spec = truncation_from_caps(table, model, caps)
    entry = 8 * (sum(caps[2:]) + 1)  # bytes of one length-n float64 vector
    tracemalloc.start()
    try:
        z = constrained_partition(spec, model)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = sum(v.nbytes for k, v in z.suffixes.items() if k <= spec.k_top)
    assert 0 < stored <= gibbs_oracle._SUFFIX_MEMORY * entry
    assert retained <= (1 + gibbs_oracle._SUFFIX_MEMORY) * entry + 65536
    # working set: the input, the window sum, its shifted copy and the output
    assert peak <= (4 + gibbs_oracle._SUFFIX_MEMORY) * entry + 65536


# ----------------------------------------------------------------------
# grand expectations
# ----------------------------------------------------------------------

def test_normalization_is_exactly_one():
    _, model, spec = _setup()
    assert grand_expectation(DiagonalObservable(), spec, model) == 1.0


def test_free_limit_reproduces_bose_law():
    # lam -> 0+ with generous caps: occupations go to the free-gas law
    table, model, spec = _setup(lam=1e-14, tol=1e-13)
    for k in range(spec.k_top + 1):
        occ = grand_expectation(DiagonalObservable.mode_number(k), spec, model)
        free = bose(model.beta * (table.epsilons[k] - model.mu))
        assert abs(occ - free) <= 20.0 * spec.tail_budget * max(1.0, free) + 1e-12


def test_expectation_matches_enumeration():
    table, model, spec = _setup(k_top=4, caps=(4, 4, 4, 4, 4))
    obs = DiagonalObservable(
        factors=((0, number_poly(1)), (2, shifted_number_poly(2))),
        ntilde_poly=(0.0, 1.0),
    )
    val = grand_expectation(obs, spec, model)
    ref = enum_expectation(
        list(table.epsilons), model.beta, model.mu, model.lam, model.box.L,
        list(spec.caps), {0: number_poly(1), 2: shifted_number_poly(2)},
        ntilde_poly=(0.0, 1.0),
    )
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_expectation_matches_split_enumeration_cap8():
    # K = 6 with caps 8 everywhere: oracle vs enumeration restricted identically
    table, model, spec = _setup(k_top=6, caps=(8,) * 7, mu=-1.5, lam=1.0)
    val = grand_expectation(DiagonalObservable.mode_number(2), spec, model)
    ref = enum_expectation_split(
        list(table.epsilons), model.beta, model.mu, model.lam, model.box.L,
        list(spec.caps), {2: number_poly(1)},
    )
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_monotone_in_mu():
    table, _, _ = _setup()
    occ_prev = -1.0
    for mu in np.linspace(-3.0, -1.1, 12):
        model = ModelParams(box=table.params, beta=1.0, mu=float(mu), lam=1.0)
        spec = make_truncation(table, model, tol=1e-12)
        occ = grand_expectation(DiagonalObservable.mode_number(2), spec, model)
        assert occ > occ_prev
        occ_prev = occ


def test_truncation_honesty_doubling_caps():
    table, model, spec = _setup(tol=1e-10)
    spec2 = truncation_from_caps(table, model, tuple(2 * c for c in spec.caps))
    for obs in (
        DiagonalObservable.mode_number(0),
        DiagonalObservable.mode_number(2),
        DiagonalObservable.mode_number(3, 2),
        DiagonalObservable(factors=((2, shifted_number_poly(1)),), ntilde_poly=(0.0, 1.0)),
    ):
        a = grand_expectation(obs, spec, model)
        b = grand_expectation(obs, spec2, model)
        assert abs(a - b) < spec.tail_budget * max(1.0, abs(a))


def test_unknown_mode_rejected():
    _, model, spec = _setup(k_top=3, caps=(2, 2, 2, 2))
    with pytest.raises(UnknownMode):
        grand_expectation(DiagonalObservable.mode_number(9), spec, model)


def test_observable_validation():
    with pytest.raises(ValidationError):
        DiagonalObservable(factors=((2, number_poly(1)), (2, number_poly(2))))
    with pytest.raises(ValidationError):
        DiagonalObservable(factors=((2, (math.nan,)),))


# ----------------------------------------------------------------------
# exchange identity
# ----------------------------------------------------------------------

def test_exchange_identity_free_gas_wall_pair():
    _, model, spec = _setup(lam=0.0, tol=1e-13)
    lhs, rhs = exchange_identity_sides(0, [(1, 1)], spec, model)
    assert abs(lhs - rhs) <= 1e-12


def test_exchange_identity_wall_pair_interacting():
    # the j=1, k=0 instance that controls equal distribution
    _, model, spec = _setup(lam=1.0)
    lhs_scale = 5.0
    lhs, rhs = exchange_identity_sides(1, [(0, 1)], spec, model)
    assert abs(lhs - rhs) <= spec.tail_budget * lhs_scale + 1e-12


def test_exchange_identity_excited_with_spectators():
    table, model, spec = _setup(lam=1.0)
    lhs, rhs = exchange_identity_sides(2, [(3, 2), (4, 1)], spec, model)
    assert abs(lhs - rhs) <= spec.tail_budget + 1e-12
    # both sides against brute force at small caps, restricted identically
    spec_small = truncation_from_caps(table, model, (3, 3, 3, 3, 3, 3))
    ref_lhs = math.exp(model.beta * (table.epsilons[2] - table.epsilons[3]))
    ref_lhs *= enum_expectation(
        list(table.epsilons), model.beta, model.mu, model.lam, model.box.L,
        list(spec_small.caps),
        {2: number_poly(1), 3: shifted_number_poly(2), 4: number_poly(1)},
    )
    ref_rhs = enum_expectation(
        list(table.epsilons), model.beta, model.mu, model.lam, model.box.L,
        list(spec_small.caps),
        {2: shifted_number_poly(1), 3: number_poly(2), 4: number_poly(1)},
    )
    lhs, rhs = exchange_identity_sides(2, [(3, 2), (4, 1)], spec_small, model)
    assert abs(lhs - ref_lhs) < 1e-12 * max(1.0, abs(ref_lhs))
    assert abs(rhs - ref_rhs) < 1e-12 * max(1.0, abs(ref_rhs))
    assert abs((lhs - rhs) - (ref_lhs - ref_rhs)) < 1e-12 * max(1.0, abs(ref_lhs))


def test_exchange_identity_breaks_across_sectors_with_coupling():
    # moving a particle between a wall mode and a k >= 2 mode changes the
    # coupling term, so the plain identity must fail at lam > 0 ...
    _, model, spec = _setup(lam=1.0)
    lhs, rhs = exchange_identity_sides(0, [(2, 1)], spec, model)
    assert abs(lhs - rhs) > 1e-3
    # ... and hold again in the free gas
    _, model0, spec0 = _setup(lam=0.0)
    lhs, rhs = exchange_identity_sides(0, [(2, 1)], spec0, model0)
    assert abs(lhs - rhs) <= 1e-12


def test_exchange_identity_requires_mu_below_ground():
    # at mu = eps(0) the untruncated wall series diverges; the check asserts
    # its precondition instead of computing
    table, model, _ = _setup()
    at_ground = ModelParams(box=table.params, beta=model.beta,
                            mu=float(table.epsilons[0]), lam=model.lam)
    spec = truncation_from_caps(table, at_ground, (5, 5, 5, 5, 5, 5))
    with pytest.raises(ValidationError):
        exchange_identity_sides(1, [(0, 1)], spec, at_ground)


def test_exchange_identity_validation():
    _, model, spec = _setup()
    with pytest.raises(IndexClash):
        exchange_identity_sides(2, [(2, 1)], spec, model)
    with pytest.raises(IndexClash):
        exchange_identity_sides(0, [(2, 1), (2, 2)], spec, model)
    with pytest.raises(ValidationError):
        exchange_identity_sides(0, [(1, 0)], spec, model)  # first power must be >= 1
    with pytest.raises(UnknownMode):
        exchange_identity_sides(0, [(99, 1)], spec, model)
    with pytest.raises(ValidationError, match="target powers"):  # beyond the tail envelope
        exchange_identity_sides(0, [(1, 4)], spec, model)


# ----------------------------------------------------------------------
# wall-mode occupation law
# ----------------------------------------------------------------------

def test_wall_occupation_closed_form():
    for k in (0, 1):
        _, model, spec = _setup(lam=1.0)
        occ, closed = check_wall_mode_occupation(k, spec, model)
        assert abs(occ - closed) <= spec.tail_budget


def test_wall_occupation_boltzmann_tail():
    # beta (eps0 - mu) >= 30: occupation collapses to the Boltzmann weight
    _, model, spec = _setup(beta=30.0, mu=-2.01, lam=1.0)
    occ = grand_expectation(DiagonalObservable.mode_number(0), spec, model)
    x = model.beta * (spec.table.epsilons[0] - model.mu)
    assert x >= 30.0
    assert abs(occ - math.exp(-x)) <= 1e-14


def test_wall_occupation_independent_of_lambda():
    vals = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        _, model, spec = _setup(lam=lam, caps=(70, 60, 25, 20, 15, 12))
        vals.append(grand_expectation(DiagonalObservable.mode_number(0), spec, model))
    assert max(vals) - min(vals) <= 1e-12 * max(vals)


def test_wall_occupation_validation():
    _, model, spec = _setup()
    with pytest.raises(BadMode):
        check_wall_mode_occupation(2, spec, model)
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
        lhs, rhs = check_moment_log_inequality(2, n, spec, model)
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
                    lhs, rhs = check_moment_log_inequality(k, n, spec, model)
                    scale = max(1.0, abs(lhs), abs(rhs))
                    assert lhs >= rhs - (spec.tail_budget + 4e-13) * scale


def test_moment_inequality_validation():
    _, model, spec = _setup()
    with pytest.raises(BadMode):
        check_moment_log_inequality(0, 0, spec, model)
    with pytest.raises(ValidationError):
        check_moment_log_inequality(2, -1, spec, model)
    with pytest.raises(ValidationError, match="moment power"):  # beyond the tail envelope
        check_moment_log_inequality(2, 3, spec, model)


# ----------------------------------------------------------------------
# occupation bound
# ----------------------------------------------------------------------

def test_occupation_bound_holds():
    _, model, spec = _setup(lam=1.0)
    for k in range(2, 6):
        occ, bound = check_occupation_bound(k, spec, model)
        assert occ <= bound


def test_occupation_bound_free_saturation():
    # lam = 0 and mu = eps(0): the occupation equals the bound exactly
    table = build_spectrum(BoxParams(-1.0, 10.0), 5)
    eps = table.epsilons
    model = ModelParams(box=table.params, beta=1.0, mu=float(eps[0]), lam=0.0)
    spec = truncation_from_caps(table, model, (5, 5, 140, 90, 70, 50))
    for k in (2, 3):
        occ, bound = check_occupation_bound(k, spec, model)
        free = bose(model.beta * (eps[k] - eps[0]))
        assert abs(occ - free) <= 1e-10 * free
        assert abs(bound - free) <= 1e-14 * free


def test_occupation_bound_large_k_geometric_tail():
    # once beta (eps_k - eps_0) >> 1 and beta lam/(2L) << 1e-6, occupation
    # and bound both collapse onto the bare Boltzmann factor
    _, model, spec = _setup(k_top=13, lam=1e-6)
    eps = spec.table.epsilons
    for k in (12, 13):
        occ, bound = check_occupation_bound(k, spec, model)
        env = math.exp(-model.beta * (eps[k] - eps[0])) * (1.0 + 1e-6)
        assert occ <= bound <= env


def test_occupation_bound_nonpositive_gap():
    # huge lam/(2L) swamps the spectral gap -> vacuous bound is reported
    table = build_spectrum(BoxParams(-1.0, 10.0), 5)
    model = ModelParams(box=table.params, beta=1.0, mu=-1.5, lam=2000.0)
    spec = make_truncation(table, model, tol=1e-10)
    with pytest.raises(NonpositiveGap):
        check_occupation_bound(2, spec, model)
    report = run_check("occupation-bound", spec, model, k=2)
    assert report["pass"] is None


def test_occupation_bound_validation():
    _, model, spec = _setup()
    with pytest.raises(BadMode):
        check_occupation_bound(1, spec, model)


# ----------------------------------------------------------------------
# JSON reports
# ----------------------------------------------------------------------

def test_run_check_reports():
    _, model, spec = _setup(lam=1.0)
    rep = run_check("exchange", spec, model, j=1, targets=[(0, 1)])
    assert rep["check"] == "exchange"
    assert rep["pass"] is True
    assert set(rep) >= {"check", "params", "lhs", "rhs", "residual", "tail_budget", "pass"}
    rep = run_check("wall-occupation", spec, model, k=0)
    assert rep["pass"] is True
    rep = run_check("moment-inequality", spec, model, k=2, n=0)
    assert rep["pass"] is True
    assert {"k": 2, "n": 0}.items() <= rep["params"].items()  # the check's own arguments
    rep = run_check("occupation-bound", spec, model, k=2)
    assert rep["pass"] is True
    with pytest.raises(ValidationError):
        run_check("nonsense", spec, model)
