import math
import random
import tracemalloc

import numpy as np
import pytest
from helpers_bisection import bisection_ladder, bracketed_roots
from helpers_fd import (
    boundary_residual_scale,
    fd_eigenvalues,
    fd_eigenvalues_raw,
    fd_eigenvalues_richardson,
)
from scipy.integrate import quad

import robinbec.spectrum as spectrum
from robinbec import csvio
from robinbec.errors import NumericalFailure, ValidationError
from robinbec.spectrum import (
    EVEN,
    BoxParams,
    BracketFailure,
    NoSecondBoundState,
    OutOfDomain,
    bound_state_gap,
    build_spectrum,
    eigenfunction_eval,
    write_spectrum_csv,
)

# Frozen finite-difference oracle values (Richardson over grids 2500/4999)
# for sigma = -1, L = 40; the extrapolation error there is ~2e-9.
FD_EPS0_SIGMA1_L40 = -0.9999999979525892
FD_EPS1_SIGMA1_L40 = -0.9999999979525892


def test_box_params_validation():
    with pytest.raises(ValidationError):
        BoxParams(sigma=0.0, L=10.0)
    with pytest.raises(ValidationError):
        BoxParams(sigma=1.0, L=10.0)
    with pytest.raises(ValidationError):
        BoxParams(sigma=-1.0, L=0.0)
    assert BoxParams(sigma=-1.0, L=10.0).s == 1.0


def test_ground_state_near_minus_sigma_squared():
    # eps(0) = -sigma^2 - O(e^{-L|sigma|})
    table = build_spectrum(BoxParams(sigma=-1.0, L=20.0), 0)
    eps = table.epsilons[0]
    assert eigenfunction_eval(table, 0, 3.0) == eigenfunction_eval(table, 0, -3.0)  # even
    assert eps < -1.0
    assert abs(eps + 1.0) <= 5.0 * math.exp(-20.0)
    # residual of the defining equation
    q = table.wavenumbers[0]
    assert abs(q * math.tanh(10.0 * q) - 1.0) < 1e-12


def test_second_bound_state_threshold():
    with pytest.raises(NoSecondBoundState):
        build_spectrum(BoxParams(sigma=-1.0, L=1.0), 1)
    with pytest.raises(NoSecondBoundState):
        build_spectrum(BoxParams(sigma=-1.0, L=2.0), 1)  # L|sigma| = 2 exactly
    table = build_spectrum(BoxParams(sigma=-1.0, L=2.5), 1)
    assert eigenfunction_eval(table, 1, 0.5) == -eigenfunction_eval(table, 1, -0.5)  # odd
    assert table.epsilons[1] < 0.0


def test_phase_form_range():
    # past L|sigma| ~ 4e15 the k >= 2 roots round onto (k-1) pi/L; the
    # limit 1e15 is checked wherever those modes are built
    for L in (1e-3, 1.0, 20.0, 1e4):
        table = build_spectrum(BoxParams(sigma=-spectrum.MAX_PHASE_LS / L, L=L), 2000)
        assert np.all(np.diff(table.epsilons[1:]) > 0.0)  # the wall pair is degenerate here
        over = BoxParams(sigma=-2.0 * spectrum.MAX_PHASE_LS / L, L=L)
        with pytest.raises(ValidationError, match="L\\*\\|sigma\\| <= 1e\\+15"):
            build_spectrum(over, 3)
        with pytest.raises(ValidationError, match="L\\*\\|sigma\\| <= 1e\\+15"):
            build_spectrum(over, 2)
        assert len(build_spectrum(over, 1).epsilons) == 2  # the wall pair has no such limit


def test_positive_mode_bracket():
    eps = build_spectrum(BoxParams(sigma=-1.0, L=10.0), 2).epsilons[2]
    assert (math.pi / 10.0) ** 2 < eps < (2.0 * math.pi / 10.0) ** 2


def test_second_bound_state_near_threshold():
    # q coth(qL/2) - s cancels as q -> 0; the old form missed eps(1) by
    # 1.2e-7 relative at L s = 2 + 1e-9 with a residual of 0.0
    mpmath = pytest.importorskip("mpmath")
    for L in (2.0 + 1e-9, 2.0 + 1e-6, 2.001, 2.5):
        table = build_spectrum(BoxParams(sigma=-1.0, L=L), 1)
        with mpmath.workdps(80):
            c = mpmath.mpf(L) / 2  # u coth(u) = L s / 2 at u = q L / 2
            u = mpmath.findroot(lambda u: u * mpmath.coth(u) - c, mpmath.sqrt(3 * (c - 1)))
            q = float(2 * u / mpmath.mpf(L))
        _assert_within_ulps(table.wavenumbers[1], q)
        assert abs(table.epsilons[1] + q * q) <= 8 * np.spacing(q * q)


def test_frozen_fd_values_sigma1_L40():
    params = BoxParams(sigma=-1.0, L=40.0)
    fd = fd_eigenvalues_richardson(params, 2500, 2)
    # the frozen values regress the oracle itself
    assert abs(fd[0] - FD_EPS0_SIGMA1_L40) < 1e-8
    assert abs(fd[1] - FD_EPS1_SIGMA1_L40) < 1e-8
    # and the transcendental solver agrees within the oracle error
    eps = build_spectrum(params, 1).epsilons
    assert abs(eps[0] - FD_EPS0_SIGMA1_L40) < 1e-6
    assert abs(eps[1] - FD_EPS1_SIGMA1_L40) < 1e-6


def test_build_spectrum_shapes_and_ordering():
    params = BoxParams(sigma=-1.0, L=20.0)
    table0 = build_spectrum(params, 0)
    assert table0.k_max == 0 and len(table0.walls) == 1
    assert len(table0.epsilons) == len(table0.log_norms) == 1

    table = build_spectrum(params, 10)
    assert table.k_max == 10 and len(table.walls) == 2
    eps = table.epsilons
    assert len(eps) == len(table.wavenumbers) == len(table.residuals) == 11
    assert np.all(np.diff(eps) > 0.0)
    assert eps[0] < eps[1] < 0.0 < eps[2]
    assert np.all(table.bracket_lo[2:] < eps[2:]) and np.all(eps[2:] < table.bracket_hi[2:])


# L*|sigma| from just above the odd-bound-state threshold 2 up to 12800
REFERENCE_BOXES = [(-1.0, 2.0 + 1e-9), (-3.0, 1.0), (-0.25, 40.0), (-1.0, 40.0),
                   (-2.5, 80.0), (-0.5, 1600.0), (-1.0, 12800.0)]


def _reference_k_max(L):
    return int(1.4 * L) + 10  # about the certified density cutoff at beta = 1


@pytest.mark.parametrize("sigma,L", REFERENCE_BOXES)
def test_build_spectrum_rows_are_a_prefix(sigma, L):
    # each phase root is frozen on its own Newton step and every derived
    # entry is a function of its own root, so a shorter table of a box is
    # the first rows of a longer one, bit for bit: `ThermoState.occupations`
    # relies on this where a solve's head table and a profile's table overlap
    params = BoxParams(sigma=sigma, L=L)
    k_max = _reference_k_max(L)
    full = build_spectrum(params, k_max)
    for k in sorted({0, 1, 2, 3, 7, k_max // 2, k_max - 1}):
        table = build_spectrum(params, k)
        assert table.walls == full.walls[: k + 1]
        for name in ("epsilons", "wavenumbers", "log_norms", "residuals", "bracket_lo",
                     "bracket_hi"):
            assert getattr(table, name).tobytes() == getattr(full, name)[: k + 1].tobytes(), (
                name, k)


@pytest.mark.parametrize("sigma,L", REFERENCE_BOXES)
def test_ladder_matches_bisection_reference(sigma, L):
    # the bisection stops at 1e-13 relative width, so it agrees to that
    k_max = _reference_k_max(L)
    p = build_spectrum(BoxParams(sigma=sigma, L=L), k_max).wavenumbers[2:]
    np.testing.assert_allclose(p, bisection_ladder(sigma, L, k_max), rtol=1e-13, atol=0.0)


def _mp_phase_root(sigma, L, k):
    """Root of g_k(p) = p L + 2 arctan(s/p) - k pi on ((k-1) pi/L, k pi/L)
    at 50 digits, checked against the raw trig condition of its parity."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s, L = mpmath.mpf(-sigma), mpmath.mpf(L)
        lo, hi = (k - 1) * mpmath.pi / L, k * mpmath.pi / L
        p = mpmath.findroot(lambda x: x * L + 2 * mpmath.atan(s / x) - k * mpmath.pi,
                            (lo, hi), solver="anderson")
        assert lo < p < hi
        u = p * L / 2
        trig = p * mpmath.sin(u) + s * mpmath.cos(u) if k % 2 == 0 else \
            p * mpmath.cos(u) - s * mpmath.sin(u)
        assert abs(trig) <= mpmath.mpf("1e-40") * (p + s)
        return float(p)


def _assert_within_ulps(got, ref):
    # rounding p*L and k*pi in g costs up to ~ulp(k pi)/L in p: at most
    # 2 ulp measured, 4 allowed
    got, ref = np.asarray(got), np.asarray(ref)
    err = np.abs(got - ref) / np.spacing(ref)
    assert err.max() <= 4.0, (int(err.argmax()), float(err.max()))


@pytest.mark.parametrize("sigma,L", REFERENCE_BOXES)
def test_ladder_matches_mpmath_reference(sigma, L):
    k_max = _reference_k_max(L)
    ks = sorted({2, 3, 4, 7, k_max // 2, k_max // 2 + 1, k_max - 1, k_max}
                | ({32} if (sigma, L) == (-1.0, 40.0) else set()))
    p = build_spectrum(BoxParams(sigma=sigma, L=L), k_max).wavenumbers
    _assert_within_ulps(p[ks], [_mp_phase_root(sigma, L, k) for k in ks])


def test_phase_root_regression_sigma1_L40_k32():
    # the bisection's guarded Newton step was rejected here and its root
    # missed by 161 ulp (residual 8.6e-13)
    table = build_spectrum(BoxParams(sigma=-1.0, L=40.0), 32)
    p = table.wavenumbers[32]
    _assert_within_ulps(p, _mp_phase_root(-1.0, 40.0, 32))
    assert table.residuals[32] <= 1e-15
    assert abs(bisection_ladder(-1.0, 40.0, 32)[-1] - p) > 100 * np.spacing(p)


@pytest.mark.parametrize("sigma,L", [(-3.0, 0.5), (-0.1, 1.0)])
def test_ladder_without_odd_bound_state_matches_mpmath(sigma, L):
    # L*|sigma| <= 2: no odd bound state, so no table holds these k >= 2
    # modes, but each exists and the ladder solver finds it
    params = BoxParams(sigma=sigma, L=L)
    assert not params.has_second_bound_state()
    ks = np.arange(2, 40)
    p = spectrum._ladder_roots(params, ks)
    _assert_within_ulps(p, [_mp_phase_root(sigma, L, k) for k in ks])
    columns = spectrum._ladder_columns(params, ks, p)
    assert np.all(columns["bracket_lo"] < p * p) and np.all(p * p < columns["bracket_hi"])
    # the residual against max(1, |sigma| |phi(L/2)|), as `boundary_residual_scale`
    phi_wall = np.exp(columns["log_norm"]) * np.abs(
        np.where(ks % 2 == 0, np.cos(p * params.half), np.sin(p * params.half)))
    assert np.all(columns["residual"] <= 1e-12 * np.maximum(1.0, params.s * phi_wall))


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(spectrum, name)

    def counted(p, *args):
        calls.append(len(p))
        return real(p, *args)

    monkeypatch.setattr(spectrum, name, counted)
    return calls


def test_build_spectrum_newton_passes(monkeypatch):
    # each `_phase` call after the lower-end sign check is one Newton pass
    # (the first at the upper bracket end, the last confirming a step of a
    # few ulp); `_trig_residual` runs not at all at build and once on the
    # first read of the residual column
    phase = _count_calls(monkeypatch, "_phase")
    residual = _count_calls(monkeypatch, "_trig_residual")
    for sigma, L in [(-1.0, 2.0 + 1e-9), (-0.5, 1600.0), (-1.0, 12800.0)]:
        phase.clear()
        residual.clear()
        k_max = _reference_k_max(L)
        table = build_spectrum(BoxParams(sigma=sigma, L=L), k_max)
        assert phase[:2] == [k_max - 1, k_max - 1]
        assert 1 <= len(phase) - 1 <= 5, (sigma, L, phase)
        assert residual == []
        table.residuals
        table.residuals
        assert residual == [k_max - 1]
    params = BoxParams(sigma=-0.1, L=1.0)  # no odd bound state: one root at a time
    for k in range(2, 40):
        phase.clear()
        residual.clear()
        ks = np.array([k])
        spectrum._ladder_columns(params, ks, spectrum._ladder_roots(params, ks))
        assert 1 <= len(phase) - 1 <= 5, (k, phase)
        assert residual == [1]


def test_phase_roots_refuse_unresolved_brackets():
    # the root sits ~2 s/(p L) below k pi/L: near k = 1e12 that is below an
    # ulp, the root rounds onto the bracket end and is not strictly inside;
    # near 1e16 the bracket ends themselves round together
    L, s = 1.0, 1e-3
    for k, match in [(2**40, "outside"), (2**55, "no sign change")]:
        k = np.array([2, k])
        with pytest.raises(BracketFailure, match=match):
            spectrum._phase_roots(k, L, s, (k - 1) * math.pi / L, k * math.pi / L)


def test_phase_roots_pass_cap(monkeypatch):
    monkeypatch.setattr(spectrum, "_NEWTON_PASSES", 2)
    with pytest.raises(NumericalFailure, match="phase Newton left .* unconverged after 2 passes"):
        spectrum._ladder_roots(BoxParams(sigma=-1.0, L=40.0), np.arange(2, 61))


def test_vector_bracket_without_sign_change_raises():
    lo = np.array([0.0, 2.0, 4.0])
    hi = np.array([2.0, 3.0, 6.0])
    with pytest.raises(BracketFailure, match=r"\[2\.0, 3\.0\]"):
        bracketed_roots(lambda x, i: (x - 1.0) * (x - 5.0), lambda x, i: 2.0 * x - 6.0, lo, hi)


def test_derived_columns_are_computed_on_first_read(monkeypatch):
    # a build solves the roots only; the first read of a derived column
    # computes the columns once, and later reads return the same read-only
    # arrays (their values: test_build_spectrum_rows_are_a_prefix and the
    # reference tests)
    calls = []
    real = spectrum._ladder_columns
    monkeypatch.setattr(spectrum, "_ladder_columns", lambda *a: calls.append(a) or real(*a))
    params = BoxParams(sigma=-1.0, L=40.0)
    table = build_spectrum(params, 60)
    assert calls == []
    columns = [table.log_norms, table.residuals, table.bracket_lo, table.bracket_hi]
    assert len(calls) == 1
    again = [table.log_norms, table.residuals, table.bracket_lo, table.bracket_hi]
    assert all(a is b for a, b in zip(columns, again))
    assert eigenfunction_eval(table, 30, 1.0) == eigenfunction_eval(table, 30, 1.0)
    assert len(calls) == 1
    for column in [table.epsilons, table.wavenumbers] + columns:
        assert len(column) == 61
        with pytest.raises(ValueError):
            column[3] = 0.0


def test_strong_coupling_bound_states():
    table = build_spectrum(BoxParams(sigma=-2.0, L=20.0), 50)
    eps = table.epsilons
    assert abs(eps[0] + 4.0) <= math.exp(-20.0)
    assert abs(eps[1] + 4.0) <= math.exp(-20.0)
    # cross-check against the finite-difference oracle
    fd = fd_eigenvalues_richardson(table.params, 2500, 2)
    assert abs(eps[0] - fd[0]) < 1e-6
    assert np.all(np.diff(eps) >= 0.0)


def test_boundary_residuals_small():
    for sigma, L in [(-1.0, 20.0), (-0.5, 30.0), (-2.5, 8.0)]:
        params = BoxParams(sigma=sigma, L=L)
        table = build_spectrum(params, 20)
        for k in range(21):
            assert table.residuals[k] <= 1e-10 * boundary_residual_scale(table, k)


def test_eigenfunction_parity_and_domain():
    # parity from k: even rows are even functions, odd rows odd ones
    table = build_spectrum(BoxParams(sigma=-1.0, L=12.0), 3)
    for x in (0.3, 2.7, 5.9):
        for k in (0, 2):
            assert eigenfunction_eval(table, k, x) == eigenfunction_eval(table, k, -x)
        for k in (1, 3):
            assert eigenfunction_eval(table, k, x) == -eigenfunction_eval(table, k, -x)
    assert eigenfunction_eval(table, 1, 0.0) == eigenfunction_eval(table, 3, 0.0) == 0.0
    with pytest.raises(OutOfDomain):
        eigenfunction_eval(table, 0, 6.1)
    for k in (-1, 4):
        with pytest.raises(ValidationError, match="mode index must be in 0..3"):
            eigenfunction_eval(table, k, 0.0)


def test_orthonormality_by_quadrature():
    # Gram matrix of modes 0..20 equals identity within 1e-8 per entry
    params = BoxParams(sigma=-1.0, L=20.0)
    table = build_spectrum(params, 20)
    half = params.half
    for j in range(21):
        for k in range(j, 21):
            if (j + k) % 2 == 1:
                continue  # odd/even products integrate to zero by symmetry
            val, _ = quad(
                lambda x: eigenfunction_eval(table, j, x) * eigenfunction_eval(table, k, x),
                -half,
                half,
                epsabs=1e-11,
                epsrel=1e-11,
                limit=400,
            )
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-8, (j, k, val)


def test_eigenfunction_stable_at_huge_L():
    params = BoxParams(sigma=-1.0, L=1600.0)
    table = build_spectrum(params, 0)
    assert math.isfinite(table.log_norms[0])
    wall = eigenfunction_eval(table, 0, params.half)
    assert 0.5 < wall < 1.5  # ~ sqrt(q) * O(1)
    assert eigenfunction_eval(table, 0, 0.0) >= 0.0


def test_bound_state_corrections_match_direct_subtraction():
    # the offsets and plain subtraction of the wavenumbers overlap for moderate L*s
    for L in (6.0, 8.0, 12.0):
        params = BoxParams(sigma=-1.0, L=L)
        table = build_spectrum(params, 1)
        d0, d1 = table.wall_offsets
        q0, q1 = table.wavenumbers
        assert abs(d0 - (q0 - 1.0)) < 1e-11 * d0
        assert abs(d1 - (1.0 - q1)) < 1e-11 * d1


def test_bound_state_gap_positive_and_decaying():
    gaps = [bound_state_gap(BoxParams(sigma=-1.0, L=L)) for L in (10.0, 20.0, 40.0, 80.0)]
    assert all(g > 0.0 for g in gaps)
    ratios = [gaps[i + 1] / gaps[i] for i in range(3)]
    assert all(r < 1e-3 for r in ratios)


def test_bound_state_asymptotic_rates():
    # fitted exponential rate of |eps + sigma^2| >= 0.95 |sigma|
    for s in (1.0, 2.0):
        Ls = np.geomspace(10.0 / s, 60.0 / s, 8)
        off0, gap = [], []
        for L in Ls:
            table = build_spectrum(BoxParams(sigma=-s, L=float(L)), 1)
            off0.append(table.wall_level_offsets[0])
            gap.append(table.wall_gap)
        rate0 = -np.polyfit(Ls, np.log(off0), 1)[0]
        rate_gap = -np.polyfit(Ls, np.log(gap), 1)[0]
        assert rate0 >= 0.95 * s
        assert rate_gap >= 0.95 * s


def _mp_wall_pair(sigma, L, extra_digits):
    """(q0, q1, d0, d1) with d0 = q0 - s, d1 = s - q1 from the bound-state
    conditions q tanh(qL/2) = s and q coth(qL/2) = s (q1 and d1 are None for
    L s <= 2), solved in mpmath with L s / ln 10 digits more than
    `extra_digits`: the offsets from s are ~e^{-L s}, so that many digits
    cancel in them."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(int(-sigma * L / math.log(10.0)) + extra_digits):
        s = mpmath.mpf(-sigma)
        c = s * mpmath.mpf(L) / 2  # u = q L/2 solves u tanh(u) = c and u coth(u) = c
        u0 = mpmath.findroot(lambda u: u * mpmath.tanh(u) - c, c * mpmath.coth(c))
        q0 = s * u0 / c
        if c <= 1:
            return q0, None, q0 - s, None
        e = c - 1
        u1 = mpmath.findroot(lambda u: u * mpmath.coth(u) - c, (e + mpmath.sqrt(e * (e + 12))) / 2)
        q1 = s * u1 / c
        return q0, q1, q0 - s, s - q1


def _mp_bound_pair(sigma, L, extra_digits):
    """(gap, |eps0 + sigma^2|, |eps1 + sigma^2|) from `_mp_wall_pair`."""
    mpmath = pytest.importorskip("mpmath")
    q0, q1, d0, d1 = _mp_wall_pair(sigma, L, extra_digits)
    s = mpmath.mpf(-sigma)
    with mpmath.workdps(extra_digits):  # products of the offsets, no cancellation
        return (d0 + d1) * (2 * s + d0 - d1), d0 * (2 * s + d0), d1 * (2 * s - d1)


@pytest.mark.parametrize("sigma,L", [
    (-1.0, 2.5), (-1.0, 3.9), (-1.0, 4.0), (-0.5, 12.0), (-1.5, 20.0), (-1.0, 60.0),
    (-2.0, 100.0), (-1.0, 300.0), (-1.5, 400.0), (-2.0, 350.0), (-0.7, 1000.0),
])
def test_bound_pair_matches_mpmath_reference(sigma, L):
    # L|sigma| from 2.5 (direct root subtraction) to 700 (gap ~ 1e-304)
    mpmath = pytest.importorskip("mpmath")
    ref = _mp_bound_pair(sigma, L, 60)
    check = _mp_bound_pair(sigma, L, 40)
    with mpmath.workdps(40):  # the reference keeps >= 30 digits
        for r, c in zip(ref, check):
            assert abs(r - c) <= mpmath.mpf("1e-30") * r
    table = build_spectrum(BoxParams(sigma=sigma, L=L), 1)
    got = (table.wall_gap, *table.wall_level_offsets)
    # the log forms carry a relative error ~ L s eps from rounding their
    # term (s +- d) L (measured: 5.4e-14 at L s = 600)
    tol = 1e-14 + -sigma * L * 2.3e-16
    for g, r in zip(got, ref):
        assert abs(g - float(r)) <= tol * float(r)


def _wall_evaluations(monkeypatch):
    """Record, per wall root solved, how many times its form was evaluated."""
    counts = []
    real = spectrum._wall_newton

    def counted(form, x, k):
        calls = [0]

        def form_counted(x):
            calls[0] += 1
            return form(x)

        try:
            return real(form_counted, x, k)
        finally:
            counts.append(calls[0])

    monkeypatch.setattr(spectrum, "_wall_newton", counted)
    return counts


# |sigma| in [0.01, 10]; L|sigma| in [1e-3, 700] (log-uniform) for two boxes
# in three, 2 + [1e-9, 1] for the third.  L = (L|sigma|)/|sigma| makes the
# double product L*|sigma| round in most boxes.
_rng = random.Random(7)
WALL_BOXES = [
    (-s, ls / s)
    for s, ls in (
        (10.0 ** _rng.uniform(-2.0, 1.0),
         2.0 + 10.0 ** _rng.uniform(-9.0, 0.0) if i % 3 == 2
         else 10.0 ** _rng.uniform(-3.0, math.log10(700.0)))
        for i in range(330)
    )
] + [
    # the k = 0 start, with its exponent not lowered by its own rounding,
    # lay above the root here (12 of 20,000 random boxes)
    (-0.01977811171751529, 3213.981378902782),
    (-0.015009620844553683, 4058.518607173825),
    (-0.01706121816228226, 7429.83465913583),
    # Dekker's split of L overflows past L ~ 1.3e300: e = L s/2 - 1 was NaN
    (-1e-300, 2.5e300),
]
# the wavenumbers of the bisection solver the wall-pair Newton iteration replaced
EXTREME_WALL_BOXES = {
    (1e-300, 1.0): [1.4142135623730952e-150],
    (1.0, 1e-300): [1.4142135623730951e+150],
    (1e150, 1e-150): [1.5434046384182084e+150],
    (1e-150, 1e150): [1.5434046384182087e-150],
    (1e150, 1.0): [1e150, 1e150],
    (1.0, 1e300): [1.0, 1.0],
    (1e100, 2.5e-100): [1.1270788500568193e+100, 7.104117834878705e+99],
}


def test_wall_pair_matches_mpmath_reference(monkeypatch):
    # q0, q1 within 4 ulp; d0, d1 within the bound-pair tolerance below
    evaluations = _wall_evaluations(monkeypatch)
    assert sum(not BoxParams(*box).has_second_bound_state() for box in WALL_BOXES) > 30
    for sigma, L in WALL_BOXES:
        params = BoxParams(sigma=sigma, L=L)
        k_max = 1 if params.has_second_bound_state() else 0
        table = build_spectrum(params, k_max)
        ref = _mp_wall_pair(sigma, L, 30)
        _assert_within_ulps(table.wavenumbers, [float(q) for q in ref[: k_max + 1]])
        tol = 1e-14 + -sigma * L * 2.3e-16
        for d, d_ref in zip(table.wall_offsets, ref[2:]):
            assert abs(d - float(d_ref)) <= tol * float(d_ref), (sigma, L)
        assert np.all(table.bracket_lo <= table.epsilons)
        assert np.all(table.epsilons <= table.bracket_hi)
    assert max(evaluations) <= 8  # bisection took ~47 residual evaluations per root


def test_wall_pair_extreme_boxes(monkeypatch):
    evaluations = _wall_evaluations(monkeypatch)
    for (s, L), q in EXTREME_WALL_BOXES.items():
        got = build_spectrum(BoxParams(sigma=-s, L=L), len(q) - 1).wavenumbers
        assert np.all(np.abs(got - q) <= np.spacing(q)), (s, L, got)
    assert max(evaluations) <= 8


@pytest.mark.parametrize("s", [1.0, 0.37, 3.3, 1e-5, 7e4])
def test_odd_root_inside_its_bracket_above_threshold(monkeypatch, s):
    # the first 40 doubles of L above 2/s: the bracket end sqrt(3e)/(L/2) is
    # within e/10 relative of the root there, below an ulp
    evaluations = _wall_evaluations(monkeypatch)
    L = 2.0 / s
    for _ in range(40):
        L = math.nextafter(L, math.inf)
        params = BoxParams(sigma=-s, L=L)
        if params.has_second_bound_state():
            table = build_spectrum(params, 1)
            assert table.bracket_lo[1] <= table.epsilons[1] <= table.bracket_hi[1], L
    assert max(evaluations) <= 8


@pytest.mark.parametrize("s,L", [
    (1.0, 720.0), (1.0, 740.0), (1e10, 7.4e-8),
    # the odd start rounded up past the root (BracketFailure, L s in ~[735, 747])
    (0.0029211727635385268, 251811.45726418128), (7.471322038069851, 100.01582521808095),
    (1.0, 739.4),
])
def test_wall_offsets_in_the_subnormal_range(s, L):
    # past L s ~ 709.8, 2s/d overflows in log1p(2s/d): d0 and d1 are then
    # 2s e^{-L s} to ~e^{-L s} relative, within the L s ulp of the exponent
    # and the spacing of subnormals
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(2 * mpmath.mpf(s) * mpmath.exp(-mpmath.mpf(s) * mpmath.mpf(L)))
    assert 0.0 < ref < 2.3e-308
    for d in build_spectrum(BoxParams(sigma=-s, L=L), 1).wall_offsets:
        assert abs(d - ref) <= s * L * 2.3e-16 * ref + 4 * 5e-324


def test_wall_row_range():
    # past L|sigma| ~ 9e307 the wall rows' log norms and residuals overflow
    # (NaN certificates at exit 0); MAX_WALL_LS is checked wherever they are built
    for s in (1.0, 1e10, 1e154):
        params = BoxParams(sigma=-s, L=spectrum.MAX_WALL_LS / s)
        table = build_spectrum(params, 1)
        assert np.all(np.isfinite(table.log_norms)) and np.all(np.isfinite(table.residuals))
        over = BoxParams(sigma=-s, L=10.0 * spectrum.MAX_WALL_LS / s)
        for build in (lambda: build_spectrum(over, 1), lambda: build_spectrum(over, 0),
                      lambda: bound_state_gap(over)):
            with pytest.raises(ValidationError, match="L\\*\\|sigma\\| <= 1e\\+307"):
                build()


def test_offsets_are_the_table_roots():
    for sigma, L in WALL_BOXES[::10]:
        params = BoxParams(sigma=sigma, L=L)
        if params.has_second_bound_state():
            assert bound_state_gap(params) == build_spectrum(params, 1).wall_gap
    table = build_spectrum(BoxParams(sigma=-1.0, L=40.0), 0)
    with pytest.raises(ValidationError, match="k_max >= 1"):
        table.wall_gap
    with pytest.raises(ValidationError, match="k_max >= 1"):
        table.wall_level_offsets


def test_wall_newton_pass_cap(monkeypatch):
    monkeypatch.setattr(spectrum, "_NEWTON_PASSES", 1)
    with pytest.raises(NumericalFailure, match=r"Newton left mode [01] unconverged after 1 pass"):
        bound_state_gap(BoxParams(sigma=-1.0, L=40.0))


def test_wall_newton_checks_the_start():
    # a start on the far side of the root fails the sign check
    s, L = 1.0, 20.0
    params = BoxParams(sigma=-s, L=L)
    d0 = build_spectrum(params, 0).wall_offsets[0]

    def even(d):
        return math.log1p(2.0 * s / d) - (s + d) * L, -2.0 * s / (d + 2.0 * s) - L * d

    assert spectrum._wall_newton(even, 0.5 * d0, 0) == pytest.approx(d0, rel=1e-14)
    with pytest.raises(BracketFailure, match="wall mode 0"):
        spectrum._wall_newton(even, 2.0 * d0, 0)


def test_fd_neumann_sanity():
    # sigma = 0 reproduces the discrete Neumann values (4/h^2) sin^2(k pi h / 2L)
    L, n = 10.0, 101
    h = L / (n - 1)
    vals = fd_eigenvalues_raw(0.0, L, n, 5)
    for k, v in enumerate(vals):
        disc = (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2
        cont = (k * math.pi / L) ** 2
        assert abs(v - disc) < 1e-10
        if k > 0:
            assert abs(v - cont) <= 0.2 * (k * math.pi / L) ** 4 * h**2


def test_fd_counts_two_negative_modes():
    vals = fd_eigenvalues(BoxParams(sigma=-1.0, L=20.0), 800, 6)
    assert int(np.sum(vals < 0.0)) == 2


def test_fd_richardson_matches_solver():
    params = BoxParams(sigma=-1.0, L=20.0)
    fd = fd_eigenvalues_richardson(params, 2000, 6)
    eps = build_spectrum(params, 5).epsilons
    assert np.max(np.abs(fd - eps)) < 1e-6


def test_fd_validation():
    with pytest.raises(ValidationError):
        fd_eigenvalues(BoxParams(sigma=-1.0, L=10.0), 50, 3)
    with pytest.raises(ValidationError):
        fd_eigenvalues_raw(0.5, 10.0, 200, 3)


def test_spectrum_csv_roundtrip(tmp_path):
    params = BoxParams(sigma=-1.0, L=20.0)
    table = build_spectrum(params, 4)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(table, path, comment_lines=["sigma = -1", "L = 20"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# sigma = -1"
    assert lines[2] == "k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi"
    assert len(lines) == 3 + 5
    fields = lines[3].split(",")
    assert int(fields[0]) == 0 and fields[1] == EVEN
    # 17 significant digits round-trip
    assert float(fields[2]) == table.epsilons[0]


def _per_row_spectrum_csv(table, comment_lines):
    """The spectrum CSV as a per-row f-string writer made it."""
    lines = [f"# {line}\n" for line in comment_lines]
    lines.append("k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi\n")
    for k, row in enumerate(zip(table.epsilons, table.wavenumbers, table.residuals,
                                table.bracket_lo, table.bracket_hi)):
        parity = "even" if k % 2 == 0 else "odd"
        lines.append(f"{k},{parity}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines).encode()


def _zero_residuals(table):
    # the writer reads the derived columns through `_derived`
    table.__dict__["_derived"] = {**table._derived, "residual": np.zeros(len(table.epsilons))}
    return table


@pytest.mark.parametrize("sigma,L,k_max,edit", [
    (-1.0, 1.5, 0, None),  # the even wall mode alone, L|sigma| < 2
    (-1.0, 20.0, 1, None),
    (-0.5, 1600.0, 2 * 1024 + 1, None),  # both parities at each 1024-row block edge
    (-1.0, 20.0, 1024 + 5, _zero_residuals),
    # six array columns on both sides of `csvio.SMALL_CELLS`: 126 cells,
    # formatted by `%`, and 132, by the kernel
    (-1.0, 20.0, csvio.SMALL_CELLS // 6 - 1, None),
    (-1.0, 20.0, csvio.SMALL_CELLS // 6, _zero_residuals),
])
def test_spectrum_csv_matches_per_row_format(tmp_path, sigma, L, k_max, edit):
    table = build_spectrum(BoxParams(sigma=sigma, L=L), k_max)
    if edit is not None:
        table = edit(table)
    comments = ["robinbec 0", f"L = {L!r}"]
    path = tmp_path / "spec.csv"
    write_spectrum_csv(table, path, comment_lines=comments)
    assert path.read_bytes() == _per_row_spectrum_csv(table, comments)


def test_spectrum_parity_follows_the_largest_k():
    # k = 9,999,999 < K_MAX_LIMIT: its parity word takes the place of the
    # ',' after the seven digits of k
    k = range(10**7)
    text = csvio.format_rows([k, k], 10**7 - 2, 10**7, spectrum._PARITY_WORDS)
    assert text == b"9999998,even,9999998\n9999999,odd,9999999\n"


@pytest.mark.parametrize("k", [range(2 * 1024 + 5), range(10**7 - 1500, 10**7 + 600),
                               range(10**7 - 3000, 10**7 + 5000, 7)])
def test_range_column_formats_like_its_floats(k):
    # a range column takes np.arange, not element-by-element conversion:
    # the same bytes as its values as a float array, across a block edge
    # and near k = 10^7
    import io

    x = np.random.default_rng(len(k)).standard_normal(len(k))
    as_range, as_floats = io.BytesIO(), io.BytesIO()
    csvio.write_rows(as_range, [k, x], spectrum._PARITY_WORDS)
    csvio.write_rows(as_floats, [np.array(list(k), dtype=float), x], spectrum._PARITY_WORDS)
    assert len(k) > csvio.ROWS_PER_PASS and as_range.getvalue() == as_floats.getvalue()


def test_spectrum_rows_formatted_by_printf_keep_their_parity(tmp_path, monkeypatch):
    # a log10 one ulp low sends k = 10, 100 and 1000 to `%`; the parity
    # word after k survives that path
    table = build_spectrum(BoxParams(sigma=-1.0, L=20.0), 1100)
    table.residuals  # the derived columns are taken with the true log10
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(real(a), -math.inf))
    slow = []
    monkeypatch.setattr(csvio, "_printf", lambda x: slow.append(x) or b"%.17g" % x)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(table, path)
    assert path.read_bytes() == _per_row_spectrum_csv(table, [])
    assert {10.0, 100.0, 1000.0} <= set(slow)


def test_spectrum_csv_memory_stays_flat(tmp_path):
    # one block of rows at a time: not the 4.8 MB of the table's six
    # columns here, nor the 11 MB of its text
    table = build_spectrum(BoxParams(sigma=-1.0, L=2000.0), 100_000)
    table.residuals  # the derived columns belong to the table, not the writer
    tracemalloc.start()
    try:
        write_spectrum_csv(table, tmp_path / "spec.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
