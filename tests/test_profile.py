import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinbec import profile as profile_module
from robinbec.errors import ValidationError
from robinbec.profile import (
    EmptyCondensate,
    Profile,
    density_profile,
    localization_radius,
    profile_cutoff,
    profile_mass,
    write_profile_csv,
)
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import (
    FREE,
    MEAN_FIELD_SCF,
    CutoffTooSmall,
    ThermoInput,
    critical_density,
    solve_mu,
    suggest_k_max,
)


def _state(L=30.0, rho=1.0, lam=0.0, model=FREE, sigma=-1.0, beta=1.0):
    inp = ThermoInput(box=BoxParams(sigma=sigma, L=L), beta=beta, rho=rho, lam=lam)
    return solve_mu(inp, model=model)


def _table(state):
    # the profile's own table: modes to the certified cutoff, as the CLI
    # builds it (the state keeps only the solve's head)
    return build_spectrum(state.params.box, profile_cutoff(state.params))


def _fake_state(state, occ):
    # the solved state with the wall pair's occupations replaced and every
    # k >= 2 mode emptied (for the trivial cases): a profile takes the
    # k >= 2 occupations from x, so x = inf
    from dataclasses import replace

    return replace(state, occ=np.asarray(occ, dtype=float), x=math.inf, rho_tilde=0.0)


def test_zero_occupations_zero_profile():
    st = _state()
    st0 = _fake_state(st, np.zeros_like(st.occ))
    assert st0.rho_tilde == 0.0 and st0.rho_cond_finite == 0.0
    table = _table(st)
    prof = density_profile(table, st0, 201)
    assert np.all(prof.n_total == 0.0)
    assert np.all(prof.n_cond == 0.0)


def test_single_mode_profile_integrates_to_one():
    st = _state(L=12.0)
    occ = np.zeros_like(st.occ)
    occ[0] = 1.0
    table = _table(st)
    prof = density_profile(table, _fake_state(st, occ), 3001)
    q = table.modes[0].wavenumber
    ref = (np.exp(table.modes[0].log_norm) * np.cosh(q * prof.grid)) ** 2
    assert np.allclose(prof.n_total, ref, rtol=1e-12)
    coarse = density_profile(table, _fake_state(st, occ), 1501)
    mass = (4.0 * profile_mass(prof) - profile_mass(coarse)) / 3.0
    assert abs(mass - 1.0) < 1e-8


def test_profile_invariants_condensing_state():
    st = _state(L=60.0, rho=1.0, lam=1.0, model=MEAN_FIELD_SCF)
    table = _table(st)
    prof = density_profile(table, st, 8193)
    # pointwise split
    assert np.allclose(prof.n_cond + prof.n_thermal, prof.n_total, rtol=0, atol=1e-14)
    # exact reflection symmetry on the mirrored grid
    assert np.max(np.abs(prof.n_total - prof.n_total[::-1])) == 0.0
    # trapezoid mass approaches sum of occupations under grid refinement
    coarse = density_profile(table, st, 4097)
    mass_fine = profile_mass(prof)
    mass_coarse = profile_mass(coarse)
    extrapolated = (4.0 * mass_fine - mass_coarse) / 3.0
    occ = st.occupations(table)
    assert abs(extrapolated - occ.sum()) < 1e-8 * occ.sum()


def test_wall_contrast_grows_with_L():
    ratios = []
    for L in (40.0, 80.0, 160.0):
        st = _state(L=L, rho=1.0)
        table = _table(st)
        prof = density_profile(table, st, 2049)
        ratios.append(prof.n_cond[-1] / prof.n_cond[len(prof.grid) // 2])
    assert ratios[0] < ratios[1] < ratios[2]


def test_localization_radius_uniform_profile():
    x = np.linspace(-5.0, 5.0, 1001)
    ones = np.full_like(x, 0.7)
    prof = Profile(grid=x, n_total=ones, n_cond=ones, n_thermal=np.zeros_like(x))
    assert abs(localization_radius(prof, 0.5) - 2.5) < 1e-9  # L/4
    assert abs(localization_radius(prof, 0.999) - 5.0) < 0.01  # -> L/2


def test_localization_radius_wall_hugging():
    st = _state(L=80.0, rho=1.0)
    table = _table(st)
    prof = density_profile(table, st, 16385)
    d = localization_radius(prof, 0.9)
    # cosh^2 tail: 90% of the mass within ~ln(10)/(2|sigma|) of the walls
    assert abs(d - math.log(10.0) / 2.0) < 0.05
    with pytest.raises(ValidationError):
        localization_radius(prof, 1.5)


def test_localization_radius_empty_condensate():
    # the thermal modes occupied, the wall pair empty
    from dataclasses import replace

    st = _state(L=20.0)
    table = _table(st)
    prof = density_profile(table, replace(st, occ=np.zeros_like(st.occ)), 501)
    with pytest.raises(EmptyCondensate):
        localization_radius(prof, 0.9)


def test_profile_table_must_reach_a_certified_cutoff():
    # the solve's head (modes 0..2 here) leaves out almost all of the
    # thermal density: a profile on it is rejected, as is a given cutoff
    # whose certified tail exceeds cutoff_tol; the default is suggest_k_max's
    st = _state(L=200.0)
    assert st.params.k_max == 2
    with pytest.raises(CutoffTooSmall, match="certified k_max tail .* exceeds cutoff_tol 1.000e-10"):
        density_profile(st.spectrum, st, 201)
    with pytest.raises(CutoffTooSmall):
        profile_cutoff(st.params, 100)
    k_max = profile_cutoff(st.params)
    assert k_max == suggest_k_max(st.params.box, st.params.beta)
    assert profile_cutoff(st.params, k_max) == k_max
    assert density_profile(build_spectrum(st.params.box, k_max), st, 201).grid.shape == (201,)


def test_grid_validation():
    st = _state(L=20.0)
    table = _table(st)
    with pytest.raises(ValidationError):
        density_profile(table, st, 32)


def test_profile_csv(tmp_path):
    st = _state(L=20.0)
    table = _table(st)
    prof = density_profile(table, st, 101)
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path, comment_lines=["L = 20"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# L = 20"
    assert lines[1] == "x,n_total,n_cond,n_thermal"
    assert len(lines) == 2 + 101
    first = lines[2].split(",")
    assert float(first[0]) == -10.0


def _longdouble_columns(table, state, x):
    """(n_cond, n_thermal) at x as a per-mode sum in np.longdouble, from the
    table's double wavenumbers and log norms."""
    ld = np.longdouble
    ax = np.abs(x).astype(ld)
    occ = state.occupations(table)
    n_cond = np.zeros_like(ax)
    with np.errstate(divide="ignore"):
        for k, sign in ((0, 1.0), (1, -1.0)):
            u = ld(table.wavenumbers[k]) * ax
            log_phi = ld(table.log_norms[k]) + u + np.log1p(sign * np.exp(-2 * u)) - np.log(ld(2))
            n_cond += ld(occ[k]) * np.exp(2 * log_phi)
    n_thermal = np.zeros_like(ax)
    for k in range(2, len(occ)):
        px = ld(table.wavenumbers[k]) * ax
        phi = np.cos(px) if k % 2 == 0 else np.sin(px)
        n_thermal += ld(occ[k]) * np.exp(2 * ld(table.log_norms[k])) * phi * phi
    return n_cond, n_thermal


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("sigma,beta,L,grid_n", [
    (-1.4, 1.9, 220.0, 8801),
    (-0.55, 1.0, 800.0, 32000),
    (-1.5, 2.0, 200.0, 8000),
    (-1.0, 1.2, 400.0, 16001),
    (-0.7, 1.5, 60.0, 2401),
    (-1.5, 2.0, 800.0, 32001),  # L|sigma| = 1200: wall-pair exponents near 600
    (-0.5, 1.0, 800.0, 2001),  # h = 0.4: the slope is contracted, not differenced
])
def test_profile_columns_match_longdouble_mode_sum(sigma, beta, L, grid_n):
    # condensing boxes; at beta sigma^2 > 3 the thermal density dips ~1e3
    # below its bulk value near 1/|sigma| from each wall
    st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta)
    table = _table(st)
    prof = density_profile(table, st, grid_n)
    for col in (prof.n_total, prof.n_cond, prof.n_thermal):
        assert np.array_equal(col, col[::-1])  # exact mirror symmetry
    half = slice(grid_n // 2, None)
    ref_cond, ref_thermal = _longdouble_columns(table, st, prof.grid[half])
    for got, ref in ((prof.n_total, ref_cond + ref_thermal),
                     (prof.n_cond, ref_cond),
                     (prof.n_thermal, ref_thermal)):
        normal = ref >= np.finfo(float).tiny  # n_cond underflows mid-box at large L|sigma|
        rel = np.abs(got[half] - ref)[normal] / ref[normal]
        assert float(np.max(rel)) <= 2e-13


@pytest.mark.parametrize("sigma,beta,L,grid_n,per_chunk", [
    (-1.0, 1.5, 300.0, 12001, 2),  # 40 points per unit length, as on the benchmark decks
    (-0.5, 1.0, 800.0, 2001, 4),  # h = 0.4: the slope certificate fails
])
def test_thermal_sum_contracts_the_slope_only_where_uncertified(monkeypatch, sigma, beta, L,
                                                                grid_n, per_chunk):
    st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta)
    table = _table(st)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(profile_module.np, "einsum",
                        lambda spec, *ops: calls.append(spec) or einsum(spec, *ops))
    density_profile(table, st, grid_n)
    chunks = -(-(table.k_max - 1) // profile_module._CHUNK)
    assert chunks >= 2 and calls.count("ki,kj->ij") == per_chunk * chunks


def test_thermal_sum_contraction_work_is_half_a_mode_point_product(monkeypatch):
    # the symmetric rows give both sides of every anchor from one pair of
    # (rows x (M + 1)) contractions: ~K H/2 multiply-adds each, K H in
    # all, on the 40-points-per-unit-length box of the test above
    sigma, beta, L, grid_n = -1.0, 1.5, 300.0, 12001
    st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta)
    table = _table(st)
    work = []
    einsum = np.einsum

    def counted(spec, *ops):
        if spec == "ki,kj->ij":
            work.append(ops[0].shape[0] * ops[0].shape[1] * ops[1].shape[1])
        return einsum(spec, *ops)

    monkeypatch.setattr(profile_module.np, "einsum", counted)
    density_profile(table, st, grid_n)
    K, H = table.k_max - 1, grid_n - grid_n // 2
    assert len(work) == 2 * -(-K // profile_module._CHUNK)
    assert sum(work) <= 1.1 * K * H


@pytest.mark.parametrize("H,grid_n", [(32, 64), (33, 65), (175, 349), (176, 352), (1001, 2001)])
def test_symmetric_rows_cover_the_half_grid(H, grid_n):
    # rows of 2M + 1 points centred on the anchors a_i at the offsets
    # -b_M..b_M, b_r = b1[r // J] + b0[r % J] (M + 1 = 9 and 20 fill the
    # table of b1 by b0, 10 and 46 do not); the last row of H = 32, 33, 175
    # and 176 runs past the half grid, the anchor of 175 lies past it, that
    # of 176 is its last point, and the rows of 1001 fill it exactly
    L = H / 20.0
    xh = profile_module._symmetric_grid(L, grid_n)[grid_n // 2:]
    assert len(xh) == H
    rows = profile_module._split(xh)
    a, b1, b0, M, h, delta, mu = rows
    J, width = len(b0), 2 * M + 1
    assert M == math.ceil(math.sqrt(2 * H)) and J == math.ceil(math.sqrt(M + 1))
    assert len(b1) == -(-(M + 1) // J) and (J * len(b1) == M + 1) == (H in (32, 175, 176))
    assert np.array_equal(b1, np.arange(0, M + 1, J) * h) and np.array_equal(b0, np.arange(J) * h)
    r = np.arange(M + 1)
    hi, lo = b1[r // J], b0[r % J]
    signed_hi, signed_lo = (np.concatenate([-t[:0:-1], t]) for t in (hi, lo))
    for t in (signed_hi, signed_lo):
        assert np.array_equal(t, -t[::-1]) and t[M] == 0.0
    assert len(a) == -(-H // width) and len(delta) == H
    # every half-grid point is the nearest to its own point a_i +- b_r, and
    # those points increase along the flattened rows, the padding included
    ideal = (a[:, None] + (signed_hi + signed_lo)).ravel()
    assert np.all(np.diff(ideal) > 0.0)
    assert np.max(np.abs(ideal[:H] - xh)) < 0.5 * h
    assert (len(ideal) > H) == (H != 1001)
    assert (a[-1] > xh[-1]) == (H == 175) and (a[-1] == xh[-1]) == (H == 176)
    ulp = np.spacing(xh[-1])
    assert np.max(np.abs(delta)) <= 4.0 * ulp
    # delta against the exact offsets b1 + b0, and the exact steps between
    # neighbouring points a_i +- b_r
    offsets = [Fraction(float(u)) + Fraction(float(t)) for u, t in zip(signed_hi, signed_lo)]
    exact = [Fraction(float(ai)) + o for ai in a for o in offsets][:H]
    misses = [float(Fraction(float(x)) - y) for x, y in zip(xh, exact)]
    assert max(abs(m - d) for m, d in zip(misses, delta)) <= 0.5 * ulp
    steps = [abs(float(y1 - y0 - Fraction(h))) for y0, y1 in zip(exact, exact[1:])]
    assert max(steps) <= mu <= 16.0 * ulp
    # the contracted values and slopes at a_i +- b_r against a per-mode
    # sum in long double, to a few ulp of W and of sum_k 2 p_k |v_k|; the
    # reference takes the angles 2 p_k a_i, 2 p_k b1 and 2 p_k b0 rounded
    # as the contraction's tables round them (that rounding, shared by
    # every cosine of a double argument, is
    # `test_profile_columns_match_longdouble_mode_sum`'s)
    rng = np.random.default_rng(H)
    k = np.arange(2, 302)
    p = (k - 1 + rng.uniform(0.0, 1.0, len(k))) * np.pi / L
    w = np.exp(-0.3 * p * p) * rng.uniform(0.1, 1.0, len(k))
    v = np.where(k % 2, -0.5, 0.5) * w
    osc, slope = profile_module._contract(p, v, rows, True)
    assert osc.shape == slope.shape == (len(a), width)
    ld = np.longdouble
    q = 2.0 * p[:, None]
    sign = np.sign(np.arange(-M, M + 1))
    offset_angle = ((q * b1).astype(ld)[:, np.abs(np.arange(-M, M + 1)) // J]
                    + (q * b0).astype(ld)[:, np.abs(np.arange(-M, M + 1)) % J]) * sign
    angle = (q * a).astype(ld)[:, :, None] + offset_angle[:, None, :]
    ref = np.einsum("k,kij->ij", v.astype(ld), np.cos(angle))
    ref_slope = -np.einsum("k,kij->ij", (2.0 * p * v).astype(ld), np.sin(angle))
    ulps = 4.0 * profile_module._EPS
    assert float(np.max(np.abs(osc - ref))) <= ulps * np.sum(w)
    assert float(np.max(np.abs(slope - ref_slope))) <= ulps * np.sum(2.0 * p * np.abs(v))


def test_slope_certificate_covers_the_difference_quotient():
    # |delta_j| |difference slope - contracted slope| <= B at every point of
    # the half grid, both ends included, on random boxes on both sides of
    # B = 2^-52 W, with the signed offsets of the symmetric rows; a bound
    # without the one-sided end quotients' t^2/3 fails here at the last point
    rng = np.random.default_rng(20)
    sides, grids = [0, 0], set()
    for _ in range(240):
        L = 10.0 ** rng.uniform(1.0, 3.6)
        k = np.arange(2, int(rng.integers(1, 400)) + 2)
        p = (k - 1 + rng.uniform(0.0, 1.0, len(k))) * np.pi / L
        w = np.exp(-10.0 ** rng.uniform(-0.5, 0.5) * p * p) * rng.uniform(0.1, 1.0, len(k))
        grid_n = int(np.clip(10.0 ** rng.uniform(0.0, 2.0) * L, 64, 60000)) + int(rng.integers(2))
        x = profile_module._symmetric_grid(L, grid_n)
        xh = x[grid_n // 2:]
        rows = profile_module._split(xh)
        u = w / np.sum(w)
        bound = profile_module._slope_bound(p, u, rows.h, rows.delta, rows.mu) * np.sum(w)
        osc, slope = profile_module._contract(p, np.where(k % 2, -0.5, 0.5) * w, rows, True)
        assert osc.shape == (len(rows.a), 2 * rows.M + 1) and osc.size >= len(xh)
        o, slope = osc.ravel()[:len(xh)], slope.ravel()[:len(xh)]
        err = np.abs(rows.delta) * np.abs(profile_module._difference_slope(o, rows.h) - slope)
        assert np.all(err <= bound), (L, len(k), grid_n)
        ratio = bound / (profile_module._EPS * np.sum(w))
        sides[bool(ratio > 1.0)] += 1
        grids.add((grid_n % 2, bool(0.25 <= ratio <= 4.0)))
    assert min(sides) >= 60
    assert grids == {(0, False), (0, True), (1, False), (1, True)}


def test_contraction_takes_its_offsets_by_angle_addition(monkeypatch):
    # per chunk of k modes, k rows of anchor angles and k (ceil((M + 1) / J)
    # + J) offset angles take a cosine and a sine each, not k (M + 1); on
    # the 40-points-per-unit-length box of the work test below, with the
    # slope contracted too
    L, grid_n = 300.0, 12001
    xh = profile_module._symmetric_grid(L, grid_n)[grid_n // 2:]
    rows = profile_module._split(xh)
    J = len(rows.b0)
    assert J == math.ceil(math.sqrt(rows.M + 1)) and len(rows.b1) == -(-(rows.M + 1) // J)
    rng = np.random.default_rng(1)
    K = 2 * profile_module._CHUNK + 77
    p = (np.arange(1, K + 1) + rng.uniform(0.0, 1.0, K)) * np.pi / L
    v = np.exp(-0.01 * p * p) * np.where(np.arange(K) % 2, -0.5, 0.5)
    calls = []
    for name in ("cos", "sin"):
        real = getattr(np, name)
        monkeypatch.setattr(profile_module.np, name, lambda x, *args, real=real, **kw:
                            calls.append(np.size(x)) or real(x, *args, **kw))
    profile_module._contract(p, v, rows, True)
    monkeypatch.undo()
    per_mode = len(rows.a) + len(rows.b1) + J
    assert sum(calls) <= 2 * K * per_mode
    chunks = [min(profile_module._CHUNK, K - lo) for lo in range(0, K, profile_module._CHUNK)]
    sizes = (len(rows.a), len(rows.b1), J) * 2  # a cosine and a sine of each table
    assert sorted(calls) == sorted(c * n for c in chunks for n in sizes)


def _where_mode_sum(p, w, odd, x):
    """`_mode_sum` with both functions evaluated and one picked by np.where."""
    out = np.zeros(len(x))
    for lo in range(0, len(p), profile_module._CHUNK):
        px = np.multiply.outer(p[lo:lo + profile_module._CHUNK], x)
        phi = np.where(odd[lo:lo + profile_module._CHUNK, None], np.sin(px), np.cos(px))
        out += np.einsum("k,kj,kj->j", w[lo:lo + profile_module._CHUNK], phi, phi)
    return out


def test_mode_sum_takes_one_trig_function_per_mode(monkeypatch):
    # the points a condensing profile sums mode by mode (beta sigma^2 > 3:
    # the thermal density dips near its low modes' common node), and a
    # grid with the parities shuffled
    st = _state(L=200.0, rho=1.5 * critical_density(2.0, -1.5), sigma=-1.5, beta=2.0)
    table = _table(st)
    seen = []
    real = profile_module._mode_sum
    monkeypatch.setattr(profile_module, "_mode_sum", lambda *args: seen.append(args) or real(*args))
    density_profile(table, st, 8001)
    (p, w, odd, x), = seen
    assert 0 < len(x) < 4000 and len(p) > profile_module._CHUNK
    shuffled = np.random.default_rng(3).permutation(odd)
    for parity, points in ((odd, x), (shuffled, np.linspace(0.0, 100.0, 777))):
        assert np.array_equal(real(p, w, parity, points), _where_mode_sum(p, w, parity, points))


def test_profile_csv_matches_per_row_format(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * 4096 + 3  # crosses the writer's block boundaries
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(4)]
    cols[1][:8] = [0.0, -0.0, 5e-324, 1.0 / 3.0, 1e300, -np.inf, np.nan, 0.1]
    prof = Profile(grid=cols[0], n_total=cols[1], n_cond=cols[2], n_thermal=cols[3])
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path, comment_lines=["L = 20", "model = free"])
    ref = "# L = 20\n# model = free\nx,n_total,n_cond,n_thermal\n" + "".join(
        f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}\n" for a, b, c, d in zip(*cols)
    )
    assert path.read_bytes() == ref.encode()


def _per_row_csv(profile):
    return "x,n_total,n_cond,n_thermal\n" + "".join(
        f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}\n"
        for a, b, c, d in zip(profile.grid, profile.n_total, profile.n_cond, profile.n_thermal)
    )


def _formatted_rows(tmp_path, monkeypatch, profile):
    """Write `profile`, check its bytes against the per-row format, and
    return how many rows the writer formatted."""
    counts = []
    real = profile_module._format_pass

    def counted(block):
        counts.append(len(block))
        return real(block)

    monkeypatch.setattr(profile_module, "_format_pass", counted)
    path = tmp_path / "prof.csv"
    write_profile_csv(profile, path)
    assert path.read_bytes() == _per_row_csv(profile).encode()
    return sum(counts)


def _mirrored_grid(n):
    x = np.linspace(-1.0, 1.0, n)
    return 0.5 * (x - x[::-1])


@pytest.fixture(scope="module")
def condensing_state():
    st = _state(L=200.0, rho=1.5 * critical_density(1.5, -1.0), beta=1.5)
    return _table(st), st


@pytest.mark.parametrize("grid_n", [4 * 4096 + 1, 4 * 4096 + 2])
def test_profile_csv_formats_each_mirror_pair_once(tmp_path, monkeypatch, condensing_state,
                                                   grid_n):
    # blocks of `_ROWS_PER_PASS` rows cross both halves, odd and even grid_n
    prof = density_profile(*condensing_state, grid_n)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == grid_n - grid_n // 2


@pytest.mark.parametrize("grid_n", [4 * 4096 + 1, 4 * 4096 + 2])
def test_profile_csv_broken_mirror_falls_back_per_block(tmp_path, monkeypatch,
                                                        condensing_state, grid_n):
    prof = density_profile(*condensing_state, grid_n)
    n_cond, grid = prof.n_cond.copy(), prof.grid.copy()
    n_cond[5000] = np.nextafter(n_cond[5000], np.inf)  # lower-half block [4096, 5120)
    grid[-3] = np.nextafter(grid[-3], -np.inf)  # mirror of row 2, block [0, 1024)
    broken = Profile(grid=grid, n_total=prof.n_total, n_cond=n_cond,
                     n_thermal=prof.n_thermal)
    block = profile_module._ROWS_PER_PASS
    assert _formatted_rows(tmp_path, monkeypatch, broken) == grid_n - grid_n // 2 + 2 * block


def test_profile_csv_upper_half_rolls_to_disk_mid_write(tmp_path, monkeypatch):
    # past `_SPOOL_BYTES` the x > 0 half moves from memory to a file on
    # disk; the bytes and the rows formatted do not change
    n = 2 * 4096 + 3
    x = _mirrored_grid(n)
    prof = Profile(grid=x, n_total=np.cosh(x) / 3.0, n_cond=np.exp(-50.0 * (1.0 - x * x)),
                   n_thermal=x * x)
    rolled = []

    class Spool(tempfile.SpooledTemporaryFile):
        def rollover(self):
            rolled.append(self.tell())
            super().rollover()

    monkeypatch.setattr(profile_module, "_SPOOL_BYTES", 4096)
    monkeypatch.setattr(profile_module.tempfile, "SpooledTemporaryFile", Spool)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == n - n // 2
    half = len(_per_row_csv(prof).encode()) // 2
    assert len(rolled) == 1 and 4096 < rolled[0] < half


def test_profile_csv_signed_zeros_are_not_mirrors(tmp_path, monkeypatch):
    # -0.0 == 0.0, but they print differently: the check compares bits
    n = 2 * 4096 + 1
    x = _mirrored_grid(n)
    n_cond = x * x
    n_cond[7], n_cond[-8] = -0.0, 0.0
    prof = Profile(grid=x, n_total=x * x, n_cond=n_cond, n_thermal=x * x)
    block = profile_module._ROWS_PER_PASS  # rows 7 and n - 8 fall in the first block
    assert _formatted_rows(tmp_path, monkeypatch, prof) == n - n // 2 + block


def test_profile_csv_formats_every_row_of_asymmetric_data(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    n = 2 * 4096 + 3
    prof = Profile(_mirrored_grid(n), *rng.standard_normal((3, n)))
    assert _formatted_rows(tmp_path, monkeypatch, prof) == n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65])
def test_profile_csv_short_grids(tmp_path, monkeypatch, n):
    half = np.linspace(0.5, 1.0, n - n // 2)
    dens = np.concatenate([half[::-1][: n // 2], half])
    prof = Profile(grid=_mirrored_grid(n), n_total=dens, n_cond=0.5 * dens,
                   n_thermal=0.5 * dens)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == n - n // 2


def _printf_rows(values):
    """`values` as four-column `%.17g` CSV rows (zero-padded to whole rows),
    formatted by CPython, and the (rows, 4) block they came from."""
    values = np.concatenate([np.asarray(values, dtype=float), np.zeros(-len(values) % 4)])
    rows = values.reshape(-1, 4)
    text = "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows.tolist())
    return text.encode(), rows


def _assert_formats_like_printf(values):
    text, rows = _printf_rows(values)
    assert profile_module._format_pass(rows) == text


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1).map(_double), st.floats()),
                min_size=1, max_size=64))
def test_format_rows_matches_printf_on_raw_bit_patterns(values):
    _assert_formats_like_printf(values)


def test_format_rows_matches_printf_on_random_bit_patterns():
    bits = np.random.default_rng(15).integers(0, 2**64, 2**18, dtype=np.uint64)
    _assert_formats_like_printf(bits.view(np.float64))


def _exact_ties():
    """Doubles with exactly 18 significant digits, the last a 5: the
    17-digit rounding is a tie (they exist only in [1e13, 1e16))."""
    rng = np.random.default_rng(5)
    ties = []
    for m in (1, 2, 3):
        for n in rng.integers(10**17 // 5**m, 10**18 // 5**m, 4000).tolist():
            n *= 5**m
            if n % 10 == 5 and 10**17 <= n < 10**18:
                x = n / 10**m
                a, b = x.as_integer_ratio()
                if a * 10**m == n * b:
                    ties.append(x)
    return ties


def test_format_rows_matches_printf_on_edge_values():
    powers = [float(f"1e{k}") for k in range(-324, 309)]
    ties = _exact_ties()
    assert len(ties) > 100
    edge = [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
            1.7976931348623157e308, math.inf, math.nan, 1e15 + 0.25, 1e15 + 0.75]
    edge += [_double(int(b)) for b in np.random.default_rng(3).integers(1, 2**52, 200)]
    edge += [1e16 + d for d in range(-8, 9)] + [1e17 + 16 * d for d in range(-8, 9)]
    edge += [float(10**17 - 1), 99999999999999984.0, 0.0001, 9.9999999999999991e-05]
    for x in powers + ties + edge:
        edge += [math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    edge += powers + ties
    values = np.array(edge)
    _assert_formats_like_printf(np.concatenate([values, -values]))


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_format_rows_does_not_trust_log10_to_the_last_bit(monkeypatch, direction):
    # the kernel takes each decimal exponent from floor(log10 |v|); a log10
    # one ulp off next to a power of ten may cost speed, never a byte
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(real(a), direction))
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    _assert_formats_like_printf(powers + [math.nextafter(x, 0.0) for x in powers])


def test_profile_rows_take_the_vector_path(tmp_path, monkeypatch, condensing_state):
    # every cell of a condensing profile is formatted without `%`: a kernel
    # that certified nothing would still print the right bytes, slowly
    prof = density_profile(*condensing_state, 4 * 4096 + 1)
    slow = []
    real = profile_module._printf
    monkeypatch.setattr(profile_module, "_printf", lambda x: slow.append(x) or real(x))
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path)
    assert path.read_bytes() == _per_row_csv(prof).encode()
    assert slow == []


def test_density_profile_memory_stays_flat():
    st = _state(L=800.0, rho=1.5 * critical_density(1.0, -0.55), sigma=-0.55)
    table = _table(st)
    tracemalloc.start()
    try:
        density_profile(table, st, 32001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20  # the four output columns alone take 1 MB


def test_profile_csv_memory_stays_flat(tmp_path):
    # the x > 0 half waits in a temporary file, in memory only up to
    # `_SPOOL_BYTES`: that and one block's text, not the 4 MB table (or
    # 5 MB of half the CSV) of this grid, are held at a time
    x = _mirrored_grid(2**17 + 1)
    dens = np.cosh(x) / 3.0
    prof = Profile(grid=x, n_total=dens, n_cond=np.exp(-500.0 * (1.0 - x * x)),
                   n_thermal=dens)
    tracemalloc.start()
    try:
        write_profile_csv(prof, tmp_path / "prof.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_cli_profile_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a profile, and a thermo point whose Newton slope at k_max ~ 34,000
    # took its last bits from a threaded BLAS dot (occ0 8235.916937552778
    # under one thread, 8235.91693755278 under two)
    src = str(Path(__file__).resolve().parents[1] / "src")
    cases = [
        ["profile", "--sigma=-1", "--L=200", "--beta=1.5", "--rho=0.6", "--grid-n=8001",
         "--fraction=0.9"],
        ["thermo", "--model", "scf", "--sigma=-1.0", "--beta=0.2", "--rho=3.0", "--lambda=0.7",
         "--L=8355.2748653427843"],
    ]
    for case in cases:
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.out"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-m", "robinbec.cli", *case, "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout.replace(str(out), "OUT"), out.read_bytes()))
        assert runs[0] == runs[1], case[0]
