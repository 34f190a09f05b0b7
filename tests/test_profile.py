import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinbec import csvio
from robinbec import profile as profile_module
from robinbec import thermo
from robinbec.errors import ValidationError
from robinbec.profile import (
    EmptyCondensate,
    Profile,
    density_profile,
    localization_radius,
    profile_input,
    profile_mass,
    write_profile_csv,
)
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import (
    FREE,
    MEAN_FIELD_SCF,
    CutoffTooSmall,
    LadderPlan,
    ThermoInput,
    certified_density_tail,
    continuum_plan,
    critical_density,
    solve_mu,
    suggest_k_max,
)


def _state(L=30.0, rho=1.0, lam=0.0, model=FREE, sigma=-1.0, beta=1.0, cutoff_tol=1e-10, k_max=None):
    # the state a profile solves, as the CLI solves it: its table
    # (`spectrum`) is the wall pair on the continuum path and reaches the
    # certified cutoff on the mode-sum path
    inp = ThermoInput(box=BoxParams(sigma=sigma, L=L), beta=beta, rho=rho, lam=lam, k_max=k_max,
                      cutoff_tol=cutoff_tol)
    return solve_mu(profile_input(inp), model=model)


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
    table = st.spectrum
    prof = density_profile(table, st0, 201)
    assert np.all(prof.n_total == 0.0)
    assert np.all(prof.n_cond == 0.0)


def test_single_mode_profile_integrates_to_one():
    st = _state(L=12.0)
    occ = np.zeros_like(st.occ)
    occ[0] = 1.0
    table = st.spectrum
    prof = density_profile(table, _fake_state(st, occ), 3001)
    q = table.wavenumbers[0]
    ref = (np.exp(table.log_norms[0]) * np.cosh(q * prof.grid)) ** 2
    assert np.allclose(prof.n_total, ref, rtol=1e-12)
    coarse = density_profile(table, _fake_state(st, occ), 1501)
    mass = (4.0 * profile_mass(prof) - profile_mass(coarse)) / 3.0
    assert abs(mass - 1.0) < 1e-8


def test_profile_invariants_condensing_state():
    st = _state(L=60.0, rho=1.0, lam=1.0, model=MEAN_FIELD_SCF)
    table = st.spectrum
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
    # every mode's occupation: the wall pair and the solve's rho_tilde (head
    # and certified tail); the continuum path reads no k >= 2 mode
    total = st.params.box.L * (st.rho_cond_finite + st.rho_tilde)
    assert abs(extrapolated - total) < 1e-8 * total


def test_wall_contrast_grows_with_L():
    ratios = []
    for L in (40.0, 80.0, 160.0):
        st = _state(L=L, rho=1.0)
        table = st.spectrum
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
    table = st.spectrum
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
    table = st.spectrum
    prof = density_profile(table, replace(st, occ=np.zeros_like(st.occ)), 501)
    with pytest.raises(EmptyCondensate):
        localization_radius(prof, 0.9)


def test_profile_table_must_reach_a_certified_cutoff():
    # on the mode-sum path (L|sigma| = 12, below the continuum's switch) a
    # table short of the certified cutoff leaves out thermal density: a
    # profile on it is rejected, as is a given cutoff whose certified tail
    # exceeds cutoff_tol; with none given, profile_input sets suggest_k_max's
    # and the solve sums that table, which the profile reads
    st = _state(L=12.0)
    box = st.params.box
    k_max = suggest_k_max(box, st.params.beta)
    assert st.params.plan.continuum is None and k_max > 10
    assert st.params.k_max == st.spectrum.k_max == k_max
    assert st.params.plan == LadderPlan(k_max, 0, (), certified_density_tail(box, 1.0, k_max))
    assert density_profile(st.spectrum, st, 201).grid.shape == (201,)
    short = build_spectrum(box, 10)
    with pytest.raises(CutoffTooSmall, match="certified k_max tail .* exceeds cutoff_tol 1.000e-10"):
        density_profile(short, st, 201)
    with pytest.raises(CutoffTooSmall, match="certified k_max tail .* exceeds cutoff_tol 1.000e-10"):
        _state(L=12.0, k_max=10)
    assert profile_input(st.params) is st.params
    # on the continuum path the profile reads the wall pair alone, whatever
    # the table holds past it: the certified cutoff's table will do.  There
    # a given k_max is a mode cutoff too, and 2 is far short of it
    st = _state(L=200.0)
    assert st.params.plan.continuum is not None and st.spectrum.k_max == 1
    assert profile_input(st.params) is st.params
    on_pair = density_profile(st.spectrum, st, 201)
    on_cutoff = density_profile(build_spectrum(st.params.box, suggest_k_max(st.params.box, 1.0)), st, 201)
    for a, b in zip((on_cutoff.n_cond, on_cutoff.n_thermal), (on_pair.n_cond, on_pair.n_thermal)):
        assert np.array_equal(a, b)
    with pytest.raises(CutoffTooSmall, match="certified k_max tail .* exceeds cutoff_tol 1.000e-10"):
        _state(L=200.0, k_max=2)


def test_grid_validation():
    st = _state(L=20.0)
    table = st.spectrum
    with pytest.raises(ValidationError):
        density_profile(table, st, 32)


def test_profile_csv(tmp_path):
    st = _state(L=20.0)
    table = st.spectrum
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
    table's double wavenumbers and log norms.  Mode k >= 2 is taken in the
    phase of the nearer wall, cos^2(p_k y + theta_k) with y = L/2 - |x| and
    tan theta_k = |sigma|/p_k, which is cos^2 or sin^2(p_k x) at the exact
    root: the double p_k misses the root by up to half an ulp, which moves
    p_k x by up to ~2^-53 p_k L/2 but p_k y + theta_k by ~2^-53 p_k y, and
    at the node dip next to the walls the first cost the reference 4.6e-13
    relative at (sigma, beta, L) = (-1.5, 2, 800)."""
    ld = np.longdouble
    ax = np.abs(x).astype(ld)
    occ = state.occupations(table)
    n_cond = np.zeros_like(ax)
    with np.errstate(divide="ignore"):
        for k, sign in ((0, 1.0), (1, -1.0)):
            u = ld(table.wavenumbers[k]) * ax
            log_phi = ld(table.log_norms[k]) + u + np.log1p(sign * np.exp(-2 * u)) - np.log(ld(2))
            n_cond += ld(occ[k]) * np.exp(2 * log_phi)
    s, y = ld(table.params.s), ld(table.params.L) / 2 - ax
    n_thermal = np.zeros_like(ax)
    for k in range(2, len(occ)):
        p = ld(table.wavenumbers[k])
        phi = np.cos(p * y + np.arctan(s / p))
        n_thermal += ld(occ[k]) * np.exp(2 * ld(table.log_norms[k])) * phi * phi
    return n_cond, n_thermal


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is plain double here")
@pytest.mark.parametrize("sigma,beta,L,grid_n,lam,cutoff_tol", [
    pytest.param(-1.4, 1.9, 220.0, 8801, 0.0, 1e-10, id="-1.4-1.9-220.0-8801"),
    pytest.param(-0.55, 1.0, 800.0, 32000, 0.0, 1e-10, id="-0.55-1.0-800.0-32000"),
    pytest.param(-1.5, 2.0, 200.0, 8000, 0.0, 1e-10, id="-1.5-2.0-200.0-8000"),
    pytest.param(-1.0, 1.2, 400.0, 16001, 0.0, 1e-10, id="-1.0-1.2-400.0-16001"),
    pytest.param(-0.7, 1.5, 60.0, 2401, 0.0, 1e-10, id="-0.7-1.5-60.0-2401"),
    # L|sigma| = 1200: wall-pair exponents near 600
    pytest.param(-1.5, 2.0, 800.0, 32001, 0.0, 1e-10, id="-1.5-2.0-800.0-32001"),
    pytest.param(-0.5, 1.0, 800.0, 2001, 0.0, 1e-10, id="-0.5-1.0-800.0-2001"),
    pytest.param(-1.0, 1.0, 100.0, 4001, 0.7, 1e-10, id="scf"),
    # the mode-sum path, with a cutoff_tol whose truncation is below the
    # bound relative to the thermal density's dip
    pytest.param(-1.0, 1.0, 12.0, 2001, 0.0, 1e-17, id="mode-sum-path"),
    pytest.param(-1.0, 1.0, 12.0, 2001, 5.0, 1e-17, id="mode-sum-path-scf"),
])
def test_profile_columns_match_longdouble_mode_sum(sigma, beta, L, grid_n, lam, cutoff_tol):
    # condensing boxes, on both paths; at beta sigma^2 > 3 the thermal
    # density dips ~1e3 below its bulk value near 1/|sigma| from each wall.
    # The reference sums a table whose certified tail is below 1e-3 of the
    # bound relative to the smallest thermal density, on the continuum's
    # wall layers (every point on the mode-sum path) and every 16th point
    st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta, lam=lam,
                model=MEAN_FIELD_SCF if lam else FREE, cutoff_tol=cutoff_tol)
    plan = continuum_plan(st.params.box, beta, cutoff_tol)
    assert (plan is None) == (L * -sigma < 20.0)
    prof = density_profile(st.spectrum, st, grid_n)
    for col in (prof.n_total, prof.n_cond, prof.n_thermal):
        assert np.array_equal(col, col[::-1])  # exact mirror symmetry
    half = prof.grid[grid_n // 2:]
    layer = plan.layer if plan is not None else L
    at = np.flatnonzero((0.5 * L - half <= layer) | (np.arange(len(half)) % 16 == 0))
    floor = 1e-3 * 2e-13 * float(np.min(prof.n_thermal))
    reference = build_spectrum(st.params.box, suggest_k_max(st.params.box, beta, floor))
    ref_cond, ref_thermal = _longdouble_columns(reference, st, half[at])
    for got, ref in ((prof.n_total, ref_cond + ref_thermal),
                     (prof.n_cond, ref_cond),
                     (prof.n_thermal, ref_thermal)):
        normal = ref >= np.finfo(float).tiny  # n_cond underflows mid-box at large L|sigma|
        rel = np.abs(got[grid_n // 2:][at] - ref)[normal] / ref[normal]
        assert float(np.max(rel)) <= 2e-13


def test_mode_sum_takes_one_trig_function_per_mode(monkeypatch):
    # both callers: the node dip of a condensing continuum profile (beta
    # sigma^2 > 3: the thermal density dips near its low modes' common
    # node), and the whole half grid of a mode-sum-path profile, more modes
    # and points than one block; one cosine per term and point, and the
    # sum of the squares against a long-double sum of the same double angles
    cases = [(_state(L=200.0, rho=1.5 * critical_density(2.0, -1.5), sigma=-1.5, beta=2.0), 8001),
             (_state(L=150.0, rho=1.5 * critical_density(1.0, -0.1), sigma=-0.1), 3 * 4096)]
    real = profile_module._mode_sum
    for (st, grid_n), dip in zip(cases, (True, False)):
        seen = []
        monkeypatch.setattr(profile_module, "_mode_sum", lambda *args: seen.append(args) or real(*args))
        density_profile(st.spectrum, st, grid_n)
        monkeypatch.undo()
        (p, w, theta, y), = seen
        if dip:
            assert 0 < len(y) < 4000 and np.all(y < 2.0 / 1.5)
        else:
            assert len(y) == grid_n - grid_n // 2 > profile_module._POINTS
            assert len(p) > profile_module._CHUNK
        calls = []
        for name in ("cos", "sin"):
            fn = getattr(np, name)
            monkeypatch.setattr(profile_module.np, name, lambda a, *args, fn=fn, name=name, **kw:
                                calls.append((name, np.size(a))) or fn(a, *args, **kw))
        out = real(p, w, theta, y)
        monkeypatch.undo()
        assert {name for name, _ in calls} == {"cos"} and sum(n for _, n in calls) == len(p) * len(y)
        ref = sum(np.longdouble(wk) * np.cos(pk * y + tk).astype(np.longdouble) ** 2
                  for pk, wk, tk in zip(p, w, theta))
        assert float(np.max(np.abs(out - ref) / ref)) <= len(p) * 2.0 ** -52


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


def _kernel_blocks(tmp_path, monkeypatch, profile):
    """Write `profile`, check its bytes against the per-row format, and
    return the (rows, columns) of each block the kernel formatted."""
    shapes = []
    real = csvio._format_pass

    def counted(block, *rest):
        shapes.append(block.shape)
        return real(block, *rest)

    monkeypatch.setattr(csvio, "_format_pass", counted)
    path = tmp_path / "prof.csv"
    write_profile_csv(profile, path)
    assert path.read_bytes() == _per_row_csv(profile).encode()
    return shapes


def _formatted_rows(tmp_path, monkeypatch, profile):
    """Write `profile`, check its bytes against the per-row format, and
    return how many rows the writer formatted."""
    return sum(rows for rows, _ in _kernel_blocks(tmp_path, monkeypatch, profile))


def _mirrored_grid(n):
    x = np.linspace(-1.0, 1.0, n)
    return 0.5 * (x - x[::-1])


@pytest.fixture(scope="module")
def condensing_state():
    st = _state(L=200.0, rho=1.5 * critical_density(1.5, -1.0), beta=1.5)
    return st.spectrum, st


@pytest.mark.parametrize("grid_n", [4 * 4096 + 1, 4 * 4096 + 2])
def test_profile_csv_formats_each_mirror_pair_once(tmp_path, monkeypatch, condensing_state,
                                                   grid_n):
    # blocks of `csvio.ROWS_PER_PASS` rows cross both halves, odd and even grid_n
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
    block = csvio.ROWS_PER_PASS
    assert _formatted_rows(tmp_path, monkeypatch, broken) == grid_n - grid_n // 2 + 2 * block


def _spill_files(tmp_path, monkeypatch):
    """The temporary files `write_profile_csv` opens from here on, kept in
    `tmp_path` so that their sizes can be read after the write."""
    spills = []

    def spill():
        spills.append(tmp_path / f"spill{len(spills)}")
        return open(spills[-1], "w+b")

    monkeypatch.setattr(profile_module.tempfile, "TemporaryFile", spill)
    return spills


def test_profile_csv_upper_half_rolls_to_disk_mid_write(tmp_path, monkeypatch):
    # past `_SPOOL_BYTES` the texts of the x > 0 half go to a file on disk,
    # opened when the first text does not fit; the bytes and the rows
    # formatted do not change
    n = 2 * 4096 + 3
    x = _mirrored_grid(n)
    prof = Profile(grid=x, n_total=np.cosh(x) / 3.0, n_cond=np.exp(-50.0 * (1.0 - x * x)),
                   n_thermal=x * x)
    rows = _per_row_csv(prof).splitlines(keepends=True)[1:]
    upper = len("".join(rows[n - n // 2:]))
    spills = _spill_files(tmp_path, monkeypatch)
    monkeypatch.setattr(profile_module, "_SPOOL_BYTES", upper // 2)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == n - n // 2
    assert len(spills) == 1 and 0 < spills[0].stat().st_size < upper


def test_profile_csv_upper_half_in_memory_opens_no_file(tmp_path, monkeypatch, condensing_state):
    # an x > 0 half within `_SPOOL_BYTES` (~0.65 MB here) stays in memory
    prof = density_profile(*condensing_state, 4 * 4096 + 1)
    spills = _spill_files(tmp_path, monkeypatch)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == 2 * 4096 + 1
    assert spills == []


def test_profile_csv_signed_zeros_are_not_mirrors(tmp_path, monkeypatch):
    # -0.0 == 0.0, but they print differently: the check compares bits
    n = 2 * 4096 + 1
    x = _mirrored_grid(n)
    n_cond = x * x
    n_cond[7], n_cond[-8] = -0.0, 0.0
    prof = Profile(grid=x, n_total=x * x, n_cond=n_cond, n_thermal=x * x)
    block = csvio.ROWS_PER_PASS  # rows 7 and n - 8 fall in the first block
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


def _bulk_profile(n, start, centre=(1.0 / 3.0, 1.0 / 3.0)):
    """A mirror-symmetric profile whose n_total and n_thermal hold `centre`
    on rows start..n - 1 - start, and vary from row to row nearer the walls."""
    x = _mirrored_grid(n)
    layer = np.exp(-np.abs(x))
    n_total, n_thermal = layer + 2.0, layer + 1.0
    n_total[start:n - start], n_thermal[start:n - start] = centre
    return Profile(grid=x, n_total=n_total, n_cond=layer * layer, n_thermal=n_thermal)


def _counted_constants(monkeypatch):
    """The `csvio.Constant`s made from here on, in order."""
    made = []

    class Counted(csvio.Constant):
        __slots__ = ()

        def __init__(self, value):
            super().__init__(value)
            made.append(self)

    monkeypatch.setattr(csvio, "Constant", Counted)
    return made


@pytest.mark.parametrize("n", [2 * 4096 + 1, 2 * 4096 + 2])
@pytest.mark.parametrize("start", [
    1500,  # the run starts mid-block [1024, 2048) of the x > 0 half
    2048,  # at a block edge
    0,  # the whole grid
    4093,  # in the innermost block
])
def test_profile_csv_formats_constant_blocks_once(tmp_path, monkeypatch, n, start):
    # blocks of the x > 0 half run from the wall inwards; a block passes
    # n_total and n_thermal as constants where every row of it holds the
    # centre row's bits, and all four columns otherwise, as x = 0 does
    shapes = _kernel_blocks(tmp_path, monkeypatch, _bulk_profile(n, start))
    half, block = n // 2, csvio.ROWS_PER_PASS
    whole = half - min(half, -(-start // block) * block)  # rows in whole constant blocks
    assert sum(rows for rows, _ in shapes) == n - half
    assert sum(rows for rows, columns in shapes if columns == 2) == whole
    assert {columns for _, columns in shapes} <= {2, 4}


@pytest.mark.parametrize("centre, texts", [
    ((0.25, 0.25), [b"0.25"]),  # n_total and n_thermal share one constant
    ((0.0, -0.0), [b"-0", b"0"]),  # -0.0 == 0.0, but they print differently
])
def test_profile_csv_makes_one_constant_per_bit_pattern(tmp_path, monkeypatch, centre, texts):
    made = _counted_constants(monkeypatch)
    shapes = _kernel_blocks(tmp_path, monkeypatch, _bulk_profile(2 * 4096 + 1, 0, centre))
    assert sorted(c.text for c in made) == texts
    assert shapes == [(4096, 2), (1, 4)]  # the four blocks of the x > 0 half in one pass


def _broken_bulk_profile(n, thermal=(), cond=()):
    """`_bulk_profile(n, 1500)` with n_thermal moved off the centre row's
    bits at the mirrored rows i and n - 1 - i for each i in `thermal`, and
    n_cond changed at each row i of the x < 0 half in `cond`."""
    prof = _bulk_profile(n, 1500)
    n_thermal, n_cond = prof.n_thermal.copy(), prof.n_cond.copy()
    for i in thermal:
        n_thermal[i] = n_thermal[n - 1 - i] = 0.5
    for i in cond:
        n_cond[i] = np.nextafter(n_cond[i], np.inf)
    return Profile(grid=prof.grid, n_total=prof.n_total, n_cond=n_cond, n_thermal=n_thermal)


@pytest.mark.parametrize("parity", [1, 0])
@pytest.mark.parametrize("blocks, broken, shapes", [
    # blocks 2-6 of the x > 0 half hold the centre row's bits: a run of
    # four, and the fifth alone
    (7, {}, [(1024, 4), (1024, 4), (4096, 2), (1024, 2)]),
    # block 4 holds them in n_total only, which ends the run
    (9, {"thermal": [4500]},
     [(1024, 4), (1024, 4), (2048, 2), (1024, 3), (4096, 2)]),
    # block 4 is no mirror: its x > 0 rows pass alone, and its x < 0 rows
    # go through the kernel too
    (9, {"cond": [4500]},
     [(1024, 4), (1024, 4), (2048, 2), (1024, 2), (1024, 4), (4096, 2)]),
])
def test_profile_csv_formats_runs_of_bulk_blocks_in_one_pass(tmp_path, monkeypatch, parity, blocks,
                                                             broken, shapes):
    n = 2 * blocks * 1024 + parity
    prof = _broken_bulk_profile(n, **broken)
    assert _kernel_blocks(tmp_path, monkeypatch, prof) == shapes + [(1, 4)] * parity


@pytest.mark.parametrize("parity", [1, 0])
def test_profile_csv_spills_between_the_passes_of_a_run(tmp_path, monkeypatch, parity):
    # nine bulk blocks take passes of 4096, 4096 and 1024 rows; the memory
    # holds the first and would have room for the last, but once the second
    # has gone to disk every later text follows it there
    n = 2 * 9 * 1024 + parity
    prof = _bulk_profile(n, 0)
    lines = _per_row_csv(prof).splitlines(keepends=True)[1:]
    first, second, last = (len("".join(lines[n - hi:n - lo])) for lo, hi in
                           ((0, 4096), (4096, 8192), (8192, 9216)))
    spills = _spill_files(tmp_path, monkeypatch)
    monkeypatch.setattr(profile_module, "_SPOOL_BYTES", first + last)
    shapes = _kernel_blocks(tmp_path, monkeypatch, prof)
    assert shapes == [(4096, 2), (4096, 2), (1024, 2)] + [(1, 4)] * parity
    assert len(spills) == 1 and spills[0].stat().st_size == second + last


def test_profile_csv_constant_blocks_of_a_condensing_state(tmp_path, monkeypatch, condensing_state):
    # n_thermal is C bit for bit past the wall layers, and so is n_total:
    # six of the eight blocks of the x > 0 half go through the kernel with
    # x and n_cond alone
    grid_n = 4 * 4096 + 1
    shapes = _kernel_blocks(tmp_path, monkeypatch, density_profile(*condensing_state, grid_n))
    assert {columns for _, columns in shapes} == {2, 4}
    assert sum(rows for rows, _ in shapes) == grid_n - grid_n // 2
    assert sum(rows for rows, columns in shapes if columns == 2) == 6144


def test_profile_csv_mode_sum_path_has_no_constant_block(tmp_path, monkeypatch):
    st = _state(L=12.0, beta=1.0)
    assert continuum_plan(st.params.box, st.params.beta, st.params.cutoff_tol) is None
    shapes = _kernel_blocks(tmp_path, monkeypatch, density_profile(st.spectrum, st, 4 * 4096 + 1))
    assert {columns for _, columns in shapes} == {4}


def _printf_rows(values):
    """`values` as four-column `%.17g` CSV rows (zero-padded to whole rows),
    formatted by CPython, and the (rows, 4) block they came from."""
    values = np.concatenate([np.asarray(values, dtype=float), np.zeros(-len(values) % 4)])
    rows = values.reshape(-1, 4)
    text = "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows.tolist())
    return text.encode(), rows


def _assert_formats_like_printf(values):
    text, rows = _printf_rows(values)
    assert csvio._format_pass(rows) == text


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


_NEAR_TIE = 1e15 + 0.25  # 18 digits ending in 5: a tie that `_printf` breaks


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e-5, 1e-4, 0.1, 1.0 / 3.0, 1e16, 1e17, 1e300,
                                   math.inf, math.nan, _NEAR_TIE])
@pytest.mark.parametrize("column", [1, 3])  # a middle column, and the last (a newline follows)
def test_constant_column_formats_like_an_array(monkeypatch, value, column):
    rng = np.random.default_rng(11)
    n = csvio.ROWS_PER_PASS + 7
    columns = list(rng.standard_normal((4, n)) * 10.0 ** rng.integers(-300, 300, (4, n)))
    columns[2][[3, 1030]] = math.nan, _NEAR_TIE  # cells of an array column that `%` formats
    repeated = list(columns)
    repeated[column] = np.full(n, value)
    lines = [(",".join("%.17g" % v for v in row) + "\n").encode()
             for row in np.column_stack(repeated).tolist()]
    slow = []
    real = csvio._printf
    monkeypatch.setattr(csvio, "_printf", lambda x: slow.append(x) or real(x))
    columns[column] = csvio.Constant(value)
    # the kernel certifies all but inf, nan and the tie, which `%` breaks
    assert len(slow) == (not math.isfinite(value) or value == _NEAR_TIE)
    for lo, hi in [(0, n), (5, 6)]:  # whole passes (one crosses the edge), and one row
        for a in range(lo, hi, csvio.ROWS_PER_PASS):
            b = min(a + csvio.ROWS_PER_PASS, hi)
            assert csvio.format_rows(columns, a, b) == b"".join(lines[a:b])
            assert csvio.format_rows(repeated, a, b) == b"".join(lines[a:b])


def test_constant_is_made_without_a_pass(monkeypatch):
    # the constant's words are made once, outside the pass that copies them
    # into every row; a pass formats the array columns alone
    shapes = []
    real = csvio._format_pass
    monkeypatch.setattr(csvio, "_format_pass", lambda block, *rest: shapes.append(block.shape)
                        or real(block, *rest))
    c = csvio.Constant(-2.5)
    assert c.text == b"-2.5" and shapes == []
    x = np.arange(3.0)
    assert csvio.format_rows([x, c, x, c], 0, 3) == b"0,-2.5,0,-2.5\n1,-2.5,1,-2.5\n2,-2.5,2,-2.5\n"
    assert shapes == [(3, 2)]


def test_write_rows_keeps_wide_tables_within_the_cell_bound(monkeypatch):
    # nine columns take 910 rows a pass, not 1024, and print the same bytes
    shapes = []
    real = csvio._format_pass
    monkeypatch.setattr(csvio, "_format_pass", lambda block, *rest: shapes.append(block.shape)
                        or real(block, *rest))
    table = np.random.default_rng(3).standard_normal((9, 2000))
    out = io.BytesIO()
    csvio.write_rows(out, table)
    assert shapes == [(910, 9), (910, 9), (180, 9)]
    assert out.getvalue() == "".join(",".join("%.17g" % v for v in row) + "\n"
                                     for row in table.T.tolist()).encode()


def test_profile_rows_take_the_vector_path(tmp_path, monkeypatch, condensing_state):
    # every cell of a condensing profile is formatted without `%`: a kernel
    # that certified nothing would still print the right bytes, slowly
    prof = density_profile(*condensing_state, 4 * 4096 + 1)
    slow = []
    real = csvio._printf
    monkeypatch.setattr(csvio, "_printf", lambda x: slow.append(x) or real(x))
    path = tmp_path / "prof.csv"
    write_profile_csv(prof, path)
    assert path.read_bytes() == _per_row_csv(prof).encode()
    assert slow == []


def test_density_profile_memory_stays_flat():
    st = _state(L=800.0, rho=1.5 * critical_density(1.0, -0.55), sigma=-0.55)
    table = st.spectrum
    tracemalloc.start()
    try:
        density_profile(table, st, 32001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20  # the four output columns alone take 1 MB


def test_profile_csv_memory_stays_flat(tmp_path):
    # the x > 0 half waits in memory only up to `_SPOOL_BYTES`, and in a
    # temporary file past that: that much and one pass's text, not the 4 MB
    # table (or 5 MB of half the CSV) of this grid, are held at a time
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
    # a profile on each path, and a thermo point on each path of the solve:
    # one whose Newton slope at k_max ~ 34,000 took its last bits from a
    # threaded BLAS dot (occ0 8235.916937552778 under one thread,
    # 8235.91693755278 under two), now on the half-line continuum, and one
    # below the switch whose searched head (62) takes the Euler-Maclaurin
    # tail of the ladder
    src = str(Path(__file__).resolve().parents[1] / "src")
    cases = [
        ["profile", "--sigma=-1", "--L=200", "--beta=1.5", "--rho=0.6", "--grid-n=8001",
         "--fraction=0.9"],
        ["profile", "--sigma=-1", "--L=12", "--beta=1.5", "--rho=0.6", "--grid-n=8001"],
        ["thermo", "--model", "scf", "--sigma=-1.0", "--beta=0.2", "--rho=3.0", "--lambda=0.7",
         "--L=8355.2748653427843"],
        ["thermo", "--model", "scf", "--sigma=-0.1", "--beta=0.2", "--rho=3.0", "--lambda=0.7",
         "--L=150"],
    ]
    ladder = ThermoInput(box=BoxParams(sigma=-0.1, L=150.0), beta=0.2, rho=3.0, lam=0.7).plan
    assert ladder.continuum is None and ladder.head == 62 and ladder.terms > 0
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


@pytest.mark.parametrize("sigma,beta,L,lam", [(-1.5, 2.0, 800.0, 0.0), (-0.5, 1.0, 200.0, 0.0),
                                              (-1.0, 1.0, 100.0, 0.7)])
def test_half_line_continuum_matches_mpmath(sigma, beta, L, lam):
    # C + F(y) = (2/pi) int_0^inf b(p) cos^2(p y + theta_p) dp, the half-line
    # continuum at one wall, at the wall, in the node dip (y = 0.575 at
    # sigma = -1.5, beta = 2, where the positive sum is taken), and out to
    # the layer's edge, against mpmath at the state's own double level l;
    # Horner's rounding is absolute, a few ulp of the bulk C
    mpmath = pytest.importorskip("mpmath")
    st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta, lam=lam,
                model=MEAN_FIELD_SCF if lam else FREE)
    plan = continuum_plan(st.params.box, beta, st.params.cutoff_tol)
    q0 = float(st.spectrum.wavenumbers[0])
    ell = q0 * q0 + st.excited_shift
    xh = np.sort(0.5 * L - np.array([0.0, 0.575, 1.0 / -sigma, 3.0, 10.0, plan.layer]))
    got = profile_module._continuum_half(plan, st, xh)
    mp = mpmath.mp.clone()
    mp.dps = 30
    s, b, l = mp.mpf(-sigma), mp.mpf(beta), mp.mpf(ell)
    for y, n in zip(0.5 * L - xh, got):  # y exact: L/2 - x is (Sterbenz)
        def f(p, y=mp.mpf(float(y))):
            return mp.cos(p * y + mp.atan2(s, p)) ** 2 / mp.expm1(b * (p * p + l))
        ref = float(2 / mp.pi * mp.quad(f, mp.linspace(0, 12 / mp.sqrt(b), 61) + [mp.inf]))
        assert abs(n - ref) <= 2e-14 * ref + 1e-17 * critical_density(beta, -math.sqrt(ell)), (y, n, ref)


def test_continuum_certificate_bounds_the_error():
    # the continuum's four-part certificate against |continuum - long-double
    # mode sum| on a table whose certified tail is below 1e-22, from
    # L|sigma| = 8 to 100, free and SCF, on both sides of the switch to the
    # continuum path (where the remainder R alone is above cutoff_tol/4)
    sides = set()
    for sigma, beta in ((-1.0, 1.0), (-0.5, 2.0)):
        for Ls in (8.0, 12.0, 16.0, 20.0, 24.0, 30.0, 100.0):
            for lam in (0.0, 0.7):
                L = Ls / -sigma
                st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta, lam=lam,
                            model=MEAN_FIELD_SCF if lam else FREE)
                plan = thermo._continuum(st.params.box, beta, st.params.cutoff_tol)
                sides.add(continuum_plan(st.params.box, beta, st.params.cutoff_tol) is not None)
                grid_n = int(20 * L) + 1
                xh = profile_module._symmetric_grid(L, grid_n)[grid_n // 2:]
                at = np.flatnonzero((0.5 * L - xh <= plan.layer) | (np.arange(len(xh)) % 8 == 0))
                got = profile_module._continuum_half(plan, st, xh[at])
                table = build_spectrum(st.params.box, suggest_k_max(st.params.box, beta, 1e-22))
                _, ref = _longdouble_columns(table, st, xh[at])
                assert float(np.max(np.abs(got - ref))) <= plan.certificate, (sigma, beta, Ls, lam)
    assert sides == {True, False}


def _cli_profile(monkeypatch, out, argv):
    """Run `robinbec profile` with `argv`; the k_max of every table it
    builds, and the CSV's `# k_max` lines."""
    from robinbec import cli

    built = []
    for module in (cli, thermo):
        real = module.build_spectrum
        monkeypatch.setattr(module, "build_spectrum",
                            lambda box, k, real=real: built.append(k) or real(box, k))
    assert cli.main(["profile", "--sigma=-1", "--grid-n=201", *argv, "--out", str(out)]) == 0
    monkeypatch.undo()
    return built, [line for line in out.read_text().splitlines() if line.startswith("# k_max = ")]


def test_cli_profile_builds_only_the_head(tmp_path, monkeypatch):
    # a profile op builds one table, the density solve's, and echoes its
    # k_max: the wall pair on the continuum path, and on the mode-sum path
    # the certified cutoff (suggest_k_max's, or a given --k-max)
    cutoff = suggest_k_max(BoxParams(sigma=-1.0, L=12.0), 1.0)
    for L, given, builds in (("200", [], [1]), ("12", [], [cutoff]), ("12", ["--k-max=40"], [40])):
        built, echo = _cli_profile(monkeypatch, tmp_path / "profile.csv", [f"--L={L}", *given])
        assert built == builds and echo == [f"# k_max = {builds[-1]}"]


def test_cli_profile_k_max_is_a_cutoff_past_the_switch(tmp_path, monkeypatch):
    # past the switch a given --k-max is the mode cutoff as below it: the
    # solve and the profile sum exactly modes 0..k_max, and the CSV echoes
    # it (`test_cli` rejects one whose certified tail exceeds --cutoff-tol)
    box = BoxParams(sigma=-1.0, L=200.0)
    k_max = suggest_k_max(box, 1.0)
    out = tmp_path / "profile.csv"
    built, echo = _cli_profile(monkeypatch, out, ["--L=200", f"--k-max={k_max}"])
    assert built == [k_max] and echo == [f"# k_max = {k_max}"]
    st = solve_mu(ThermoInput(box=box, beta=1.0, rho=1.0, lam=0.0, k_max=k_max))
    occ = st.occupations(st.spectrum)
    assert st.spectrum.k_max == k_max and np.array_equal(occ, st.occ)
    assert st.rho_tilde == pytest.approx(math.fsum(occ[2:].tolist()) / box.L, rel=1e-14, abs=0.0)
    # the CSV's n_thermal is the long-double sum over those modes (the
    # continuum's is 2e-10 off it, relative)
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    half = rows[100:]
    _, ref = _longdouble_columns(st.spectrum, st, half[:, 0])
    np.testing.assert_allclose(half[:, 3], ref.astype(float), rtol=1e-13, atol=0.0)
