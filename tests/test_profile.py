import math
import os
import struct
import subprocess
import sys
import tracemalloc
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
    profile_mass,
    write_profile_csv,
)
from robinbec.spectrum import BoxParams, build_spectrum
from robinbec.thermo import (
    FREE,
    MEAN_FIELD_SCF,
    ThermoInput,
    critical_density,
    solve_mu,
)


def _state(L=30.0, rho=1.0, lam=0.0, model=FREE, sigma=-1.0, beta=1.0):
    inp = ThermoInput(box=BoxParams(sigma=sigma, L=L), beta=beta, rho=rho, lam=lam)
    return solve_mu(inp, model=model)


def _fake_state(state, occ):
    # same solved state with replaced occupations (for the trivial cases);
    # its densities follow the new occupations
    from dataclasses import replace

    return replace(state, occ=np.asarray(occ, dtype=float))


def test_zero_occupations_zero_profile():
    st = _state()
    st0 = _fake_state(st, np.zeros_like(st.occ))
    assert st0.rho_tilde == 0.0 and st0.rho_cond_finite == 0.0
    table = build_spectrum(st.params.box, st.params.k_max)
    prof = density_profile(table, st0, 201)
    assert np.all(prof.n_total == 0.0)
    assert np.all(prof.n_cond == 0.0)


def test_single_mode_profile_integrates_to_one():
    st = _state(L=12.0)
    occ = np.zeros_like(st.occ)
    occ[0] = 1.0
    table = build_spectrum(st.params.box, st.params.k_max)
    prof = density_profile(table, _fake_state(st, occ), 3001)
    q = table.modes[0].wavenumber
    ref = (np.exp(table.modes[0].log_norm) * np.cosh(q * prof.grid)) ** 2
    assert np.allclose(prof.n_total, ref, rtol=1e-12)
    coarse = density_profile(table, _fake_state(st, occ), 1501)
    mass = (4.0 * profile_mass(prof) - profile_mass(coarse)) / 3.0
    assert abs(mass - 1.0) < 1e-8


def test_profile_invariants_condensing_state():
    st = _state(L=60.0, rho=1.0, lam=1.0, model=MEAN_FIELD_SCF)
    table = build_spectrum(st.params.box, st.params.k_max)
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
    assert abs(extrapolated - st.occ.sum()) < 1e-8 * st.occ.sum()


def test_wall_contrast_grows_with_L():
    ratios = []
    for L in (40.0, 80.0, 160.0):
        st = _state(L=L, rho=1.0)
        table = build_spectrum(st.params.box, st.params.k_max)
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
    table = build_spectrum(st.params.box, st.params.k_max)
    prof = density_profile(table, st, 16385)
    d = localization_radius(prof, 0.9)
    # cosh^2 tail: 90% of the mass within ~ln(10)/(2|sigma|) of the walls
    assert abs(d - math.log(10.0) / 2.0) < 0.05
    with pytest.raises(ValidationError):
        localization_radius(prof, 1.5)


def test_localization_radius_empty_condensate():
    st = _state(L=20.0)
    occ = np.zeros_like(st.occ)
    occ[3] = 1.0
    table = build_spectrum(st.params.box, st.params.k_max)
    prof = density_profile(table, _fake_state(st, occ), 501)
    with pytest.raises(EmptyCondensate):
        localization_radius(prof, 0.9)


def test_grid_validation():
    st = _state(L=20.0)
    table = build_spectrum(st.params.box, st.params.k_max)
    with pytest.raises(ValidationError):
        density_profile(table, st, 32)


def test_profile_csv(tmp_path):
    st = _state(L=20.0)
    table = build_spectrum(st.params.box, st.params.k_max)
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
    occ = state.occ
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
])
def test_profile_columns_match_longdouble_mode_sum(sigma, beta, L, grid_n):
    # condensing boxes; at beta sigma^2 > 3 the thermal density dips ~1e3
    # below its bulk value near 1/|sigma| from each wall
    st = _state(L=L, rho=1.5 * critical_density(beta, sigma), sigma=sigma, beta=beta)
    table = build_spectrum(st.params.box, st.params.k_max)
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
    real = profile_module._format_rows

    def counted(columns, lo, hi):
        counts.append(hi - lo)
        return real(columns, lo, hi)

    monkeypatch.setattr(profile_module, "_format_rows", counted)
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
    return build_spectrum(st.params.box, st.params.k_max), st


@pytest.mark.parametrize("grid_n", [4 * 4096 + 1, 4 * 4096 + 2])
def test_profile_csv_formats_each_mirror_pair_once(tmp_path, monkeypatch, condensing_state,
                                                   grid_n):
    # blocks of 4096 rows cross both halves, odd and even grid_n
    prof = density_profile(*condensing_state, grid_n)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == grid_n - grid_n // 2


@pytest.mark.parametrize("grid_n", [4 * 4096 + 1, 4 * 4096 + 2])
def test_profile_csv_broken_mirror_falls_back_per_block(tmp_path, monkeypatch,
                                                        condensing_state, grid_n):
    prof = density_profile(*condensing_state, grid_n)
    n_cond, grid = prof.n_cond.copy(), prof.grid.copy()
    n_cond[5000] = np.nextafter(n_cond[5000], np.inf)  # lower-half block [4096, 8192)
    grid[-3] = np.nextafter(grid[-3], -np.inf)  # mirror of row 2, block [0, 4096)
    broken = Profile(grid=grid, n_total=prof.n_total, n_cond=n_cond,
                     n_thermal=prof.n_thermal)
    assert _formatted_rows(tmp_path, monkeypatch, broken) == grid_n - grid_n // 2 + 2 * 4096


def test_profile_csv_signed_zeros_are_not_mirrors(tmp_path, monkeypatch):
    # -0.0 == 0.0, but they print differently: the check compares bits
    n = 2 * 4096 + 1
    x = _mirrored_grid(n)
    n_cond = x * x
    n_cond[7], n_cond[-8] = -0.0, 0.0
    prof = Profile(grid=x, n_total=x * x, n_cond=n_cond, n_thermal=x * x)
    assert _formatted_rows(tmp_path, monkeypatch, prof) == n - n // 2 + 4096


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
    formatted by CPython, and the columns they came from."""
    values = np.concatenate([np.asarray(values, dtype=float), np.zeros(-len(values) % 4)])
    rows = values.reshape(-1, 4)
    text = "\n".join(",".join("%.17g" % x for x in row) for row in rows.tolist())
    return text, [np.ascontiguousarray(rows[:, i]) for i in range(4)]


def _assert_formats_like_printf(values):
    text, columns = _printf_rows(values)
    assert profile_module._format_rows(columns, 0, len(columns[0])) == text


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
    table = build_spectrum(st.params.box, st.params.k_max)
    tracemalloc.start()
    try:
        density_profile(table, st, 32001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20  # the four output columns alone take 1 MB


def test_profile_csv_memory_stays_flat(tmp_path):
    # the x > 0 half waits in a temporary file: one block's text, not the
    # 4 MB table (or 5 MB of half the CSV) of this grid, is held at a time
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "robinbec.cli", "profile", "--sigma=-1", "--L=200",
             "--beta=1.5", "--rho=0.6", "--grid-n=8001", "--fraction=0.9",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout.replace(str(out), "OUT"), out.read_bytes()))
    assert runs[0] == runs[1]
