"""Spatial density diagnostics.

n_total(x) = sum_k occ_k |phi_k(x)|^2, split into the wall-mode
(condensate) part k in {0, 1} and the thermal remainder k >= 2.  The
profiles inherit the reflection symmetry of |phi_k|^2, and their grid is
built mirror-symmetric (x[-1 - j] == -x[j] exactly), so both parts are
evaluated on the x >= 0 half of the grid and mirrored onto the other
half; the symmetry then holds to the last bit.

The wall pair is evaluated point by point (`eigenfunction_eval`).  The
thermal part takes the path of the state's input, chosen once
(`ThermoInput.plan`): the half-line continuum, whose nodes the density
solve read too (its k >= 2 sum is the box integral of this n_thermal),
or the mode sum over the solve's own table (`profile_input`).

The continuum path.  With s = |sigma|, y the distance to a wall and
tan theta_p = s/p, mode k >= 2 is phi_k^2 = 2 cos^2(p_k y + theta_k) /
(pi k'(p_k)) on the phase map k(p) = (pL + 2 theta_p)/pi, k(p_k) = k.
Poisson summation over k turns the thermal sum into

    n_thermal(x) = C + F(L/2 - x) + F(L/2 + x) + R,   F(y) = J(y, 1),
    J(Z, N) = (1/pi) int_0^inf b(p) cos(2pZ + 2N theta_p) dp,

with b(p) = bose(beta (p^2 + l)), l = q0^2 + x' (`ThermoState.
excited_shift`; x' = inf empties every mode) and C = J(0, 0) =
critical_density(beta, -sqrt(l)): C + F is the half-line Robin continuum
at each wall, and R = sum_{j >= 1} [2 J(jL, 2j) + J(jL + y_A, 2j + 1) +
J(jL + y_B, 2j + 1)] the round trips of the interval's reflection series.
On the line Im p = c, 0 < c < s, |(p + is)/(p - is)| <= rho = (s + c)/(s
- c) and |b| is at most its real value at l - c^2, so moving the contour
there gives |J(Z, N)| <= e^{-2cZ} rho^N Q(c) for Z >= 0, with Q(c) =
critical_density(beta, sqrt(s^2 - c^2)) as l >= s^2 (below the real axis,
for Z < 0, without rho^N).  Four parts, each at most cutoff_tol/4 in
absolute density at every mu' <= eps(0), as `certified_density_tail` is,
make the certificate (each bound at the best height c of
`thermo._HEIGHTS`):

  (a) |R| <= 2 Q (1 + rho) r / (1 - r), r = rho^2 e^{-2cL};
  (b) F is the trapezoid rule on p_m = m dp, m < nodes: by Poisson
      summation its error is copies of J at y +- j pi/dp, and the cut at
      the last node is bounded by the Gaussian tail of b;
  (c) past the layer width Y, |F| <= rho Q e^{-2cY}: F is dropped there,
      and n_thermal is C bit for bit;
  (d) the rounding of the angle, the Horner steps and `critical_density`.

(b) and (c) aim at the smaller of cutoff_tol/4 and `_ETA` times the
bulk's scale S = e^{-beta s^2}/(2 sqrt(pi beta)) (not below the smallest
normal double), which sets dp, the node count and Y; they do not depend
on L and are planned once per (|sigma|, beta, cutoff_tol), and (a) once
per box.  The path is taken where (d) fits and (a) fits in share of S too
where S < 1 (R is a physical truncation: fitted to cutoff_tol alone, it
left n_thermal negative at (sigma, beta, L) = (-3, 3, 1)), and where the
solve's three parts fit as well, from L|sigma| ~ 20 to 22 on at the
default cutoff_tol and beta sigma^2 from 0.01 to 4.5.  F is
Re sum_m c_m z^m, z = e^{2i dp y}, by Horner over the layer points only;
y = L/2 - x is exact there (Sterbenz).  Where n_thermal dips below
C `_DIRECT_BELOW`, ~1/|sigma| from each wall at beta sigma^2 > 3 (the
low modes' common node), below Horner's absolute rounding, the same nodes
are summed as the positive sum sum_m (2 dp/pi) b_m cos^2(p_m y + theta_m).
(Background: H. S. Carslaw and J. C. Jaeger, Conduction of Heat in
Solids, 2nd ed. 1959; J. D. Bondurant and S. A. Fulling, J. Phys. A 38
(2005) 1505.)

The mode-sum path sums occ_k N_k^2 cos^2(p_k y + theta_k) term by term
(`_mode_sum`, as the dip does) over a table that reaches a certified
cutoff (`profile_input`); the phase from the nearer wall spares the dip
p_k's rounding times L/2.  Both paths sum with `np.einsum`, not `@`: `@`
goes through BLAS, whose summation order follows its thread count, so the
same input gave different last bits under OPENBLAS_NUM_THREADS=1 and =2;
the CLI promises byte-identical output.

`write_profile_csv` formats each mirrored pair of rows once: a block of
the x < 0 half is the reversed, negated lines of its partner block on the
x > 0 half wherever every row checks out as its exact mirror (one
vectorised test over the half grid, `_mirror_rows`), and is formatted
itself otherwise, so the bytes never depend on the shortcut.  Past the
wall layers, n_thermal is the bulk C bit for bit, and n_total too where
n_cond is below half an ulp of it: a block of the x > 0 half passes
either column as one `csvio.Constant`, made once per file from the
centre row's value, wherever every row of the block holds the centre
row's bits (a second vectorised test), and a run of up to `_BULK_BLOCKS`
mirrored blocks that hold both is one kernel pass of x and n_cond alone
(`_passes`).  The x > 0 half comes last in the file, so the text of each
of its passes waits as the kernel returned it: in memory while the texts
held add up to at most `_SPOOL_BYTES`, and from the first that does not
fit on, in a temporary file.  It works in bytes from the `%.17g` kernel
of `csvio`, which formats every CSV robinbec writes, to the file.

`localization_radius` quantifies the surface character of the wall-mode
density: the smallest distance d from a wall such that the windows within
d of either wall hold a requested fraction of the condensate mass.  For
wall-hugging profiles it stays O(1/|sigma|) while the total condensate
number grows linearly in L.
"""

from __future__ import annotations

import contextlib
import math
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import csvio
from .errors import ValidationError
from .spectrum import BoxParams, SpectrumTable, eigenfunction_eval
from .thermo import (
    Continuum, ThermoInput, ThermoState, _cutoff_plan, _occ_free, critical_density, suggest_k_max,
)

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz

_CHUNK = 128  # modes (or nodes) per block of a term-by-term sum
_POINTS = 4096  # points per block of a term-by-term sum, and 16 blocks per Horner pass
_DIRECT_BELOW = 1.0 / 64.0  # n_thermal / C below which a layer point takes the positive sum
_SPOOL_BYTES = 2 ** 20  # the CSV's x > 0 half waits in memory up to this size, then on disk
_BULK_BLOCKS = csvio.CELLS_PER_PASS // (2 * csvio.ROWS_PER_PASS)  # per pass of x and n_cond alone
# largest grid: `density_profile` peaks at 48.0 bytes per point, 32 of them
# its four output columns (tracemalloc, 2^17 + 1 and 10^6 points, L = 800
# and 12,800, and L = 12 on the mode-sum path); `write_profile_csv` at ~4
# per row, its mirror and bulk tests, plus `_SPOOL_BYTES` and up to ~1.8 MB
# of one pass's formatting, a run of bulk blocks (1.7-3.2 MiB at 2^17 + 1
# rows, 4.8 MiB at 10^6); the CSV takes 58-83 bytes per row on disk, its
# x > 0 half as much again in a temporary file while it is written: 0.48,
# 0.8 and 0.4 GB at the limit
_MAX_GRID_N = 10_000_000


class EmptyCondensate(ValidationError):
    """Localization radius of an identically-zero condensate profile."""


@dataclass(frozen=True, eq=False)
class Profile:
    """Densities on a symmetric grid; n_cond + n_thermal = n_total."""

    grid: np.ndarray
    n_total: np.ndarray
    n_cond: np.ndarray
    n_thermal: np.ndarray


def _symmetric_grid(L: float, grid_n: int) -> np.ndarray:
    x = np.linspace(-0.5 * L, 0.5 * L, grid_n)
    return 0.5 * (x - x[::-1])  # exact mirror pairs, endpoints exact


def _mirror(half: np.ndarray, n: int) -> np.ndarray:
    """Full-grid values from those on x[n // 2:] (the x >= 0 half)."""
    out = np.empty(n)
    out[n - len(half):] = half
    out[:len(half)] = half[::-1]
    return out


def _mode_sum(p, w, theta, y):
    """sum_k w_k cos^2(p_k y + theta_k) term by term, in blocks of up to
    `_CHUNK` terms by `_POINTS` points."""
    out = np.zeros(len(y))
    for j in range(0, len(y), _POINTS):
        for lo in range(0, len(p), _CHUNK):
            k = slice(lo, lo + _CHUNK)
            phi = np.cos(np.multiply.outer(p[k], y[j:j + _POINTS]) + theta[k, None])
            out[j:j + _POINTS] += np.einsum("k,kj,kj->j", w[k], phi, phi)
    return out


def _horner(coef, angle):
    """Re sum_m coef_m e^{i m angle}, by Horner in e^{i angle}."""
    out = np.empty(len(angle))
    for j in range(0, len(angle), 16 * _POINTS):
        a = angle[j:j + 16 * _POINTS]
        z = np.cos(a) + 1j * np.sin(a)
        acc = np.full(len(a), coef[-1])
        for c in coef[-2::-1]:
            acc *= z
            acc += c
        out[j:j + len(a)] = acc.real
    return out


def _continuum_half(plan: Continuum, state: ThermoState, xh) -> np.ndarray:
    """n_thermal on the half grid `xh` (x >= 0, increasing) from the
    half-line continuum at each wall (module docstring)."""
    s, L = state.params.box.s, state.params.box.L
    q0 = float(state.spectrum.wavenumbers[0])
    ell = q0 * q0 + state.excited_shift
    if ell == math.inf:
        return np.zeros(len(xh))
    p = np.arange(plan.nodes) * plan.dp
    b = _occ_free(p * p, state.params.beta, ell)
    coef = (plan.dp / math.pi) * b * ((p + 1j * s) / (p - 1j * s))  # e^{2i theta_p}
    coef[0] *= 0.5
    bulk = critical_density(state.params.beta, -math.sqrt(ell))
    n = np.full(len(xh), bulk)
    near = 0.5 * L - xh <= plan.layer  # a tail of the half grid
    y = 0.5 * L - xh[near]
    layer = bulk + _horner(coef, (2.0 * plan.dp) * y)
    dip = layer < _DIRECT_BELOW * bulk
    if np.any(dip):
        layer[dip] = _mode_sum(p[1:], (2.0 * plan.dp / math.pi) * b[1:], np.arctan2(s, p[1:]), y[dip])
    n[near] = layer
    far = 0.5 * L + xh <= plan.layer  # the other wall, on short boxes
    if np.any(far):
        n[far] += _horner(coef, (2.0 * plan.dp) * (0.5 * L + xh[far]))
    return n


def profile_input(params: ThermoInput) -> ThermoInput:
    """The input a density profile at `params` solves: `params` itself on
    the continuum path or where `k_max` is given (`ThermoInput` has
    certified it), and else `params` with `suggest_k_max`'s certified
    cutoff, so that the solve's table is the one the profile sums."""
    if params.plan.continuum is not None or params.k_max is not None:
        return params
    return replace(params, k_max=suggest_k_max(params.box, params.beta, params.cutoff_tol))


def density_profile(spectrum: SpectrumTable, state: ThermoState, grid_n: int) -> Profile:
    """occ_k |phi_k|^2 on a `grid_n`-point symmetric grid, with the
    occupations the solved state gives (`ThermoState.occupations`): the
    wall pair from rows 0 and 1 of `spectrum`, and the k >= 2 modes on
    the path of `state.params.plan`: the half-line continuum, or the modes
    of `spectrum`, which must then reach a certified cutoff (as the
    solve's table of a `profile_input` does).

    Raises ValidationError where a bound on the density, its value at the
    walls, overflows a float, or where the table is of another box, and
    CutoffTooSmall where it leaves out more than cutoff_tol."""
    if not 64 <= grid_n <= _MAX_GRID_N:
        raise ValidationError(f"grid_n must be in [64, {_MAX_GRID_N}], got {grid_n}")
    occ = state.occupations(spectrum)
    params = state.params
    continuum = params.plan.continuum
    if continuum is None:
        _cutoff_plan(params.box, params.beta, spectrum.k_max, params.cutoff_tol)
    x = _symmetric_grid(params.box.L, int(grid_n))
    half = x[len(x) // 2:]
    walls = [eigenfunction_eval(spectrum, k, half) for k in (0, 1)]
    # |phi_0| and |phi_1| peak at the wall half[-1] = L/2, and for k >= 2
    # occ_k phi_k^2 <= occ_k (2/L)/(1 - 1/pi) < 3 occ_k/L, so no density
    # on the grid exceeds `peak`; 2 peak leaves room for rounding
    peak = sum(float(w) * float(phi[-1]) * float(phi[-1]) for w, phi in zip(occ, walls))
    peak += 3.0 * state.rho_tilde
    if not 2.0 * peak < math.inf:
        raise ValidationError(f"the density profile overflows a float near the walls "
                              f"(rho = {params.rho:g}, L = {params.box.L:g})")
    cond = np.zeros_like(half)
    for w, phi in zip(occ, walls):
        cond += w * phi * phi
    if continuum is not None:
        thermal = _continuum_half(continuum, state, half)
    else:
        p = spectrum.wavenumbers[2:]
        thermal = _mode_sum(p, occ[2:] * np.exp(2.0 * spectrum.log_norms[2:]), np.arctan2(params.box.s, p),
                            0.5 * params.box.L - half)
    n_cond = _mirror(cond, len(x))
    n_thermal = _mirror(thermal, len(x))
    return Profile(
        grid=x,
        n_total=n_cond + n_thermal,
        n_cond=n_cond,
        n_thermal=n_thermal,
    )


def profile_mass(profile: Profile, which: str = "total") -> float:
    """Trapezoid integral of one density component over the box."""
    comp = {"total": profile.n_total, "cond": profile.n_cond, "thermal": profile.n_thermal}
    if which not in comp:
        raise ValidationError(f"which must be one of {sorted(comp)}, got {which!r}")
    return float(_trapezoid(comp[which], profile.grid))


def localization_radius(profile: Profile, fraction: float) -> float:
    """Smallest d with condensate mass within d of either wall >= fraction
    of the total condensate mass.

    Uses the right-wall cumulative integral F(t) = int_t^{L/2} n_cond dx;
    by symmetry the two-wall mass at distance d is 2 F(L/2 - d), and the
    target crossing is interpolated on the trapezoid cumulative.
    """
    if not (0.0 < fraction < 1.0):
        raise ValidationError(f"fraction must be in (0, 1), got {fraction}")
    x = profile.grid
    nc = profile.n_cond
    if not np.any(nc > 0.0):
        raise EmptyCondensate("condensate profile is identically zero")
    # the trapezoid sums stay below 2 peak max(1, width); where that
    # overflows, n_cond is scaled by an exact power of two to a peak below
    # 1 / max(1, width), which leaves the radius unchanged
    peak, width = float(nc.max()), float(x[-1] - x[0])
    if not math.isfinite(2.0 * peak * max(1.0, width)):
        nc = np.ldexp(nc, -(math.frexp(peak)[1] + max(0, math.frexp(width)[1])))
    seg = 0.5 * (nc[1:] + nc[:-1]) * np.diff(x)
    # F[j] = integral from x[j] to the right wall
    F = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    total = F[0]
    target = 0.5 * fraction * total
    # F decreases along j; find the last j with F[j] >= target
    j = int(np.searchsorted(-F, -target, side="right")) - 1
    j = max(0, min(j, len(x) - 2))
    f_hi, f_lo = F[j], F[j + 1]
    if f_hi == f_lo:
        t = x[j]
    else:
        t = x[j] + (f_hi - target) / (f_hi - f_lo) * (x[j + 1] - x[j])
    half = 0.5 * (x[-1] - x[0])
    return float(min(max(x[-1] - t, 0.0), half))


def _mirror_rows(columns, n) -> np.ndarray:
    """Whether row i is row n - 1 - i mirrored, for each i < n // 2: the
    partner's x > 0 and negated, the densities equal bit for bit (-0.0 ==
    0.0, but the two print differently)."""
    half = n // 2
    lower, upper = slice(half), slice(None, n - 1 - half, -1)  # rows i and n - 1 - i
    x = columns[0]
    mirrored = x[upper] > 0.0
    mirrored &= x[lower] == -x[upper]
    for c in columns[1:]:
        mirrored &= c[lower].view(np.int64) == c[upper].view(np.int64)
    return mirrored


def _passes(columns, n):
    """(lo, hi, layout, mirrored) for each kernel pass of `write_profile_csv`,
    from the wall inwards: the x > 0 rows [n - hi, n - lo) go through the
    kernel as the columns `layout`, and `mirrored` says whether every row of
    [lo, hi) is the exact mirror of its partner (`_mirror_rows`).  A pass is
    one block of `csvio.ROWS_PER_PASS` rows, in which n_total and n_thermal
    (columns 1 and 3) are each a `csvio.Constant` of the centre row n // 2
    where every row of the block holds that row's bits, one per bit pattern
    and file; or a run of up to `_BULK_BLOCKS` mirrored blocks in which both
    are, so that x and n_cond alone go through the kernel."""
    half, size = n // 2, csvio.ROWS_PER_PASS
    if not half:
        return
    starts = np.arange(0, half, size)
    mirrored = np.logical_and.reduceat(_mirror_rows(columns, n), starts).tolist()
    layouts = [list(columns) for _ in starts]
    bulk = list(mirrored)  # mirrored blocks that hold the centre row's bits in both columns
    constants = {}
    for i in (1, 3):
        centre = columns[i][half:half + 1].view(np.int64)
        bits = int(centre[0])
        same = columns[i][n - half:][::-1].view(np.int64) == centre  # from the wall inwards
        for b, whole in enumerate(np.logical_and.reduceat(same, starts).tolist()):
            bulk[b] &= whole
            if whole:
                if bits not in constants:
                    constants[bits] = csvio.Constant(columns[i][half])
                layouts[b][i] = constants[bits]
    b = 0
    while b < len(starts):
        end = b + 1
        if bulk[b]:
            while end < min(b + _BULK_BLOCKS, len(starts)) and bulk[end]:
                end += 1
        yield b * size, min(end * size, half), layouts[b], mirrored[b]
        b = end


def write_profile_csv(profile: Profile, path, comment_lines=()) -> None:
    """CSV rows `x,n_total,n_cond,n_thermal` at 17 significant digits.

    Rows j and n-1-j of a mirror-symmetric profile differ only in the sign
    of x, so the x > 0 half is formatted once, a block of
    `csvio.ROWS_PER_PASS` rows or a run of such blocks per kernel pass
    (`_passes`): where every row that a block mirrors checks out exactly
    (`_mirror_rows`), the block's lines, reversed and negated, are their
    bytes, and otherwise those rows are formatted themselves.  In a block
    of the x > 0 half whose every row holds the bits of the centre row
    n // 2 in n_total, or in n_thermal, that column goes to the kernel as a
    `csvio.Constant`, one per bit pattern and file, and a run of up to
    `_BULK_BLOCKS` mirrored blocks that hold both is one pass of x and
    n_cond.  Either way the bytes are those of formatting every row.  The
    x > 0 half comes last in the file, so each of its texts waits as the
    kernel returned it: in memory while those held add up to at most
    `_SPOOL_BYTES`, and from the first that does not fit on, in a
    temporary file, opened then.
    """
    columns = [np.asarray(c, dtype=float) for c in
               (profile.grid, profile.n_total, profile.n_cond, profile.n_thermal)]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValidationError("profile columns differ in length")

    held, room = [], _SPOOL_BYTES  # texts of the x > 0 half in memory, and the bytes left
    spill, sizes = None, []  # the temporary file of the later texts, and their sizes
    with open(path, "wb") as fh, contextlib.ExitStack() as stack:
        csvio.write_header(fh, comment_lines, "x,n_total,n_cond,n_thermal")
        for lo, hi, layout, mirrored in _passes(columns, n):
            text = csvio.format_rows(layout, n - hi, n - lo)
            if spill is None and len(text) <= room:
                held.append(text)
                room -= len(text)
            else:
                if spill is None:
                    spill = stack.enter_context(tempfile.TemporaryFile())
                sizes.append(spill.write(text))
            if mirrored:
                fh.write(b"-")
                fh.write(b"\n-".join(text.split(b"\n")[-2::-1]))
                fh.write(b"\n")
            else:
                fh.write(csvio.format_rows(columns, lo, hi))
        if n % 2:
            fh.write(csvio.format_rows(columns, n // 2, n // 2 + 1))
        if spill is not None:
            end = spill.tell()
            for size in reversed(sizes):
                end -= size
                spill.seek(end)
                fh.write(spill.read(size))
        for text in reversed(held):
            fh.write(text)
