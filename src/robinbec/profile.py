"""Spatial density diagnostics.

n_total(x) = sum_k occ_k |phi_k(x)|^2, split into the wall-mode
(condensate) part k in {0, 1} and the thermal remainder k >= 2.  The
profiles inherit the reflection symmetry of |phi_k|^2, and their grid is
built mirror-symmetric (x[-1 - j] == -x[j] exactly), so both parts are
evaluated on the x >= 0 half of the grid and mirrored onto the other
half; the symmetry then holds to the last bit.

The wall pair is evaluated point by point (`eigenfunction_eval`).  The
thermal part, with w_k = occ_k exp(2 log_norm_k), is

    n_thermal(x) = sum_k w_k cos^2(p_k x)   (even k; sin^2 for odd k)
                 = W/2 + sum_k v_k cos(2 p_k x),   W = sum_k w_k,

with v_k = +w_k/2 for even and -w_k/2 for odd k.  A mode-by-point loop
costs one cosine per mode and point.  Instead, the H points of the half
grid are laid out in rows of 2M + 1 (M = ceil(sqrt(2H))), each centred
on an anchor: x_j = a_i + b_r + delta_j for j = c_i + r, r = -M..M,
with c_i = i (2M + 1) + M, a_i = x[c_i] and b_{-r} = -b_r.  The last row
may run past the half grid; its anchor is then x[-1] plus whole steps h,
and the points past x[-1] are dropped.  Angle addition gives both sides
of an anchor from one pair of terms,

    cos(2p (a +- b)) = cos(2p a) cos(2p b) -+ sin(2p a) sin(2p b),

so two contractions over the K modes, taken in chunks of `_CHUNK`,
E = sum_k v_k cos(2p_k a_i) cos(2p_k b_r) and O = the same with sines,
each (rows x (M + 1)) for r = 0..M, give E - O at a_i + b_r and E + O
at a_i - b_r: about K H multiply-adds.  Each of the ~sqrt(H/8) anchors
takes a cosine and a sine per mode.  The offsets are equally spaced, so
their cosines and sines come from angle addition too: with
J = ceil(sqrt(M + 1)) and r = j1 J + j0, the offset b_r is the exact sum
b1[j1] + b0[j0] of the doubles b1[j1] = (j1 J) h and b0[j0] = j0 h, and

    exp(2i p b_r) = exp(2i p b1[j1]) exp(2i p b0[j0]),

one complex product (4 multiplies and 2 adds) of two table entries per
mode and offset, each entry the cosine and sine of the rounded double
2p b1[j1] or 2p b0[j0].  The product rounds each cosine and sine by a
few ulp of 1, the size of the error the cosines themselves carry.  That
is 2 K (rows + ceil((M + 1) / J) + J) ~ 2 K (sqrt(H/8) + 2 (2H)^(1/4))
sines and cosines in place of a mode-by-point loop's K H, and of the
2 K (rows + M + 1) ~ 2.8 K sqrt(H) of rows with M = ceil(sqrt(H/2)) and
every offset taken directly: 124 per mode at H = 10,696 against 294.
delta_j = (x_j - a_i) - b_r is the ~1 ulp by which the rounded grid
misses a_i + b_r, taken against the exact b1[j1] + b0[j0] (x_j - a_i is
rounded once; subtracting b1[j1] and then b0[j0] is exact).  It shifts
every mode alike, and next to the walls, where p x is largest, ignoring
it cost up to 2.7e-13 relative; it is added back to first order as
delta_j dn/dx.  On the flattened points y_j = a_i + b_r, row after row,
the slope comes from the contracted values o_j themselves:
(o_{j+1} - o_{j-1}) / 2h inside the half grid and the second-order
one-sided quotients (-+3 o_j +- 4 o_{j+-1} -+ o_{j+-2}) / 2h at its two
ends.  For one cosine of angular step t = 2 p h, the central quotient
misses the derivative by a factor 1 - sin(t)/t <= t^2/6 of its amplitude
2 p |v|, and the end quotients by
|(1 - e^{it})(e^{it} - 3) / 2it - 1|, whose Taylor series is bounded
term by term by (t^2/3) e^{2t}, and which is at most 1 + 4/t; the error
bound e(t) in `_slope_bound` takes the first below t = 1 and the second
above, and so bounds the central quotient too.
Neighbouring points are not exactly h apart: b1 and b0 are rounded, but
a step within a row, on either side of a_i, is b0[j0 + 1] - b0[j0] or
(b1[j1 + 1] - b1[j1]) - b0[J - 1], exact differences of nearby doubles,
and a step across rows, (a_{i+1} - b_M) - (a_i + b_M), is one rounding
of a_{i+1} - a_i, below 2 ulp of x[-1], followed by exact subtractions;
mu, the largest step error plus 4 ulp of x[-1], bounds them all.  A
spacing error mu moves a quotient by at most 3 mu / h times
sum_k 2 p_k |v_k|.  So

    B = max_j |delta_j| sum_k p_k w_k (e(2 p_k h) + 3 mu / h)

bounds what the quotient changes in n, and wherever B <= 2^-52 W it
stands in for two more contractions.  The rounding error of the o_j
reaches n multiplied by about |delta_j| / h <= grid_n 2^-52, at most
~2e-9 of itself.  Where B is larger (a coarse grid at large L, where
delta and h are both larger), the slope
dn/dx = -sum_k 2 p_k v_k sin(2 p_k x) is contracted as the value is,
sin(2p (a +- b)) = sin(2p a) cos(2p b) +- cos(2p a) sin(2p b) pairing
the terms the same way.  On the benchmark decks, 40 points per unit
length, B / W stays below 2.3e-17, about a tenth of 2^-52; the CLI's
default 2001 points at L = 800, and 512,001 points at L = 12,800
(sigma = -1, beta = 1, M = 716, J = 27), take the contractions.

The contractions sum terms of size up to w_k, so their rounding error
is absolute, a few ulp of W (up to 20 measured at K = 4,500).  Where
n_thermal falls below W * `_DIRECT_BELOW` (near the common node of the
low modes, about 1/|sigma| from each wall, where it dips ~1e3 below its
bulk value when beta sigma^2 > 3) that error is no longer small
relative to n_thermal, and those points are summed mode by mode
(`_mode_sum`).

The contractions use `np.einsum`, not `@`: `@` goes through BLAS, whose
blocking and summation order follow its thread count, so the same input
gave different last bits under OPENBLAS_NUM_THREADS=1 and =2; einsum's
loops do not depend on it, and the CLI promises byte-identical output.

`write_profile_csv` formats each mirrored pair of rows once: a block of
the x < 0 half is the reversed, negated lines of its partner block on the
x > 0 half wherever every row checks out as its exact mirror (one
vectorised test over the half grid, `_mirror_rows`), and is formatted
itself otherwise, so the bytes never depend on the shortcut.  The x > 0
half comes last in the file, so its text waits in a spooled temporary
file: in memory up to `_SPOOL_BYTES`, on disk past that.  It works in
bytes from the `%.17g` kernel of `csvio`, which formats every CSV
robinbec writes, to the file.

`localization_radius` quantifies the surface character of the wall-mode
density: the smallest distance d from a wall such that the windows within
d of either wall hold a requested fraction of the condensate mass.  For
wall-hugging profiles it stays O(1/|sigma|) while the total condensate
number grows linearly in L.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import csvio
from .errors import ValidationError
from .spectrum import SpectrumTable, eigenfunction_eval
from .thermo import CutoffTooSmall, ThermoInput, ThermoState, certified_density_tail, suggest_k_max

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz

# modes per contraction block: at 40 points per unit length up to L = 800
# a chunk's work arrays are its offset table, <= 128 x 13 x 14 complex
# (373 kB), the cosines and sines taken from it, 128 x 180 doubles (184 kB)
# each, and the anchors', 128 x 45 (46 kB); one `_contract` call peaks at
# 1.3 MB there (tracemalloc)
_CHUNK = 128
_DIRECT_BELOW = 1.0 / 64.0  # n_thermal / W below which a point is summed mode by mode
_EPS = 2.0 ** -52  # ulp(1.0); the slope bound B may reach _EPS W, one ulp of W
_SPOOL_BYTES = 2 ** 20  # the CSV's x > 0 half waits in memory up to this size, then on disk
# largest grid: `density_profile` peaks at ~48 bytes per point, 32 of them
# its four output columns (48.4 and 48.0 at grid_n = 2^17 + 1 and 10^6,
# L = 800, and 48.7 at 10^6, L = 12,800, K = 17,915), and `write_profile_csv`
# at ~5 bytes per row, its mirror test over the half grid, plus
# `_SPOOL_BYTES` and ~0.65 MB of one block's formatting (2.1 MB at
# 2^17 + 1 rows, 4.8 MB at 10^6; tracemalloc); the CSV takes ~82 bytes per
# row on disk, and its x > 0 half as much again in a temporary file while
# it is written: 0.48 GB, 0.8 GB and 0.4 GB at the limit
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


def _mode_sum(p, w, odd, x):
    """sum_k w_k phi_k(x)^2 term by term: cos^2(p_k x), or sin^2 for odd k."""
    out = np.zeros(len(x))
    for lo in range(0, len(p), _CHUNK):
        px = np.multiply.outer(p[lo:lo + _CHUNK], x)
        sine = odd[lo:lo + _CHUNK, None]
        phi = np.cos(px, out=np.empty_like(px), where=~sine)
        np.sin(px, out=phi, where=sine)
        out += np.einsum("k,kj,kj->j", w[lo:lo + _CHUNK], phi, phi)
    return out


class _Rows(NamedTuple):
    """The half grid in symmetric rows (`_split`); see the module docstring."""

    a: np.ndarray  # the anchors a_i, one per row
    b1: np.ndarray  # (j1 J) h, j1 = 0..ceil((M + 1) / J) - 1, each rounded
    b0: np.ndarray  # j0 h, j0 = 0..J - 1, each rounded
    M: int  # the offsets are b_r = b1[r // J] + b0[r % J], r = 0..M, unrounded
    h: float
    delta: np.ndarray  # x_j - (a_i +- b_r) at each half-grid point
    mu: float  # bounds the error of every step between neighbouring points


def _split(xh) -> _Rows:
    """The half grid `xh` in rows of 2M + 1 points, M = ceil(sqrt(2H)),
    row i centred on the anchor a_i = xh[c_i], c_i = i (2M + 1) + M, at
    the signed offsets -b_M..b_M, with the misses delta_j = (xh[j] - a_i)
    -+ b_r for j = c_i +- r < len(xh) and a bound mu on the error of every
    step between neighbouring points a_i +- b_r of that order; see the
    module docstring."""
    H = len(xh)
    M = math.ceil(math.sqrt(2.0 * H))
    J = math.ceil(math.sqrt(M + 1))
    width = 2 * M + 1
    rows = -(-H // width)
    h = (xh[-1] - xh[0]) / (H - 1)
    b1, b0 = np.arange(0, M + 1, J) * h, np.arange(J) * h
    centre = np.arange(rows) * width + M
    inside = np.minimum(centre, H - 1)
    a = xh[inside] + (centre - inside) * h  # a centre past the half grid is extrapolated
    padded = xh[np.minimum(np.arange(rows * width), H - 1)].reshape(rows, width)
    r = np.arange(M + 1)
    hi, lo = b1[r // J], b0[r % J]
    # x - a is one rounding; the two subtractions after it are exact
    delta = (((padded - a[:, None]) - np.concatenate([-hi[:0:-1], hi]))
             - np.concatenate([-lo[:0:-1], lo])).ravel()[:H]
    # the steps within a row, on either side of a_i, are exact sums of
    # differences of nearby doubles; a step across rows is one rounding of
    # a_{i+1} - a_i, below 2 ulp of xh[-1], followed by exact subtractions
    steps = np.concatenate([np.diff(b0) - h, (np.diff(b1) - b0[-1]) - h,
                            ((np.diff(a) - 2.0 * hi[-1]) - 2.0 * lo[-1]) - h])
    mu = float(np.max(np.abs(steps))) + 4.0 * _EPS * abs(float(xh[-1]))
    return _Rows(a, b1, b0, M, h, delta, mu)


def _slope_bound(p, u, h, delta, mu):
    """B / W, from the relative weights u = w / W: how far delta_j times
    the difference-quotient slope can stray from delta_j dn/dx at any
    point, as a share of W (module docstring)."""
    t = 2.0 * p * h
    near = np.minimum(t, 1.0)
    e = np.where(t < 1.0, near * near / 3.0 * np.exp(2.0 * near), 1.0 + 4.0 / t)
    return float(np.max(np.abs(delta))) * float(np.sum(p * u * (e + 3.0 * mu / h)))


def _fold(mid, side):
    """The (rows, 2M + 1) array with mid - side in columns M + r and
    mid + side in columns M - r, from two (rows, M + 1) arrays whose
    column r = 0 of `side` is zero."""
    M = mid.shape[1] - 1
    out = np.empty((len(mid), 2 * M + 1))
    np.subtract(mid, side, out=out[:, M:])
    np.add(mid[:, :0:-1], side[:, :0:-1], out=out[:, :M])
    return out


def _unit(angle):
    """exp(i angle), from one cosine and one sine per element."""
    z = np.empty(angle.shape, complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    return z


def _contract(p, v, rows: _Rows, with_slope):
    """(osc, slope): sum_k v_k cos(2 p_k (a_i + b)) at the signed offsets
    b = -b_M..b_M as a (len(a), 2M + 1) array by chunked contractions, and
    its x-derivative the same way if `with_slope` (else None)."""
    shape = (len(rows.a), rows.M + 1)
    even, odd = np.zeros(shape), np.zeros(shape)  # E and O: even and odd in b
    if with_slope:
        slope_even, slope_odd = np.zeros(shape), np.zeros(shape)
    # exp(2i p_k b_r) = exp(2i p_k b1[r // J]) exp(2i p_k b0[r % J]), one
    # complex product (4 multiplies, 2 adds) per mode and offset
    table = np.empty((min(_CHUNK, len(p)), len(rows.b1), len(rows.b0)), complex)
    for lo in range(0, len(p), _CHUNK):
        q = 2.0 * p[lo:lo + _CHUNK, None]
        vk = v[lo:lo + _CHUNK, None]
        C, S = np.cos(q * rows.a), np.sin(q * rows.a)
        z = np.multiply(_unit(q * rows.b1)[:, :, None], _unit(q * rows.b0)[:, None, :],
                        out=table[:len(q)])
        z = z.reshape(len(q), -1)[:, :rows.M + 1]
        c, s = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)  # einsum's fast loop
        even += np.einsum("ki,kj->ij", vk * C, c)
        odd += np.einsum("ki,kj->ij", vk * S, s)
        if with_slope:
            gk = q * vk
            slope_even -= np.einsum("ki,kj->ij", gk * S, c)
            slope_odd += np.einsum("ki,kj->ij", gk * C, s)
    return _fold(even, odd), (_fold(slope_even, slope_odd) if with_slope else None)


def _difference_slope(o, h):
    """The slope of values `o` at spacing h (len(o) >= 3): central
    differences inside, second-order one-sided ones at both ends."""
    s = np.empty_like(o)
    s[1:-1] = o[2:] - o[:-2]
    s[0] = 4.0 * o[1] - 3.0 * o[0] - o[2]
    s[-1] = 3.0 * o[-1] - 4.0 * o[-2] + o[-3]
    s /= 2.0 * h
    return s


def _thermal_half(p, w, odd, xh):
    """sum_k w_k phi_k(x)^2 on the half grid `xh` (x >= 0, increasing) by
    anchor/offset contractions; see the module docstring."""
    H = len(xh)
    rows = _split(xh)
    v = np.where(odd, -0.5, 0.5) * w
    W = float(np.sum(w))
    contract_slope = W > 0.0 and _slope_bound(p, w / W, rows.h, rows.delta, rows.mu) > _EPS
    osc, slope = _contract(p, v, rows, contract_slope)
    o = osc.ravel()[:H]
    slope = slope.ravel()[:H] if contract_slope else _difference_slope(o, rows.h)
    n = 0.5 * W + (o + rows.delta * slope)
    near_node = n < _DIRECT_BELOW * W
    n[near_node] = _mode_sum(p, w, odd, xh[near_node])
    return n


def profile_cutoff(params: ThermoInput, k_max: int | None = None) -> int:
    """The mode cutoff a density profile at `params` sums to: `k_max` if
    given, else `suggest_k_max`'s.  Raises CutoffTooSmall where
    `certified_density_tail` past it exceeds params.cutoff_tol (the density
    solve's own head, `params.k_max`, is usually far shorter)."""
    if k_max is None:
        k_max = suggest_k_max(params.box, params.beta, params.cutoff_tol)
    tail = certified_density_tail(params.box, params.beta, k_max)
    if not tail <= params.cutoff_tol:
        raise CutoffTooSmall(f"certified k_max tail {tail:.3e} exceeds cutoff_tol {params.cutoff_tol:.3e}")
    return k_max


def density_profile(spectrum: SpectrumTable, state: ThermoState, grid_n: int) -> Profile:
    """Mode-sum of occ_k |phi_k|^2 over the modes of `spectrum` on a
    `grid_n`-point symmetric grid, with the occupations the solved state
    gives that table (`ThermoState.occupations`).  The table must reach a
    certified cutoff (`profile_cutoff`).

    Raises ValidationError where a bound on the density, its value at the
    walls, overflows a float, or where the table is of another box, and
    CutoffTooSmall where it leaves out more than cutoff_tol."""
    if not 64 <= grid_n <= _MAX_GRID_N:
        raise ValidationError(f"grid_n must be in [64, {_MAX_GRID_N}], got {grid_n}")
    occ = state.occupations(spectrum)
    profile_cutoff(state.params, spectrum.k_max)
    K = len(occ)
    x = _symmetric_grid(state.params.box.L, int(grid_n))
    half = x[len(x) // 2:]
    walls = [eigenfunction_eval(spectrum, k, half) for k in (0, 1)]
    # |phi_0| and |phi_1| peak at the wall half[-1] = L/2, and for k >= 2
    # occ_k phi_k^2 <= occ_k (2/L)/(1 - 1/pi) < 3 occ_k/L, so no density
    # on the grid exceeds `peak`; 2 peak leaves room for rounding
    peak = sum(float(w) * float(phi[-1]) * float(phi[-1]) for w, phi in zip(occ, walls))
    peak += 3.0 * state.rho_tilde
    if not 2.0 * peak < math.inf:
        raise ValidationError(f"the density profile overflows a float near the walls "
                              f"(rho = {state.params.rho:g}, L = {state.params.box.L:g})")
    cond = np.zeros_like(half)
    for w, phi in zip(occ, walls):
        cond += w * phi * phi
    thermal = _thermal_half(
        spectrum.wavenumbers[2:K],
        occ[2:] * np.exp(2.0 * spectrum.log_norms[2:K]),
        np.arange(2, K) % 2 == 1,
        half,
    )
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


def write_profile_csv(profile: Profile, path, comment_lines=()) -> None:
    """CSV rows `x,n_total,n_cond,n_thermal` at 17 significant digits.

    Rows j and n-1-j of a mirror-symmetric profile differ only in the sign
    of x, so each block of `csvio.ROWS_PER_PASS` rows of the x > 0 half is
    formatted once, in one kernel pass: where every row of the block it
    mirrors checks out exactly (`_mirror_rows`), its lines, reversed and
    negated, are that block's bytes, and otherwise that block is formatted
    itself.  Either way the bytes are those of formatting every row.  The
    x > 0 half comes last in the file, so its bytes wait in a spooled
    temporary file: in memory up to `_SPOOL_BYTES`, on disk past that.
    """
    columns = [np.asarray(c, dtype=float) for c in
               (profile.grid, profile.n_total, profile.n_cond, profile.n_thermal)]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValidationError("profile columns differ in length")

    mirrored = _mirror_rows(columns, n)
    sizes = []  # bytes in `upper` of rows [n - hi, n - lo), per block [lo, hi)
    with open(path, "wb") as fh, tempfile.SpooledTemporaryFile(_SPOOL_BYTES) as upper:
        csvio.write_header(fh, comment_lines, "x,n_total,n_cond,n_thermal")
        for lo in range(0, n // 2, csvio.ROWS_PER_PASS):
            hi = min(lo + csvio.ROWS_PER_PASS, n // 2)
            text = csvio.format_rows(columns, n - hi, n - lo)
            sizes.append(upper.write(text))
            if mirrored[lo:hi].all():
                fh.write(b"-")
                fh.write(b"\n-".join(text.split(b"\n")[-2::-1]))
                fh.write(b"\n")
            else:
                fh.write(csvio.format_rows(columns, lo, hi))
        if n % 2:
            fh.write(csvio.format_rows(columns, n // 2, n // 2 + 1))
        end = upper.tell()
        for size in reversed(sizes):
            end -= size
            upper.seek(end)
            fh.write(upper.read(size))
