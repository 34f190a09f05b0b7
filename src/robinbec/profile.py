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
costs one cosine per mode and point.  Instead, each half-grid point is
split into an anchor plus an offset, x_j = a_i + b_r + delta_j with
a_i = x[i m] (m = ceil(sqrt(half length))), b_r = r h and j = i m + r,
and angle addition

    cos(2p (a + b)) = cos(2p a) cos(2p b) - sin(2p a) sin(2p b)

turns the mode sum over K modes and N/2 points into two (modes x
anchors) by (modes x offsets) contractions, taken in chunks of `_CHUNK`
modes, with about 4 K sqrt(N/2) sines and cosines in place of K N/2.
delta_j = (x_j - a_i) - b_r is the ~1 ulp by which the rounded grid
misses a_i + b_r.  It shifts every mode alike, and next to the walls,
where p x is largest, ignoring it cost up to 2.7e-13 relative; it is
added back to first order as delta_j dn/dx, with
dn/dx = -sum_k 2 p_k v_k sin(2 p_k x) from two more contractions
(sin(2p (a + b)) = sin(2p a) cos(2p b) + cos(2p a) sin(2p b)).
Differencing the contracted values instead was cheaper but missed the
reference by 8.7e-14 at L = 3200, where delta is larger.

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
the x < 0 half is the reversed, negated text of its partner block on the
x > 0 half wherever every row checks out as its exact mirror, and is
formatted itself otherwise, so the bytes never depend on the shortcut.

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

import numpy as np

from .errors import ValidationError
from .spectrum import SpectrumTable, eigenfunction_eval
from .thermo import ThermoState

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz

_CHUNK = 128  # modes per contraction block; keeps the work arrays ~100 kB
_DIRECT_BELOW = 1.0 / 64.0  # n_thermal / W below which a point is summed mode by mode
_ROWS_PER_WRITE = 4096  # CSV rows formatted per string operation
_ROW = "%.17g,%.17g,%.17g,%.17g"
# largest grid: `density_profile` peaks at ~44 bytes per point and
# `write_profile_csv` at ~1.5 MB at any size (tracemalloc, grid_n = 10^6);
# the CSV takes ~82 bytes per row on disk, and its x > 0 half as much again
# in a temporary file while it is written: 0.44 GB, 0.8 GB and 0.4 GB at the limit
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
        phi = np.where(odd[lo:lo + _CHUNK, None], np.sin(px), np.cos(px))
        out += np.einsum("k,kj,kj->j", w[lo:lo + _CHUNK], phi, phi)
    return out


def _thermal_half(p, w, odd, xh):
    """sum_k w_k phi_k(x)^2 on the half grid `xh` (x >= 0, increasing) by
    anchor/offset contractions; see the module docstring."""
    H = len(xh)
    m = math.ceil(math.sqrt(H))
    rows = -(-H // m)
    a = xh[::m]
    b = np.arange(m) * ((xh[-1] - xh[0]) / (H - 1))
    padded = xh[np.minimum(np.arange(rows * m), H - 1)].reshape(rows, m)
    delta = ((padded - a[:, None]) - b).ravel()[:H]
    v = np.where(odd, -0.5, 0.5) * w
    osc = np.zeros((rows, m))  # sum_k v_k cos(2 p_k (a_i + b_r))
    slope = np.zeros((rows, m))  # its x-derivative
    for lo in range(0, len(p), _CHUNK):
        q = 2.0 * p[lo:lo + _CHUNK, None]
        vk = v[lo:lo + _CHUNK, None]
        C, S = np.cos(q * a), np.sin(q * a)
        c, s = np.cos(q * b), np.sin(q * b)
        osc += np.einsum("ki,kj->ij", vk * C, c)
        osc -= np.einsum("ki,kj->ij", vk * S, s)
        gk = q * vk
        slope -= np.einsum("ki,kj->ij", gk * S, c)
        slope -= np.einsum("ki,kj->ij", gk * C, s)
    W = float(np.sum(w))
    n = 0.5 * W + (osc.ravel()[:H] + delta * slope.ravel()[:H])
    near_node = n < _DIRECT_BELOW * W
    n[near_node] = _mode_sum(p, w, odd, xh[near_node])
    return n


def density_profile(spectrum: SpectrumTable, state: ThermoState, grid_n: int) -> Profile:
    """Mode-sum of occ_k |phi_k|^2 on a `grid_n`-point symmetric grid."""
    if not 64 <= grid_n <= _MAX_GRID_N:
        raise ValidationError(f"grid_n must be in [64, {_MAX_GRID_N}], got {grid_n}")
    if spectrum.params != state.params.box:
        raise ValidationError("spectrum and state describe different boxes")
    occ = np.asarray(state.occ, dtype=float)
    K = len(occ)
    if spectrum.k_max + 1 < K:
        raise ValidationError("spectrum table does not cover all occupied modes")
    x = _symmetric_grid(state.params.box.L, int(grid_n))
    half = x[len(x) // 2:]
    cond = np.zeros_like(half)
    for k, w in enumerate(occ[:2]):
        phi = eigenfunction_eval(spectrum.modes[k], spectrum.params, half)
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


def _format_rows(columns, lo, hi) -> str:
    """Rows lo..hi-1 of `columns` as `%.17g` CSV lines joined by newlines
    (no final one)."""
    block = np.column_stack([c[lo:hi] for c in columns])
    return "\n".join((_ROW,) * (hi - lo)) % tuple(block.ravel().tolist())


def _mirrors(columns, lo, hi, n) -> bool:
    """Whether row lo + i is row n - 1 - lo - i mirrored, for every row of
    [lo, hi): the partner's x > 0 and negated, the densities equal bit for
    bit (-0.0 == 0.0, but the two print differently)."""
    x = columns[0]
    partner = slice(n - 1 - lo, n - 1 - hi, -1)
    if not (np.all(x[partner] > 0.0) and np.array_equal(x[lo:hi], -x[partner])):
        return False
    return all(np.array_equal(c[lo:hi].view(np.int64), c[partner].view(np.int64))
               for c in columns[1:])


def write_profile_csv(profile: Profile, path, comment_lines=()) -> None:
    """CSV rows `x,n_total,n_cond,n_thermal` at 17 significant digits.

    Rows j and n-1-j of a mirror-symmetric profile differ only in the sign
    of x, so each block of the x > 0 half is formatted once: where the
    block it mirrors checks out exactly (`_mirrors`), its lines, reversed
    and negated, are that block's text, and otherwise that block is
    formatted itself.  Either way the bytes are those of formatting every
    row.  The x > 0 half comes last in the file, so its text waits in an
    anonymous temporary file, which keeps memory at one block.
    """
    columns = [np.asarray(c, dtype=float) for c in
               (profile.grid, profile.n_total, profile.n_cond, profile.n_thermal)]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValidationError("profile columns differ in length")
    sizes = []  # bytes in `upper` of rows [n - hi, n - lo), per block [lo, hi)
    with open(path, "w", newline="\n") as fh, tempfile.TemporaryFile() as upper:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write("x,n_total,n_cond,n_thermal\n")
        for lo in range(0, n // 2, _ROWS_PER_WRITE):
            hi = min(lo + _ROWS_PER_WRITE, n // 2)
            text = _format_rows(columns, n - hi, n - lo)
            sizes.append(upper.write(text.encode("ascii")))
            if _mirrors(columns, lo, hi, n):
                fh.write("-" + "\n-".join(reversed(text.split("\n"))) + "\n")
            else:
                fh.write(_format_rows(columns, lo, hi) + "\n")
        if n % 2:
            fh.write(_format_rows(columns, n // 2, n // 2 + 1) + "\n")
        end = upper.tell()
        for size in reversed(sizes):
            end -= size
            upper.seek(end)
            fh.write(upper.read(size).decode("ascii") + "\n")
