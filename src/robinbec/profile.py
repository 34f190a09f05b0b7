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

Its rows are the bytes of CPython's `'%.17g' % v`, made by a numpy
kernel (`_format_rows`).  For a finite v != 0 with X = floor(log10 |v|),
the scaled value S = |v| 10^(16 - X) lies in [1e16, 1e17) when X is the
decimal exponent, and the 17 digits are S rounded to nearest.  A table
built on first use from Python integers holds 10^(16 - X) as
(hi + lo) 2^e with hi in [1/2, 1], to 2^-108 absolute.  u = |v| 2^e is
exact, subnormal v included; Dekker's product (hi split by Veltkamp)
gives u hi = p + r exactly, and r += u lo.  With S < 2^57 and u <= 2S
this leaves |p + r - S| < 2^-47, and the digits are p + floor(r), plus
one where frac(r) > 1/2.  A cell goes to `'%'` instead (`_printf`) where
that rounding is not certified: v is inf or nan, p + r lies outside
[1e16, 1e17) (log10 is off by one next to a power of ten) or rounds up
to 1e17, or frac(r) is within `_TIE_MARGIN` = 2^-36 (2^11 times the
bound) of 1/2, which covers the exact ties that `'%'` breaks to even.
On the benchmark decks no cell does.  The text is laid out in 48-byte
slots of six little-endian words: the sign and the "0.000" prefix of
1e-4 <= |v| < 1; the 17 digits in the even bytes of four words (a
4-digit lookup per word) with '.' in every odd byte, masked to the
digits kept (trailing zeros dropped, those before the point kept) and
to the one point; then "e+XX" or "e-XXX" and the separator.  Every
unused byte is zero, and one `bytes.translate` drops them.  A pass runs
over `_ROWS_PER_PASS` rows: ~25 work arrays of 32 kB and 192 kB of
slots, and a 4096-row block peaks at ~0.9 MB (tracemalloc).

`localization_radius` quantifies the surface character of the wall-mode
density: the smallest distance d from a wall such that the windows within
d of either wall hold a requested fraction of the condensate mass.  For
wall-hugging profiles it stays O(1/|sigma|) while the total condensate
number grows linearly in L.
"""

from __future__ import annotations

import functools
import math
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .spectrum import SpectrumTable, eigenfunction_eval
from .thermo import ThermoState

_trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz

_CHUNK = 128  # modes per contraction block; keeps the work arrays ~100 kB
_DIRECT_BELOW = 1.0 / 64.0  # n_thermal / W below which a point is summed mode by mode
_ROWS_PER_WRITE = 4096  # CSV rows per block of the writer (and per mirror check)
_ROWS_PER_PASS = 1024  # rows per pass of the %.17g kernel; see `_format_rows`
# largest grid: `density_profile` peaks at ~44 bytes per point and
# `write_profile_csv` at ~1.4 MB at any size, ~0.9 MB of it one block's
# formatting (tracemalloc, grid_n = 2^17 + 1 and 10^6);
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


_X_MIN, _X_MAX = -324, 308  # decimal exponents of doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_TIE_MARGIN = 2.0 ** -36  # fractional parts this close to 1/2 go to `_printf`
_WORDS = 6  # little-endian words in the 48-byte text slot of a cell
_U64 = np.dtype("<u8")


class _Tables(NamedTuple):
    """Lookup tables of the `%.17g` kernel; see the module docstring."""

    pow_hi: np.ndarray  # 10^(16 - X) = (pow_hi + pow_lo) 2^pow_shift, by X - _X_MIN
    pow_hi_hi: np.ndarray  # pow_hi split into two 26-bit halves
    pow_hi_lo: np.ndarray
    pow_lo: np.ndarray
    pow_shift: np.ndarray
    exp_word: np.ndarray  # "e+XX" / "e-XXX" in bytes 0-4, or 0 for fixed notation
    prefix_word: np.ndarray  # "0." and the zeros of 1e-4 <= |v| < 1 in bytes 1-5
    int_digits: np.ndarray  # digits that fixed notation keeps before the point
    dot_after: np.ndarray  # the point follows digit dot_after - 1 (0: no point there)
    lead_word: np.ndarray  # by 2 d0 + point: d0 in byte 6 and the point in byte 7
    digit_word: np.ndarray  # by a 4-digit group: digits in the even bytes, '.' in the odd
    sig: tuple  # by group w = 1..4: significant digits up to its last nonzero one
    masks: tuple  # by group w = 1..4, by 18 kept + point: the bytes that stay


def _word(text: str, at: int = 0) -> int:
    """`text` as the bytes at..at + len - 1 of a little-endian word."""
    return int.from_bytes(text.encode("ascii"), "little") << 8 * at


@functools.cache
def _tables() -> _Tables:
    """The kernel's tables, built on first use from Python integers (~3 ms)."""
    hi, lo, shift = [], [], []
    tens = [1]
    while len(tens) <= max(16 - _X_MIN, _X_MAX - 16):
        tens.append(10 * tens[-1])
    for X in range(_X_MIN, _X_MAX + 1):
        num, den = (tens[16 - X], 1) if X <= 16 else (1, tens[X - 16])
        e = num.bit_length() - den.bit_length()
        if (num >= den << e) if e >= 0 else (num << -e >= den):
            e += 1  # now 2^(e-1) <= num / den < 2^e
        top, bottom = num << max(0, 53 - e), den << max(0, e - 53)
        q = (2 * top + bottom) // (2 * bottom)  # num / den 2^(53 - e), rounded
        hi.append(q / 2.0 ** 53)
        lo.append((top - q * bottom) / (bottom << 53))  # int / int rounds correctly
        shift.append(e)
    pow_hi = np.array(hi)
    c = _SPLIT * pow_hi
    pow_hi_hi = c - (c - pow_hi)
    X = np.arange(_X_MIN, _X_MAX + 1)
    fixed = (X >= -4) & (X <= 16)
    exp_word = [0 if f else _word("e%+03d" % x) for x, f in zip(X.tolist(), fixed.tolist())]
    prefix = [_word("0." + "0" * (-x - 1), 1) if -4 <= x < 0 else 0 for x in X.tolist()]
    groups = np.arange(10000)
    digits = [groups // 10 ** (3 - i) % 10 for i in range(4)]
    last = np.zeros(10000, np.uint8)  # last nonzero digit of a group, 1..4, or 0
    for i, d in enumerate(digits):
        last[d != 0] = i + 1
    # group w holds digits 4w - 3..4w in its even bytes; it keeps those
    # below `kept` and, if the point follows one of them (digit at - 1),
    # that digit's odd byte
    kept, at = np.arange(18)[:, None], np.arange(18)[None, :]
    even = np.array([0, 0xFF, 0xFF00FF, 0xFF00FF00FF, 0xFF00FF00FF00FF], _U64)
    odd = np.array([0xFF << 16 * r + 8 for r in range(4)] + [0], _U64)
    masks = tuple((even[np.clip(kept - 4 * w + 3, 0, 4)]
                   | odd[np.where((at >= 4 * w - 2) & (at <= 4 * w + 1), at - 4 * w + 2, 4)]
                   ).ravel() for w in range(1, 5))
    return _Tables(
        pow_hi=pow_hi, pow_hi_hi=pow_hi_hi, pow_hi_lo=pow_hi - pow_hi_hi,
        pow_lo=np.array(lo), pow_shift=np.array(shift, np.int32),
        exp_word=np.array(exp_word, _U64), prefix_word=np.array(prefix, _U64),
        int_digits=np.where(fixed & (X >= 0), X + 1, 0).astype(np.uint8),
        dot_after=np.where(fixed, np.maximum(X + 1, 0), 1).astype(np.uint8),
        lead_word=np.array([_word(str(d) + "." * dot, 6) for d in range(10) for dot in (0, 1)],
                           _U64),
        digit_word=sum((d + 48).astype(_U64) << np.uint64(16 * i) for i, d in enumerate(digits))
        | np.uint64(_word(".", 1) * 0x0001000100010001),
        sig=tuple(np.where(last > 0, last + (4 * w - 3), 0).astype(np.uint8) for w in range(1, 5)),
        masks=masks,
    )


def _printf(value: float) -> bytes:
    """One cell the vector kernel does not certify, formatted by CPython."""
    return b"%.17g" % value


def _round17(a: np.ndarray):
    """(digits, xi, ok) for finite a > 0: `digits` (int64) holds the 17
    significant digits of each a rounded to nearest, a ~ digits 10^(X - 16)
    with X = xi + _X_MIN, and `ok` is False where that rounding is not
    certified (see the module docstring)."""
    t = _tables()
    xi = np.log10(a)
    np.floor(xi, out=xi)
    xi = xi.astype(np.intp)
    xi -= _X_MIN
    # S = a 10^(16 - X) = u (pow_hi + pow_lo) with u = a 2^pow_shift exact;
    # p + r = u pow_hi exactly by Dekker's product, then r += u pow_lo
    u = np.ldexp(a, t.pow_shift.take(xi))
    p = u * t.pow_hi.take(xi)
    c = _SPLIT * u
    u_hi = c - (c - u)
    u_lo = u - u_hi
    hi_hi, hi_lo = t.pow_hi_hi.take(xi), t.pow_hi_lo.take(xi)
    r = u_hi * hi_hi
    r -= p
    r += u_hi * hi_lo
    r += u_lo * hi_hi
    r += u_lo * hi_lo
    r += u * t.pow_lo.take(xi)
    ok = (p - 1e16) + r >= 0.0  # S in [1e16, 1e17): 17 digits at this X
    ok &= (p - 1e17) + r < 0.0
    floor_r = np.floor(r)
    r -= floor_r
    ok &= np.abs(r - 0.5) >= _TIE_MARGIN
    digits = p.astype(np.int64)
    digits += floor_r.astype(np.int64)
    digits += r > 0.5
    ok &= digits < 10 ** 17  # not rounded up into an 18th digit
    return digits, xi, ok


def _cell_words(digits: np.ndarray, xi: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The text slots, (n, `_WORDS`) words, of the cells `digits`
    10^(X - 16) (`_round17`; digits = 0 for a zero) and their signs, with
    zero bytes in every unused place and no separator."""
    t = _tables()
    upper = digits // 10 ** 8
    lower = digits - upper * 10 ** 8
    d0 = upper // 10 ** 8
    upper -= d0 * 10 ** 8
    g1 = upper // 10 ** 4
    g3 = lower // 10 ** 4
    groups = (g1, upper - g1 * 10 ** 4, g3, lower - g3 * 10 ** 4)
    kept = (d0 != 0).view(np.uint8)  # significant digits; a zero keeps none
    for sig, g in zip(t.sig, groups):
        np.maximum(kept, sig.take(g), out=kept)
    np.maximum(kept, t.int_digits.take(xi), out=kept)
    at = t.dot_after.take(xi)
    at *= kept > at  # no point before nothing
    words = np.empty((len(digits), _WORDS), _U64)
    w0 = t.prefix_word.take(xi)
    w0 |= t.lead_word.take(2 * d0 + (at == 1))
    w0 |= negative.view(np.uint8) * np.uint64(ord("-"))
    words[:, 0] = w0
    mask_index = kept.astype(np.intp)
    mask_index *= 18
    mask_index += at
    for w, (masks, g) in enumerate(zip(t.masks, groups), 1):
        word = t.digit_word.take(g)
        word &= masks.take(mask_index)
        words[:, w] = word
    words[:, 5] = t.exp_word.take(xi)
    return words


def _format_pass(block: np.ndarray) -> str:
    """The C-contiguous (rows, columns) `block` as `%.17g` CSV lines joined
    by newlines (no final one); see the module docstring for the method."""
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    special = ~np.isfinite(a)
    a[zero | special] = 1.0
    digits, xi, ok = _round17(a)
    ok &= ~special
    digits[zero | ~ok] = 0  # `_printf` fills the cells not ok
    words = _cell_words(digits, xi, np.signbit(v))
    del digits, xi, a
    cells = words.reshape(block.shape + (_WORDS,))
    cells[:, :-1, 5] |= np.uint64(ord(",") << 40)
    cells[:, -1, 5] |= np.uint64(ord("\n") << 40)
    for i in np.flatnonzero(~ok).tolist():
        words[i, :5] = np.frombuffer(_printf(float(v[i])).ljust(40, b"\0"), _U64)
        words[i, 5] &= np.uint64(0xFF << 40)  # the separator only
    words[-1, 5] ^= np.uint64(ord("\n") << 40)  # no newline after the last line
    text = words.tobytes()
    del words, cells
    return text.translate(None, b"\0").decode("ascii")


def _format_rows(columns, lo, hi) -> str:
    """Rows lo..hi-1 of `columns` as `%.17g` CSV lines joined by newlines
    (no final one).

    The kernel runs over `_ROWS_PER_PASS` rows at a time: its work arrays
    then take 32 kB each, which keeps them in cache and below malloc's
    mmap threshold (4096-row passes took ~60 % longer, most of it in
    page faults on fresh memory).
    """
    return "\n".join(
        _format_pass(np.column_stack([c[i:min(i + _ROWS_PER_PASS, hi)] for c in columns]))
        for i in range(lo, hi, _ROWS_PER_PASS))


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
