"""CSV tables: the one number format of every table robinbec writes.

The spectrum, sweep and profile CSVs each start with `# ...` comment
lines and a column-header line (`write_header`), followed by rows whose
numbers are the bytes of CPython's `'%.17g' % v`.  Every row is made by
one numpy kernel (`_format_pass`), `ROWS_PER_PASS` rows per pass
(`format_rows`, and `write_rows` for a whole table).  The spectrum's
`parity` text column is the one non-number: a pass takes an optional
word per row that replaces the ',' after column 0 (`",even,"` or
`",odd,"`).

For a finite v != 0 with X = floor(log10 |v|), the scaled value
S = |v| 10^(16 - X) lies in [1e16, 1e17) when X is the decimal exponent,
and the 17 digits are S rounded to nearest.  A table built on first use
from Python integers holds 10^(16 - X) as (hi + lo) 2^e with hi in
[1/2, 1], to 2^-108 absolute.  u = |v| 2^e is exact, subnormal v
included; Dekker's product (Numer. Math. 18 (1971) 224-242; hi split by
Veltkamp) gives u hi = p + r exactly, and r += u lo.  With S < 2^57 and
u <= 2S this leaves |p + r - S| < 2^-47, and the digits are p + floor(r),
plus one where frac(r) > 1/2.  A cell goes to `'%'` instead (`_printf`)
where that rounding is not certified: v is inf or nan, p + r lies outside
[1e16, 1e17) (log10 is off by one next to a power of ten) or rounds up
to 1e17, or frac(r) is within `_TIE_MARGIN` = 2^-36 (2^11 times the
bound) of 1/2, which covers the exact ties that `'%'` breaks to even.
On the benchmark decks no cell does.  The text is laid out in 48-byte
slots of six little-endian words: the sign and the "0.000" prefix of
1e-4 <= |v| < 1; the 17 digits in the even bytes of four words (a
4-digit lookup per word) with '.' in every odd byte, masked to the
digits kept (trailing zeros dropped, those before the point kept) and
to the one point; then "e+XX" or "e-XXX" in bytes 0-4 of the last word
and the separator in its byte 5.  A value in fixed notation (1e-4 <= |v|
< 1e17, or 0) leaves bytes 0-4 of that word free, so the word after
column 0 may be replaced whole, by up to six bytes.  Every unused byte
is zero, and one `bytes.translate` drops them.  One block of
`ROWS_PER_PASS` rows is one pass: ~25 work arrays of 32 kB and 192 kB
of slots, ~0.65 MB at its peak (tracemalloc, four columns).  That keeps
the arrays in cache and below malloc's mmap threshold; 4096-row passes
took ~60 % longer, most of it in page faults on fresh memory.

The module needs numpy only, so every writer (`spectrum`, `thermo`,
`profile`) can import it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

ROWS_PER_PASS = 1024  # CSV rows per kernel pass; see the module docstring
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


def _format_pass(block: np.ndarray, after_first=None) -> bytes:
    """The C-contiguous (rows, columns) `block` as `%.17g` CSV lines, each
    ending in a newline; see the module docstring for the method.  Where
    `after_first` (one word per row) is given, it replaces the ',' after
    column 0, whose values must then be in fixed notation (an exponent
    there would be overwritten)."""
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
    for i in np.flatnonzero(~ok).tolist():
        words[i, :5] = np.frombuffer(_printf(float(v[i])).ljust(40, b"\0"), _U64)
        words[i, 5] = 0
    cells = words.reshape(block.shape + (_WORDS,))
    cells[:, :-1, 5] |= np.uint64(ord(",") << 40)
    cells[:, -1, 5] |= np.uint64(ord("\n") << 40)
    if after_first is not None:
        cells[:, 0, 5] = after_first
    text = words.tobytes()
    del words, cells
    return text.translate(None, b"\0")


def separator_words(*texts: str) -> np.ndarray:
    """Each of `texts` (up to six bytes, say ",odd,") as a word that takes
    the place of the ',' after column 0 (`format_rows`)."""
    return np.array([_word(text) for text in texts], _U64)


def format_rows(columns, lo: int, hi: int, after_first=None) -> bytes:
    """Rows lo..hi - 1 of the equal-length `columns` (arrays, or ranges)
    as CSV lines, in one kernel pass (hi - lo <= `ROWS_PER_PASS`).
    `after_first` holds the words (`separator_words`) that follow column 0
    in place of its ',', row i taking after_first[i % len(after_first)]."""
    block = np.column_stack([np.asarray(c[lo:hi], dtype=float) for c in columns])
    if after_first is not None:
        after_first = after_first.take(np.arange(lo, hi) % len(after_first))
    return _format_pass(block, after_first)


def write_header(fh, comment_lines, header: str) -> None:
    """`# line` for each of `comment_lines`, then the column-header line,
    to the binary file `fh`."""
    for line in comment_lines:
        fh.write(f"# {line}\n".encode())
    fh.write(header.encode() + b"\n")


def write_rows(fh, columns, after_first=None) -> None:
    """Every row of the equal-length `columns` to the binary file `fh`,
    one kernel pass per `ROWS_PER_PASS` rows (`format_rows`)."""
    n = len(columns[0])
    for lo in range(0, n, ROWS_PER_PASS):
        fh.write(format_rows(columns, lo, min(lo + ROWS_PER_PASS, n), after_first))
