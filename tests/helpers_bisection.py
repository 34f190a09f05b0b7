"""Bisection reference for the k >= 2 Robin roots.

The package solves the k >= 2 modes by Newton on the phase form
p*L + 2*arctan(s/p) = k*pi.  This module keeps the earlier solver as an
independent check: every bracket ((k-1)*pi/L, k*pi/L) is bisected on the
raw trig conditions to 1e-13 relative width and finished with one guarded
Newton step, all brackets at once as numpy arrays.
"""

import math

import numpy as np

from robinbec.spectrum import BracketFailure


def bracketed_roots(f, df, lo, hi, rtol=1e-13):
    """Root of f(., i) on every bracket [lo[i], hi[i]] at once.

    `f(x, i)` and `df(x, i)` evaluate the residuals of brackets `i` (an
    index array) at the points `x`.  Each bracket is bisected until its
    width is at most `rtol` relative, then takes one Newton step from the
    midpoint, kept only if it stays in the bracket and lowers |f|.
    """
    every = np.arange(len(lo))
    flo, fhi = f(lo, every), f(hi, every)
    bad = np.flatnonzero((flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) == (fhi > 0.0)))
    if bad.size:
        i = bad[0]
        raise BracketFailure(
            f"no sign change on [{float(lo[i])!r}, {float(hi[i])!r}]: "
            f"f(lo)={float(flo[i])!r}, f(hi)={float(fhi[i])!r}"
        )
    root = np.where(flo == 0.0, lo, hi)
    a, b = lo.copy(), hi.copy()
    # open brackets: index i, ends (aa, bb), residual fbb at bb
    i = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    aa, bb, fbb = a[i], b[i], fhi[i]
    stopped = []
    while i.size:
        mid = 0.5 * (aa + bb)
        go = ((bb - aa) > rtol * np.maximum(np.abs(aa), np.abs(bb))) & (aa < mid) & (mid < bb)
        if not go.all():
            end = ~go
            a[i[end]], b[i[end]] = aa[end], bb[end]
            stopped.append(i[end])
            i, aa, bb, fbb, mid = i[go], aa[go], bb[go], fbb[go], mid[go]
            if not i.size:
                break
        fm = f(mid, i)
        hit = fm == 0.0
        if hit.any():
            root[i[hit]] = mid[hit]
            keep = ~hit
            i, aa, bb, fbb, mid, fm = i[keep], aa[keep], bb[keep], fbb[keep], mid[keep], fm[keep]
        right = (fm > 0.0) == (fbb > 0.0)
        aa = np.where(right, aa, mid)
        bb = np.where(right, mid, bb)
        fbb = np.where(right, fm, fbb)
    i = np.concatenate(stopped) if stopped else np.zeros(0, dtype=int)
    ai, bi = a[i], b[i]
    x = 0.5 * (ai + bi)
    root[i] = x
    fx, d = f(x, i), df(x, i)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = x - fx / d
    inside = np.flatnonzero((d != 0.0) & np.isfinite(d) & (ai <= y) & (y <= bi))
    keep = np.abs(f(y[inside], i[inside])) <= np.abs(fx[inside])
    root[i[inside[keep]]] = y[inside[keep]]
    return root


def bisection_ladder(sigma, L, k_max):
    """Wavenumbers p of the modes k = 2..k_max from the trig conditions
    p*sin(pL/2) + s*cos(pL/2) = 0 (even k) and p*cos(pL/2) - s*sin(pL/2) = 0
    (odd k), with s = -sigma."""
    s, half = -sigma, 0.5 * L
    k = np.arange(2, k_max + 1)
    even = k % 2 == 0

    def f(p, i):
        sn, cs = np.sin(half * p), np.cos(half * p)
        return np.where(even[i], p * sn + s * cs, p * cs - s * sn)

    def df(p, i):
        sn, cs = np.sin(half * p), np.cos(half * p)
        return np.where(even[i], sn + p * half * cs - s * half * sn,
                        cs - p * half * sn - s * half * cs)

    return bracketed_roots(f, df, (k - 1) * math.pi / L, k * math.pi / L)
