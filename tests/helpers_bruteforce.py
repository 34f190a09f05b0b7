"""Independent oracles for the test suite.

Everything here enumerates occupation configurations directly (plain
Python floats, math.fsum), with no convolution tricks shared with the
package implementation, so agreement is meaningful.
"""

import itertools
import math


def polyval(coeffs, n):
    return sum(c * n**i for i, c in enumerate(coeffs))


def enum_constrained_z(eps_excited, beta, caps_excited):
    """z[ntil] by full enumeration over the k >= 2 modes."""
    out = [[] for _ in range(sum(caps_excited) + 1)]
    for cfg in itertools.product(*(range(c + 1) for c in caps_excited)):
        energy = sum(e * n for e, n in zip(eps_excited, cfg))
        out[sum(cfg)].append(math.exp(-beta * energy))
    return [math.fsum(terms) for terms in out]


def enum_expectation(eps, beta, mu, lam, L, caps, factors, ntilde_poly=None, window=None):
    """Expectation by full joint enumeration over ALL modes 0..K.

    `factors` maps mode index -> polynomial coefficients (low -> high).
    With a `window`, only configurations with ntil <= window count.
    """
    num, den = [], []
    for cfg in itertools.product(*(range(c + 1) for c in caps)):
        ntil = sum(cfg[2:])
        if window is not None and ntil > window:
            continue
        energy = sum(e * n for e, n in zip(eps, cfg)) + 0.5 * lam * ntil * ntil / L
        w = math.exp(-beta * (energy - mu * sum(cfg)))
        f = 1.0
        for k, poly in factors.items():
            f *= polyval(poly, cfg[k])
        if ntilde_poly is not None:
            f *= polyval(ntilde_poly, ntil)
        num.append(w * f)
        den.append(w)
    return math.fsum(num) / math.fsum(den)


def enum_expectation_split(eps, beta, mu, lam, L, caps, factors, ntilde_poly=None, window=None):
    """Expectation with the wall modes summed as independent 1-D series
    and the k >= 2 modes enumerated jointly (only ntil <= window with a
    `window`).  Valid because the coupling term involves only ntil; lets
    tests reach wall caps far beyond what full joint enumeration could."""
    wall = 1.0
    for k in (0, 1):
        terms_n, terms_d = [], []
        poly = factors.get(k)
        for n in range(caps[k] + 1):
            w = math.exp(-beta * (eps[k] - mu) * n)
            terms_d.append(w)
            terms_n.append(w * (polyval(poly, n) if poly is not None else 1.0))
        wall *= math.fsum(terms_n) / math.fsum(terms_d)
    num, den = [], []
    for cfg in itertools.product(*(range(c + 1) for c in caps[2:])):
        ntil = sum(cfg)
        if window is not None and ntil > window:
            continue
        energy = sum(e * n for e, n in zip(eps[2:], cfg)) + 0.5 * lam * ntil * ntil / L
        w = math.exp(-beta * (energy - mu * ntil))
        f = 1.0
        for k, poly in factors.items():
            if k >= 2:
                f *= polyval(poly, cfg[k - 2])
        if ntilde_poly is not None:
            f *= polyval(ntilde_poly, ntil)
        num.append(w * f)
        den.append(w)
    return wall * math.fsum(num) / math.fsum(den)
