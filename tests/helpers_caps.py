"""References for the Gibbs-oracle truncation search.

`make_truncation` takes the tails of every wall-cap candidate in one
array evaluation and those of windows 0..63 in another.  This module
keeps two slower searches as independent checks.  `per_mode_caps` runs
each mode on its own: the weight-only estimate x^(M+1) <= target, then
growth by 1 + M // 8 while the cubic moment tail
6 (M + 2)^3 x^(M+1) / (1 - x)^3 exceeds the target, all in `math`
scalars.  `stepwise_truncation` grows both caps step by step, one tail
evaluation per step, and bisects the window one tail at a time.
"""

import bisect
import math

import numpy as np

import robinbec.gibbs_oracle as gibbs_oracle


def moment_tail(logx, cap):
    """6 (cap + 2)^3 x^(cap + 1) / (1 - x)^3 for x = e^logx; inf when x >= 1."""
    if logx >= 0.0:
        return math.inf
    one_minus_x = -math.expm1(logx)
    return 6.0 * (cap + 2.0) ** 3 * math.exp((cap + 1) * logx) / one_minus_x**3


def per_mode_caps(epsilons, beta, mu, target):
    """The cap of every mode for tails <= target, or None for a mode whose
    search needs a cap above 5,000,000."""
    caps = []
    for eps_k in epsilons:
        logx = -beta * (float(eps_k) - mu)
        need = (math.log(target) + math.log(-math.expm1(logx))) / logx - 1.0
        cap = max(1, int(math.ceil(need - 1e-9)))
        while cap <= 5_000_000 and moment_tail(logx, cap) > target:
            cap += 1 + cap // 8
        caps.append(cap if cap <= 5_000_000 else None)
    return caps


def scalar_log_tail_share(t, g, window):
    """log tau_window at the best grid point (t, g) with t (window + 2) >= 4,
    one window at a time; inf where none qualifies."""
    with np.errstate(over="ignore"):
        ok = t * (window + 2) >= 4
        phi = 4 * math.log(window + 2) - t[ok] * (window + 1) + g[ok]
    return float(phi.min()) if ok.any() else math.inf


def stepwise_truncation(table, model, tol):
    """(caps, window, tail_budget) of `make_truncation` by the stepwise
    search: both wall caps as one array, one tail evaluation per growth
    step, and a bisection of the window over `scalar_log_tail_share`; the
    CapOverflow message where a cap or the window is out of range."""
    target = tol / 3.0
    logx = gibbs_oracle._log_ratios(table.epsilons, model)
    wall = logx[:2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        need = (math.log(target) + np.log(-np.expm1(wall))) / wall - 1.0
    caps = np.maximum(1.0, np.ceil(need - 1e-9))
    while (fits := caps <= 5_000_000).all():
        grow = gibbs_oracle._moment_tails(wall, caps) > target
        if not grow.any():
            break
        caps[grow] += 1 + caps[grow] // 8
    else:
        k = int(np.argmin(fits))
        return (f"mode {k} needs a cap above 5000000 to certify tol {tol:.1e}: beta "
                f"(eps_k - mu) = {-wall[k]:.3g} too small (beta = {model.beta:g}, "
                f"mu = {model.mu:g})")
    n_max = gibbs_oracle._max_window(model, len(table.epsilons) - 2)
    t, g = gibbs_oracle._chernoff_grid_of.__wrapped__(logx[2:].tobytes())  # no memo
    window = bisect.bisect_left(range(n_max + 1), True,
                                key=lambda n: scalar_log_tail_share(t, g, n) <= math.log(target))
    if window > n_max:
        return "the k >= 2 window needs more than"
    caps = tuple(int(c) for c in caps)
    tails = tuple(gibbs_oracle._moment_tails(wall, caps).tolist())
    return caps, window, math.fsum(tails + (math.exp(scalar_log_tail_share(t, g, window)),))
