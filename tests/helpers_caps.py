"""Per-mode reference for the Gibbs-oracle wall-cap search.

`make_truncation` grows both wall caps as one numpy array.  This module
keeps the scalar search as an independent check: for each mode on its
own, the weight-only estimate x^(M+1) <= target and then growth by
1 + M // 8 while the cubic moment tail 6 (M + 2)^3 x^(M+1) / (1 - x)^3
exceeds the target, all in `math` scalars.
"""

import math


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
