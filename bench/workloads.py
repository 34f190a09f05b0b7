"""Seeded generators for the benchmark workloads.

Each workload is a *deck*: a fixed list of robinbec argv lists drawn from
the seed.  The closed loop runs whole decks, so every run of a seed does
the same work per deck and the per-op counters repeat exactly.

Parameters are stratified samples: every parameter range is cut into as
many strata as the deck has ops and each stratum is used once, at a draw
from the middle STRATUM_SPREAD of the stratum.  The parameters that set
an op's cost (sigma and beta set the mode count of a sweep, L the profile
grid) take their strata in one shared order, so op i of every seed's deck
combines the same strata.  That keeps the cost of each op, and with it
throughput and median latency, nearly the same for every seed, while the
seed still changes every input, the order of the ops and the pairing of
the other parameters.  Why each workload was chosen is recorded in
BENCHMARK.json.

The physics needed to stay in valid regimes (rho_c, eps(0)) is computed
here independently of the package, so inputs never depend on the code
under test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep-scf", "oracle-checks", "profile-dense")

# Ops per deck.  A run repeats its deck, and an op's latency is the median
# of its repeats, so a deck is small enough to be repeated >= 8 times in a
# 30 s run.
DECK_SIZE = {"sweep-scf": 4, "oracle-checks": 48, "profile-dense": 8}
STRATUM_SPREAD = 0.1

SWEEP_GRID = "50:12800:geometric:5"
SWEEP_GRID_TINY = "50:800:geometric:5"
PROFILE_POINTS_PER_L = 40
PROFILE_FRACTION = 0.9
MIN_POINTS_PER_WAVELENGTH = 40.0
ORACLE_CHECKS = ("exchange", "wall-occupation", "moment-inequality", "occupation-bound")


def critical_density(beta: float, sigma: float) -> float:
    """rho_c = sum_{n>=1} e^{-n beta sigma^2} / (2 sqrt(pi n beta))."""
    a = beta * sigma * sigma
    total, n = 0.0, 1
    while True:
        term = math.exp(-n * a) / (2.0 * math.sqrt(math.pi * n * beta))
        total += term
        if term < 1e-17 * total * -math.expm1(-a):
            return total
        n += 1


def ground_energy(sigma: float, L: float) -> float:
    """eps(0) = -q^2 with q tanh(qL/2) = |sigma|, by bisection on [s, s/tanh(sL/2)]."""
    s = -sigma
    lo, hi = s, s / math.tanh(0.5 * s * L)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.tanh(0.5 * mid * L) < s:
            lo = mid
        else:
            hi = mid
    return -(0.5 * (lo + hi)) ** 2


def _order(rng: random.Random, n: int) -> list[int]:
    """A shuffled order of n strata."""
    cells = list(range(n))
    rng.shuffle(cells)
    return cells


def _strata(rng: random.Random, cells: list[int], lo: float, hi: float) -> list[float]:
    """One draw in each of len(cells) equal strata of [lo, hi], taken in the
    order `cells`, uniform on the middle STRATUM_SPREAD of the stratum."""
    n = len(cells)
    return [lo + (hi - lo) * (c + 0.5 + STRATUM_SPREAD * (rng.random() - 0.5)) / n
            for c in cells]


def _num(x: float) -> str:
    # '=' form so argparse does not read a negative value as a flag
    return repr(float(x))


def _sweep_deck(rng, n, tiny):
    cost = _order(rng, n)
    sigmas = _strata(rng, cost, -1.5, -0.5)
    betas = _strata(rng, cost, 0.5, 2.0)
    lams = [1.0 - u for u in _strata(rng, _order(rng, n), 0.0, 1.0)]  # (0, 1]
    excess = _strata(rng, _order(rng, n), 0.2, 1.0)
    grid = SWEEP_GRID_TINY if tiny else SWEEP_GRID
    ops = []
    for sigma, beta, lam, f in zip(sigmas, betas, lams, excess):
        rho = critical_density(beta, sigma) * (1.0 + f)
        params = {"sigma": sigma, "beta": beta, "lam": lam, "rho": rho, "L_grid": grid}
        argv = [
            "sweep", "--model", "scf", f"--sigma={_num(sigma)}", f"--beta={_num(beta)}",
            f"--rho={_num(rho)}", f"--lambda={_num(lam)}", "--L-grid", grid,
        ]
        ops.append({"kind": "sweep", "argv": argv, "params": params})
    return ops


def _oracle_deck(rng, n, tiny):
    # Fixed shares: a quarter of the deck per check, exchange split evenly
    # into wall pairs and excited pairs.  The checks run 1 to 4 DP passes,
    # so each group gets its own strata; otherwise the seed would decide
    # which check draws the large k_top values and move the median.
    quarter = n // 4
    groups = [("exchange", "wall", quarter // 2), ("exchange", "excited", quarter - quarter // 2)]
    groups += [(check, None, quarter) for check in ORACLE_CHECKS[1:]]
    ops = []
    for check, pair, m in groups:
        # every parameter but lambda moves the DP caps or the mode count
        cost = _order(rng, m)
        sigmas = _strata(rng, cost, -1.5, -1.0)
        betas = _strata(rng, cost, 1.0, 2.0)
        Ls = _strata(rng, cost, 10.0, 40.0)
        k_tops = [int(k) for k in _strata(rng, cost, *((10, 21) if tiny else (60, 201)))]
        lams = _strata(rng, _order(rng, m), 0.0, 1.0)
        deltas = _strata(rng, cost, 0.05, 0.2)
        for sigma, beta, L, k_top, lam, delta in zip(sigmas, betas, Ls, k_tops, lams, deltas):
            ops.append(_oracle_op(rng, check, pair, sigma, beta, L, k_top, lam, delta))
    rng.shuffle(ops)
    return ops


def _oracle_op(rng, check, pair, sigma, beta, L, k_top, lam, delta):
    mu = ground_energy(sigma, L) - delta
    # c_k = beta (eps_k - eps_0 - lam/(2L)) > 0 for every k >= 2 because
    # eps_k - eps_0 > sigma^2 >= 1 > lam / (2L).
    if not sigma * sigma > lam / (2.0 * L):
        raise ValueError("occupation-bound exponent would not be positive")
    argv = [
        "oracle", "--check", check, f"--sigma={_num(sigma)}", f"--L={_num(L)}",
        f"--beta={_num(beta)}", f"--mu={_num(mu)}", f"--lambda={_num(lam)}",
        "--k-top", str(k_top),
    ]
    params = {"check": check, "sigma": sigma, "L": L, "beta": beta, "mu": mu,
              "lam": lam, "k_top": k_top}
    if check == "exchange":
        # j and k1 from the same sector: a mixed wall/excited pair at
        # lam > 0 fails the identity by design.  An excited pair has
        # j < k1: the oracle's pass test bounds the residual by the tail
        # budget alone, but the lhs carries the factor e^{beta (eps_j -
        # eps_k1)}, so for j > k1 the truncation error is multiplied by up
        # to ~1e6 and the test fails although the identity holds (e.g.
        # j=10, k1=4 at L=10.5: residual 1.6e-10, allowed 4e-13).  The
        # wall pair is degenerate to e^{-|sigma| L}, so either order holds.
        params["pair"] = pair
        if pair == "wall":
            j = rng.randrange(2)
            k1 = 1 - j
        else:
            j, k1 = sorted(rng.sample(range(2, 11), 2))
        argv += ["--j", str(j), "--target", f"{k1}:{rng.randint(1, 2)}"]
    elif check == "wall-occupation":
        argv += ["--mode", str(rng.randrange(2))]
    elif check == "moment-inequality":
        argv += ["--mode", str(rng.randint(2, 10)), "--power", str(rng.randint(0, 2))]
    else:
        argv += ["--mode", str(rng.randint(2, 10))]
    return {"kind": "oracle", "argv": argv, "params": params}


def _profile_deck(rng, n, tiny):
    cost = _order(rng, n)
    sigmas = _strata(rng, cost, -1.5, -0.5)
    # beta >= 1 keeps k_max <= ~1.5 L, so 40 points per unit length give
    # >= 40 points per wavelength of the top mode.
    betas = _strata(rng, cost, 1.0, 2.0)
    Ls = _strata(rng, cost, *((50.0, 100.0) if tiny else (200.0, 800.0)))
    excess = _strata(rng, _order(rng, n), 0.2, 1.0)
    ops = []
    for sigma, beta, L, f in zip(sigmas, betas, Ls, excess):
        rho = critical_density(beta, sigma) * (1.0 + f)
        grid_n = int(PROFILE_POINTS_PER_L * L) + 1
        params = {"sigma": sigma, "beta": beta, "L": L, "rho": rho, "grid_n": grid_n}
        argv = [
            "profile", "--model", "free", f"--sigma={_num(sigma)}", f"--L={_num(L)}",
            f"--beta={_num(beta)}", f"--rho={_num(rho)}", "--grid-n", str(grid_n),
            "--fraction", str(PROFILE_FRACTION),
        ]
        ops.append({"kind": "profile", "argv": argv, "params": params})
    return ops


_DECKS = {"sweep-scf": _sweep_deck, "oracle-checks": _oracle_deck, "profile-dense": _profile_deck}


def make_deck(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The seeded op list of one workload; the same seed gives the same deck."""
    rng = random.Random(f"{workload}:{seed}")
    n = DECK_SIZE[workload] // 4 if tiny else DECK_SIZE[workload]
    return _DECKS[workload](rng, n, tiny)


def make_warmup(workload: str, seed: int) -> dict:
    """A small op of the workload's command, run once per fresh interpreter
    before timing so that lazy imports and first-call costs land in set-up."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    return _DECKS[workload](rng, 4, True)[0]
