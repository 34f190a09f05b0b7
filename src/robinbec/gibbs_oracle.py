"""Exact grand-canonical expectations on a certified occupation space.

The Hamiltonian is diagonal in the occupation basis of the wall-mode
spectrum,

    H = sum_k eps_k N_k + (lam/2) * Ntil^2 / L,     Ntil = sum_{k>=2} N_k,

so an expectation is a ratio of sums over occupations.  The wall modes
(k = 0, 1) do not enter the coupling and factorize as geometric series,
each summed up to an occupation cap (the capped-Fock part of the model).
Modes k >= 2 couple only through ntil, so their sector reduces to the
canonical partition functions z[n] of n bosons in modes 2..k_top on a
window n = 0..N, reweighted in n by mu and the coupling.  Every term of

    n z[n] = sum_{m=1..n} p_m z[n-m],     p_m = sum_{k>=2} e^{-m beta eps_k}

(Landsberg 1961; Borrmann & Franke, J. Chem. Phys. 98, 2484 (1993)) is
positive, so `constrained_partition` runs it in log space: O(N K)
exponentials, O(N^2) additions.  The configurations with n_k >= a weigh
y_k^a z[n-a], y_k = e^{-beta eps_k}, so a factor f(N_k) turns z[n] into

    f(0) z[n] + sum_{a=1..n} (f(a) - f(a-1)) y_k^a z[n-a],

one window convolution per factored mode, with no negative term when f
is nondecreasing and f(0) >= 0 on 0..N (N^p and (N+1)^p are).

Window tail.  With x_k = e^{-beta (eps_k - mu)}, W[n] = z[n] e^{beta mu n}
sums to prod_{k>=2} 1/(1 - x_k).  For D/(beta (N+2)) <= s < eps_2 - mu
and n > N, (n+1)^D <= (N+2)^D e^{beta s (n-N-1)} (1 + u <= e^u), so
sum_{n>N} (n+1)^D W[n] <= (N+2)^D e^{-beta s (N+1)} sum_n e^{beta s n} W[n]
and the share of the total weight above N is at most

    tau_N = (N+2)^D e^{-beta s (N+1)} prod_{k>=2} (1 - x_k) / (1 - x_k e^{beta s}).

The coupling G[n] = e^{-beta lam n^2/(2L)} does not increase with n and
cannot raise that share: the difference of the two shares times both
totals is sum_{m>N} sum_n (m+1)^D W[m] W[n] (G[n] - G[m]), where a term
with n <= N is >= 0 and the terms (m, n), (n, m) above N add to W[m] W[n]
((m+1)^D - (n+1)^D) (G[n] - G[m]) >= 0.  So for 0 <= f <= (Ntil+1)^D,
|<f> - <f>_N| <= tau_N max(1, <f>_N).  D = _WINDOW_DEGREE = 4 covers
Ntil N_k^3 of the moment inequality, the largest degree a check reaches.

`make_truncation` picks the wall caps and the smallest window whose
tails (`TruncationSpec` computes them) are at most tol/3 each, each
search in one array evaluation of the expression its certificate uses.
Observables are products of polynomial factors in distinct modes, times
an optional polynomial in Ntil.  `_CHECKS` maps each check to its sides
(lhs, rhs) and the relation `run_check` tests within the tail budget.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, ValidationError
from .spectrum import BoxParams, SpectrumTable

_MAX_MODE_CAP = 5_000_000  # wall-mode sums materialize arange(cap + 1)
_ENVELOPE_DEGREE = 3  # the per-mode polynomial degree the wall tails cover
_WINDOW_DEGREE = 4  # the total k >= 2 degree D the window tail covers
# (N + len(_CHERNOFF_R)) (N + K) cells bound the work of a window N over K
# modes k >= 2; at the limit a window took ~1 s (2-core VM, numpy 2.4)
_MAX_WINDOW_CELLS = 100_000_000
_BLOCK_CELLS = 1 << 18  # exponentials materialized at once
# s for tau_N: beta (eps_2 - mu - s) = beta (eps_2 - mu) r on three points
# per octave; measured against the best s, the grid lost at most 4 % of tau_N
_CHERNOFF_R = 2.0 ** (-np.arange(1, 73) / 3.0)
_WINDOW_BLOCK = 64  # windows 0..63 take their tails in one evaluation
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))  # e^c overflows a float beyond it


class CapOverflow(ValidationError):
    """A wall cap or the k >= 2 window exceeds its configured maximum."""


class UnknownMode(ValidationError):
    """Observable references a mode outside the truncation."""


class IndexClash(ValidationError):
    """Exchange-identity mode indices must be distinct."""


class BadMode(ValidationError):
    """Check applied to a mode outside its validity class."""


class NonpositiveGap(ValidationError):
    """Occupation-bound exponent c_k <= 0; the bound is vacuous."""


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature, chemical potential, and coupling for one box.

    lam = 0 is permitted as the free reference gas.  mu < eps(0) is
    required by every operation that sums the wall-mode series; it is
    validated against the actual spectrum at call time, not here.
    """

    box: BoxParams
    beta: float
    mu: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValidationError(f"beta must be finite and > 0, got {self.beta}")
        if not math.isfinite(self.mu):
            raise ValidationError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam}")


def number_poly(power: int) -> tuple[float, ...]:
    """Coefficients (low -> high) of N^power."""
    if power < 0:
        raise ValidationError("power must be >= 0")
    return tuple([0.0] * power + [1.0])


def shifted_number_poly(power: int) -> tuple[float, ...]:
    """Coefficients (low -> high) of (N + 1)^power."""
    if power < 0:
        raise ValidationError("power must be >= 0")
    return tuple(float(math.comb(power, i)) for i in range(power + 1))


@dataclass(frozen=True)
class DiagonalObservable:
    """Product of univariate polynomial factors in distinct mode numbers,
    optionally times a polynomial in Ntil = sum_{k>=2} N_k.

    Factors must be nonnegative on the occupation range, and those of
    modes k >= 2 nondecreasing on the window (all built-in factors N^n
    and (N+1)^n are); `grand_expectation` rejects others.
    """

    factors: tuple[tuple[int, tuple[float, ...]], ...] = ()
    ntilde_poly: tuple[float, ...] | None = None

    def __post_init__(self):
        seen = set()
        for k, poly in self.factors:
            if k < 0:
                raise ValidationError(f"mode index must be >= 0, got {k}")
            if k in seen:
                raise ValidationError(f"mode {k} appears in more than one factor")
            seen.add(k)
            if len(poly) == 0 or not all(math.isfinite(c) for c in poly):
                raise ValidationError("factor coefficients must be finite and nonempty")
        if self.ntilde_poly is not None and (
            len(self.ntilde_poly) == 0
            or not all(math.isfinite(c) for c in self.ntilde_poly)
        ):
            raise ValidationError("ntilde_poly coefficients must be finite and nonempty")

    @classmethod
    def mode_number(cls, k: int, power: int = 1) -> "DiagonalObservable":
        return cls(factors=((k, number_poly(power)),))


@dataclass(frozen=True)
class TruncationSpec:
    """Spectrum prefix, the model, the two wall-mode occupation caps, the
    k >= 2 window N and the tails computed from them, for one box with
    mu <= eps(0) (there the wall tails are inf but cancel out of k >= 2
    sector ratios).

    `per_mode_tail[k]` bounds the effect of capping wall mode k at
    M = caps[k]: the neglected geometric weight under a moment envelope of
    the degree d = _ENVELOPE_DEGREE = 3 that `exchange_identity_sides`
    allows per mode,

        t_k = d! (M + 2)^d x^(M+1) / (1 - x)^d,   x = e^{-beta (eps_k - mu)},

    from sum_{n > M} (n+1)^d x^n <= d! (M+2)^d x^(M+1)/(1-x)^(d+1).
    `window_tail` is tau_N (module docstring) at the best s of
    `_chernoff_grid`, and `tail_budget` the sum of all three.
    """

    table: SpectrumTable
    model: ModelParams
    caps: tuple[int, ...]
    window: int
    per_mode_tail: tuple[float, ...] = field(init=False)
    window_tail: float = field(init=False)
    tail_budget: float = field(init=False)

    def __post_init__(self):
        eps = self.table.epsilons
        if self.table.params != self.model.box:
            raise ValidationError("truncation table and model box must match")
        if self.model.mu > eps[0]:
            raise ValidationError(f"mu must satisfy mu <= eps(0) = {eps[0]}, got {self.model.mu}")
        if len(eps) < 2:
            raise ValidationError("truncation must include both wall modes (k = 0, 1)")
        if not isinstance(self.caps, tuple) or len(self.caps) != 2 or any(
                (not isinstance(c, int)) or c < 1 for c in self.caps):
            raise ValidationError("caps must be a tuple of two integers >= 1, one per wall mode")
        if not isinstance(self.window, int) or self.window < 0:
            raise ValidationError(f"window must be an integer >= 0, got {self.window!r}")
        if self.window > _max_window(self.model, len(eps) - 2):
            raise CapOverflow(
                f"window {self.window} over {len(eps) - 2} modes k >= 2 exceeds "
                f"{_MAX_WINDOW_CELLS} cells (beta = {self.model.beta:g}, mu = {self.model.mu:g})")
        logx = _log_ratios(eps, self.model)
        tails = tuple(_moment_tails(logx[:2], self.caps).tolist())
        window_tail = math.exp(_log_tail_share(*_chernoff_grid(logx), self.window))
        object.__setattr__(self, "per_mode_tail", tails)
        object.__setattr__(self, "window_tail", window_tail)
        object.__setattr__(self, "tail_budget", math.fsum(tails + (window_tail,)))

    @property
    def k_top(self) -> int:
        return len(self.table.epsilons) - 1

    def relevant_budget(self, involved_modes) -> float:
        """Tails of the involved wall modes, plus the window tail if any
        involved mode is k >= 2."""
        budget = sum(self.per_mode_tail[k] for k in involved_modes if k < 2)
        if any(k >= 2 for k in involved_modes):
            budget += self.window_tail
        return budget


def _log_ratios(eps: np.ndarray, model: ModelParams) -> np.ndarray:
    """log x_k = -beta (eps_k - mu) of every mode's geometric weight; a value
    that overflows a float is a ValidationError."""
    with np.errstate(over="ignore"):
        logx = -model.beta * (eps - model.mu)
    if np.isinf(logx).any():
        raise ValidationError(
            f"beta (eps_k - mu) overflows a float (beta = {model.beta:g}, mu = {model.mu:g})")
    return logx


def _moment_tails(logx: np.ndarray, caps) -> np.ndarray:
    """`TruncationSpec.per_mode_tail` for geometric ratios x = e^logx and
    caps M, one entry per mode; inf where x >= 1."""
    d = _ENVELOPE_DEGREE
    m = np.asarray(caps, dtype=float)
    # x = 1 gives inf, replaced below either way; (m + 1) log x = -inf at a
    # huge beta (eps - mu) is the right limit, a tail of 0
    with np.errstate(divide="ignore", over="ignore"):
        tails = math.factorial(d) * (m + 2.0) ** d * np.exp((m + 1.0) * logx) / (
            -np.expm1(logx)) ** d
    return np.where(logx < 0.0, tails, np.inf)


def _row_blocks(rows: int, cols: int):
    """Slices of `rows` whose blocks of rows x cols hold <= _BLOCK_CELLS entries."""
    step = max(1, _BLOCK_CELLS // max(1, cols))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _chernoff_grid(logx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, g) with t = beta s on the grid `_CHERNOFF_R` and g = log
    prod_{k>=2} (1 - x_k)/(1 - x_k e^t), from log x_k of all modes: with
    r = beta (eps_2 - mu) - t, each factor is 1 + (1 - e^{-t}) /
    (e^{r + beta (eps_k - eps_2)} - 1).  t = inf without modes k >= 2.

    One entry is kept, keyed by the bytes of log x_k, k >= 2, so that
    `make_truncation` and the spec it builds share one grid, while any
    other input builds its own; the arrays are read-only."""
    return _chernoff_grid_of(logx[2:].tobytes())


@functools.lru_cache(maxsize=1)
def _chernoff_grid_of(key: bytes) -> tuple[np.ndarray, np.ndarray]:
    a = -np.frombuffer(key)
    if a.size == 0:
        t, g = np.array([np.inf]), np.zeros(1)
    else:
        r = a[0] * _CHERNOFF_R
        t = a[0] - r
        g = np.empty(len(r))
        for rows in _row_blocks(len(r), len(a)):
            with np.errstate(over="ignore"):  # e^{r + d_k} = inf: the factor is 1
                occ = 1.0 / np.expm1(r[rows, None] + (a - a[0]))
            g[rows] = np.log1p(-np.expm1(-t[rows, None]) * occ).sum(axis=1)
    t.flags.writeable = g.flags.writeable = False
    return t, g


def _log_tail_shares(t: np.ndarray, g: np.ndarray, windows) -> np.ndarray:
    """log tau_N for each N of `windows`, at the best grid point (t, g)
    with t (N + 2) >= D; inf where none qualifies."""
    n = np.asarray(windows, dtype=float)[:, None]
    # math.log, not np.log: the two differ in the last bit at a few N, and
    # the window search and the certificate must take the same value
    log_n = np.array([math.log(w + 2) for w in windows])[:, None]
    # t (N + 2) = inf at a huge beta (eps_2 - mu) is the right limit: that
    # t qualifies, and its share e^{-inf} is 0
    with np.errstate(over="ignore"):
        phi = _WINDOW_DEGREE * log_n - t * (n + 1) + g
        return np.where(t * (n + 2) >= _WINDOW_DEGREE, phi, np.inf).min(axis=1)


def _log_tail_share(t: np.ndarray, g: np.ndarray, window: int) -> float:
    """`_log_tail_shares` of one window."""
    return float(_log_tail_shares(t, g, [window])[0])


def _max_window(model: ModelParams, modes: int) -> int:
    """Largest N with (N + len(_CHERNOFF_R)) (N + modes) <= _MAX_WINDOW_CELLS."""
    g = len(_CHERNOFF_R)
    n = (math.isqrt((modes - g) ** 2 + 4 * _MAX_WINDOW_CELLS) - g - modes) // 2
    if n < 0:
        raise CapOverflow(
            f"{modes} modes k >= 2 exceed the window limit of {_MAX_WINDOW_CELLS} cells "
            f"(beta = {model.beta:g}, mu = {model.mu:g})")
    return n


def make_truncation(table: SpectrumTable, model: ModelParams, tol: float = 1e-12) -> TruncationSpec:
    """Choose the two wall caps and the k >= 2 window so that each of the
    three tails is <= tol/3, and certify them as a `TruncationSpec`.

    Each wall cap is the first M of the sequence M0, M0 + 1 + M0 // 8, ...
    whose tail is within the target, where M0 is the weight-only estimate
    x^(M0+1) <= tol/3; one array evaluation takes the tails of both
    sequences, each up to _MAX_MODE_CAP or to a point past which every M
    passes.  The window is the smallest N whose tail is within the target
    (the tail does not increase with N): the first in one evaluation of
    N = 0..63, else by bisection above them.
    A cap above _MAX_MODE_CAP or a window above `_max_window` raises
    CapOverflow.  Needs mu < eps(0).
    """
    eps = table.epsilons
    if model.mu >= eps[0]:
        raise ValidationError(f"mu must satisfy mu < eps(0) = {eps[0]}, got {model.mu}")
    if len(eps) < 2:
        raise ValidationError("truncation must include both wall modes (k = 0, 1)")
    if not (0.0 < tol < 1.0):
        raise ValidationError("tol must be in (0, 1)")
    target = tol / 3.0
    if target == 0.0:
        raise ValidationError(f"tol = {tol:g} is too small: tol/3 underflows a float")
    log_target = math.log(target)
    logx = _log_ratios(eps, model)
    wall = logx[:2]
    # An estimate beyond the float range is inf and has no candidate below
    # _MAX_MODE_CAP.  With c = -log x and u = M + 2, the tail is within
    # target / e once c (u - 1) - 3 log u >= b.  log u <= log(6/c) + c u/6 - 1
    # gives a u past which that holds, and one step u -> 1 + (b + 3 log u)/c
    # keeps it one, so every candidate from `last` on passes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, log_gap = -wall, np.log(-np.expm1(wall))
        need = (log_target + log_gap) / wall - 1.0
        b = math.log(6.0) - log_target + 1.0 - 3.0 * log_gap
        u = 2.0 * (b + c + 3.0 * np.log(6.0 / c) - 3.0) / c
        last = (b + 3.0 * np.log(u)) / c - 1.0
    runs = []
    for m, top in zip(np.maximum(1.0, np.ceil(need - 1e-9)).tolist(), last.tolist()):
        runs.append([])
        while m <= _MAX_MODE_CAP:
            runs[-1].append(m)
            if m >= top:
                break
            m += 1 + m // 8
    n0 = len(runs[0])
    within = (_moment_tails(np.repeat(wall, [n0, len(runs[1])]), np.array(runs[0] + runs[1]))
              <= target).tolist()
    caps = [int(run[ok.index(True)]) if True in ok else None
            for run, ok in zip(runs, (within[:n0], within[n0:]))]
    if None in caps:  # the mode whose sequence leaves the range first
        k = min((k for k in (0, 1) if caps[k] is None), key=lambda k: len(runs[k]))
        raise CapOverflow(
            f"mode {k} needs a cap above {_MAX_MODE_CAP} to certify tol {tol:.1e}: beta "
            f"(eps_k - mu) = {-wall[k]:.3g} too small (beta = {model.beta:g}, mu = {model.mu:g})")
    n_max = _max_window(model, len(eps) - 2)
    t, g = _chernoff_grid(logx)
    block = min(_WINDOW_BLOCK, n_max + 1)
    inside = _log_tail_shares(t, g, range(block)) <= log_target
    if inside.any():
        window = int(inside.argmax())
    else:
        window = block + bisect.bisect_left(range(block, n_max + 1), True,
                                            key=lambda n: _log_tail_share(t, g, n) <= log_target)
    if window > n_max:
        raise CapOverflow(
            f"the k >= 2 window needs more than {n_max} particles over {len(eps) - 2} "
            f"modes to certify tol {tol:.1e} (beta = {model.beta:g}, mu = {model.mu:g})")
    spec = TruncationSpec(table, model, tuple(caps), window)
    if spec.tail_budget > tol:
        raise NumericalFailure("computed tail budget exceeds the requested tolerance")
    return spec


# ----------------------------------------------------------------------
# constrained partition sums
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstrainedZ:
    """log z[n], n = 0..spec.window, of the k >= 2 sector of `spec`."""

    spec: TruncationSpec
    log_z: np.ndarray


def _polyval(coeffs, x):
    """sum_i coeffs[i] x^i (coefficients low -> high) by Horner's rule:
    np.polyval of the reversed coefficients takes the steps, and gives the
    bits, of numpy.polynomial's polyval, without importing numpy.polynomial."""
    return np.polyval(np.asarray(coeffs, dtype=float)[::-1], x)


def _poly_on_range(coeffs, n: np.ndarray) -> np.ndarray:
    vals = _polyval(coeffs, n)
    vals = np.atleast_1d(vals)
    if np.any(vals < 0.0):
        raise ValidationError("observable factor is negative on the occupation range")
    return vals


def _logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """log(sum(b * exp(a))) for weights b >= 0 (all 1 if omitted).

    The shift is the largest `a` among the terms with b > 0, so a term
    that carries no weight cannot set it; -inf when no term counts.
    """
    if b is not None:
        keep = b > 0.0
        a, b = a[keep], b[keep]
    if a.size == 0:
        return -math.inf
    top = float(a.max())
    if top == -math.inf:
        return top
    terms = np.exp(a - top)
    if b is not None:
        terms *= b
    return top + math.log(terms.sum())


def _log_power_sums(beta_eps: np.ndarray, n: int) -> np.ndarray:
    """log p_m = log sum_k e^{-m beta eps_k}, m = 1..n, shifted by the
    smallest (first) beta eps_k."""
    m = np.arange(1, n + 1, dtype=float)
    if beta_eps.size == 0:
        return np.full(n, -np.inf)
    gaps = beta_eps - beta_eps[0]
    out = np.empty(n)
    for rows in _row_blocks(n, len(gaps)):
        out[rows] = np.log(np.exp(-m[rows, None] * gaps).sum(axis=1))
    return out - m * beta_eps[0]


def constrained_partition(spec: TruncationSpec) -> ConstrainedZ:
    """z[n] for n = 0..spec.window by the power-sum recursion, in log space."""
    log_p = _log_power_sums(spec.model.beta * spec.table.epsilons[2:], spec.window)
    log_z = np.zeros(spec.window + 1)
    buf = np.empty(spec.window)
    for n in range(1, spec.window + 1):  # `_logsumexp` of log_p[:n] + log_z[n-1::-1], in place
        terms = np.add(log_p[:n], log_z[n - 1::-1], out=buf[:n])
        top = float(terms.max())
        if top == -math.inf:  # no modes k >= 2: z[n] = 0
            log_z[n] = top
            continue
        np.exp(np.subtract(terms, top, out=terms), out=terms)
        log_z[n] = top + math.log(terms.sum()) - math.log(n)
    return ConstrainedZ(spec=spec, log_z=log_z)


def _log_window_conv(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """log sum_{a=0..n} exp(la[a] + lb[n-a]) for n < len(lb): a log-space
    convolution cut at the window, one shift of lb per a."""
    out = la[0] + lb
    for a in range(1, len(lb)):
        seg = out[a:]
        np.logaddexp(seg, la[a] + lb[: len(lb) - a], out=seg)
    return out


def _wall_mode_ratio(spec: TruncationSpec, k: int, poly) -> float:
    eps_k = float(spec.table.epsilons[k])
    n = np.arange(spec.caps[k] + 1)
    logw = -spec.model.beta * (eps_k - spec.model.mu) * n
    num = _logsumexp(logw, _poly_on_range(poly, n))
    den = _logsumexp(logw)
    return math.exp(num - den)


def grand_expectation(
    obs: DiagonalObservable,
    spec: TruncationSpec,
    *,
    z: ConstrainedZ | None = None,
) -> float:
    """Exact expectation of a diagonal observable at the model of `spec`,
    on the capped wall modes and the k >= 2 window.

    Wall-mode factors are 1-D geometric sums; each k >= 2 factor is one
    window convolution of z, so it must be nondecreasing and >= 0 on
    0..N, and with the Ntil polynomial the k >= 2 degree must be at most
    _WINDOW_DEGREE.  `z` may be shared across calls on the spec it was
    built for; any of these violations is a ValidationError.
    """
    wall = 1.0
    factored = {}
    for k, poly in obs.factors:
        if k > spec.k_top:
            raise UnknownMode(f"mode {k} is outside the truncation (k_top={spec.k_top})")
        if k < 2:
            wall *= _wall_mode_ratio(spec, k, poly)
        else:
            factored[k] = poly
    degree = sum(len(poly) - 1 for poly in (*factored.values(), obs.ntilde_poly or (0.0,)))
    if degree > _WINDOW_DEGREE:
        raise ValidationError(
            f"observable has total k >= 2 degree {degree}; the window tail certifies "
            f"degree {_WINDOW_DEGREE} at most")
    if z is None:
        z = constrained_partition(spec)
    elif z.spec != spec:
        raise ValidationError("precomputed z was built for another truncation")
    if not factored and obs.ntilde_poly is None:
        return wall  # excited-sector ratio is exactly 1
    ntil = np.arange(spec.window + 1, dtype=float)
    m = spec.model
    with np.errstate(over="ignore"):  # lam n^2 = inf at huge lam: the weight e^{-inf} is 0
        logG = m.beta * (m.mu * ntil - 0.5 * m.lam * ntil * ntil / m.box.L)
    log_den = _logsumexp(z.log_z + logG)
    log_num = z.log_z
    for k, poly in factored.items():
        steps = np.diff(_polyval(poly, ntil), prepend=0.0)
        if np.any(steps < 0.0):
            raise ValidationError(
                f"the factor of mode {k} must be nondecreasing and >= 0 on the window "
                f"0..{spec.window}")
        with np.errstate(divide="ignore"):  # f(a) = f(a - 1) adds nothing
            log_num = _log_window_conv(np.log(steps) - m.beta * spec.table.epsilons[k] * ntil,
                                       log_num)
    weights = None if obs.ntilde_poly is None else _poly_on_range(obs.ntilde_poly, ntil)
    log_num = _logsumexp(log_num + logG, weights)
    if log_num == -np.inf:
        return 0.0
    return wall * math.exp(log_num - log_den)


# ----------------------------------------------------------------------
# equilibrium-state checks
# ----------------------------------------------------------------------

def _require_mu_below_ground(spec: TruncationSpec):
    eps0, mu = float(spec.table.epsilons[0]), spec.model.mu
    if not mu < eps0:
        raise ValidationError(f"mu must satisfy mu < eps(0) = {eps0}, got {mu}")


def _bose_factor(c: float) -> float:
    """1/(e^c - 1) for c > 0; once e^c overflows, e^-c/(1 - e^-c) = e^-c."""
    return 1.0 / math.expm1(c) if c <= _LOG_FLOAT_MAX else math.exp(-c)


def exchange_identity_sides(j, targets, spec):
    """Both sides of the particle-exchange identity between mode j and the
    first target mode: moving one particle from j to k1 multiplies the
    Gibbs weight by exp(beta (eps_j - eps_k1)) whenever the move leaves
    the coupling term unchanged (j and k1 both wall modes, both k >= 2,
    or lam = 0).  Returns (lhs, rhs) with

        lhs = e^{beta (eps_j - eps_k1)} omega(N_j (N_k1 + 1)^n1 prod_i N_ki^ni),
        rhs = omega((N_j + 1) N_k1^n1 prod_i N_ki^ni).

    For mixed wall/excited pairs at lam > 0 the move shifts Ntil and the
    identity genuinely fails; the sides are still well defined.  Powers
    must be in [0, _ENVELOPE_DEGREE] and the prefactor within float range.
    """
    targets = tuple((int(k), int(n)) for k, n in targets)
    if any(not 0 <= n <= _ENVELOPE_DEGREE for _, n in targets):
        raise ValidationError(
            f"exchange target powers must be in [0, {_ENVELOPE_DEGREE}], the per-mode "
            f"degree the truncation tail certifies; got {[n for _, n in targets]}"
        )
    if len(targets) == 0:
        raise ValidationError("need at least one (mode, power) target")
    ks = [k for k, _ in targets]
    if len(set(ks)) != len(ks):
        raise IndexClash(f"target modes must be pairwise distinct, got {ks}")
    if j in ks:
        raise IndexClash(f"j={j} clashes with target modes {ks}")
    k1, n1 = targets[0]
    if n1 < 1:
        raise ValidationError("the first target power must be >= 1")
    for k in [j] + ks:
        if k < 0 or k > spec.k_top:
            raise UnknownMode(f"mode {k} is outside the truncation")
    _require_mu_below_ground(spec)
    pref = _exchange_prefactor(spec.table.epsilons, spec.model.beta, j, k1)

    spect = [(k, number_poly(n)) for k, n in targets[1:] if n > 0]
    lhs_obs = DiagonalObservable(
        factors=tuple([(j, number_poly(1)), (k1, shifted_number_poly(n1))] + spect)
    )
    rhs_obs = DiagonalObservable(
        factors=tuple([(j, shifted_number_poly(1)), (k1, number_poly(n1))] + spect)
    )
    z = constrained_partition(spec)
    lhs = pref * grand_expectation(lhs_obs, spec, z=z)
    rhs = grand_expectation(rhs_obs, spec, z=z)
    return lhs, rhs


def _exchange_prefactor(eps: np.ndarray, beta: float, j: int, k1: int) -> float:
    """e^{beta (eps_j - eps_k1)}; a ValidationError where it overflows a float."""
    log_pref = beta * (eps[j] - eps[k1])
    if log_pref > _LOG_FLOAT_MAX:
        raise ValidationError(f"exchange prefactor e^(beta (eps_j - eps_k1)) = "
                              f"e^{log_pref:.6g} overflows a float; lower beta")
    return math.exp(log_pref)


def check_wall_mode_occupation(k, spec):
    """(omega(N_k), 1/(e^{beta (eps_k - mu)} - 1)) for a wall mode k in
    {0, 1}.  The closed form is the untruncated value (the coupling omits
    the wall modes, so it is exact on the full space); the two differ by
    the truncation tail of the geometric series."""
    if k not in (0, 1):
        raise BadMode(f"wall-mode occupation check needs k in {{0, 1}}, got {k}")
    _require_mu_below_ground(spec)
    occ = grand_expectation(DiagonalObservable.mode_number(k), spec)
    return occ, _bose_factor(spec.model.beta * (spec.table.epsilons[k] - spec.model.mu))


def check_moment_log_inequality(k, n, spec):
    """Both sides of the occupation-moment log inequality for k >= 2:

        beta * [ (mu - eps_k + lam/(2L)) omega(N_k^{n+1})
                 - (lam/L) omega(Ntil N_k^{n+1}) ]
            >=  omega(N_k^{n+1}) * ln( omega(N_k^{n+1}) / omega((N_k+1)^{n+1}) ).

    Returns (lhs, rhs); equality holds in the free gas at n arbitrary.  The
    rhs is 0 where omega(N_k^{n+1}) = 0 (x ln x -> 0); n must be in
    [0, _WINDOW_DEGREE - 2].
    """
    if not 0 <= n <= _WINDOW_DEGREE - 2:
        raise ValidationError(
            f"moment power must be in [0, {_WINDOW_DEGREE - 2}] (Ntil N_k^(n+1) within the "
            f"degree the window tail certifies); got {n}"
        )
    if k < 2:
        raise BadMode(f"moment inequality needs k >= 2, got {k}")
    if k > spec.k_top:
        raise UnknownMode(f"mode {k} is outside the truncation")
    _require_mu_below_ground(spec)
    eps_k = float(spec.table.epsilons[k])
    model = spec.model
    L = model.box.L
    z = constrained_partition(spec)
    a, b, c = (grand_expectation(obs, spec, z=z) for obs in (
        DiagonalObservable.mode_number(k, n + 1),  # N_k^{n+1}
        DiagonalObservable(factors=((k, shifted_number_poly(n + 1)),)),  # (N_k + 1)^{n+1}
        DiagonalObservable(factors=((k, number_poly(n + 1)),), ntilde_poly=(0.0, 1.0)),
    ))
    lhs = model.beta * ((model.mu - eps_k + 0.5 * model.lam / L) * a - model.lam * c / L)
    rhs = a * math.log(a / b) if a > 0.0 else 0.0
    return lhs, rhs


def occupation_bound_exponent(k, spec) -> float:
    """c_k = beta * (eps_k - eps_0 - lam/(2L)); positive where the
    occupation bound is informative."""
    eps, model = spec.table.epsilons, spec.model
    return model.beta * (eps[k] - eps[0] - 0.5 * model.lam / model.box.L)


def check_occupation_bound(k, spec):
    """(omega(N_k), 1/(e^{c_k} - 1)) for k >= 2 with c_k as above.

    Valid for mu <= eps(0), which the spec guarantees; the bound saturates
    in the free gas at mu = eps(0).  Raises NonpositiveGap when c_k <= 0
    (vacuous bound).
    """
    if k < 2:
        raise BadMode(f"occupation bound needs k >= 2, got {k}")
    if k > spec.k_top:
        raise UnknownMode(f"mode {k} is outside the truncation")
    c = occupation_bound_exponent(k, spec)
    if c <= 0.0:
        raise NonpositiveGap(f"bound exponent c_k = {c} <= 0 for k={k}")
    occ = grand_expectation(DiagonalObservable.mode_number(k), spec)
    return occ, _bose_factor(c)


# ----------------------------------------------------------------------
# JSON check reports
# ----------------------------------------------------------------------

_FLOAT_ATOL_FACTOR = 4e-13  # rounding allowance on top of the tail budget

# name -> (the function giving the check's sides (lhs, rhs), the relation
# lhs (==, >=, <=) rhs up to an allowance a that it tests)
_CHECKS = {
    "exchange": (exchange_identity_sides, lambda lhs, rhs, a: abs(lhs - rhs) <= a),
    "wall-occupation": (check_wall_mode_occupation, lambda lhs, rhs, a: abs(lhs - rhs) <= a),
    "moment-inequality": (check_moment_log_inequality, lambda lhs, rhs, a: lhs >= rhs - a),
    "occupation-bound": (check_occupation_bound, lambda lhs, rhs, a: lhs <= rhs + a),
}
CHECK_NAMES = tuple(_CHECKS)
# name -> the keyword arguments `run_check` takes for that check
CHECK_ARGUMENTS = {name: tuple(inspect.signature(sides).parameters)[:-1]  # all but spec
                   for name, (sides, _) in _CHECKS.items()}


def truncation_for_check(name: str, table: SpectrumTable, model: ModelParams,
                         tol: float = 1e-12, **kwargs) -> TruncationSpec:
    """`make_truncation` at the tolerance that check `name` with the
    keyword arguments of `run_check` needs.

    The lhs of an exchange carries pref = e^{beta (eps_j - eps_k1)}, which
    multiplies its truncation error, and `run_check` reports pref times the
    involved tails as its budget.  Where pref > 1 the truncation is
    therefore certified at tol / pref, so that the budget stays near tol;
    a tol / pref below the smallest normal float is a ValidationError.
    Mode indices outside the table are left to the check to reject.
    """
    targets = kwargs.get("targets") if name == "exchange" else None
    if targets:
        j, k1 = int(kwargs["j"]), int(targets[0][0])
        if 0 <= min(j, k1) and max(j, k1) < len(table.epsilons):
            pref = _exchange_prefactor(table.epsilons, model.beta, j, k1)
            if pref > 1.0:
                if not tol / pref >= sys.float_info.min:
                    raise ValidationError(
                        f"tol / pref = {tol:g} / {pref:.6g} underflows a float, where pref = "
                        f"e^(beta (eps_j - eps_k1)) is the exchange prefactor "
                        f"(beta = {model.beta:g}); raise tol or lower beta")
                tol /= pref
    return make_truncation(table, model, tol)


def run_check(name: str, spec: TruncationSpec, **kwargs) -> dict:
    """Run one named check on `spec` with its keyword arguments
    (`CHECK_ARGUMENTS`) and wrap its sides (lhs, rhs) as a JSON-ready
    report with residual = lhs - rhs; `params` echoes the box, the model,
    the truncation and the arguments.

    Pass criteria (allowance = (budget + atol) * max(1, |lhs|, |rhs|),
    budget = tail of the truncation over the modes the arguments name,
    for exchange times max(1, e^{beta (eps_j - eps_k1)}), the prefactor
    that scales the truncation error of its lhs):
      exchange, wall-occupation:  |lhs - rhs| <= allowance
      moment-inequality:          lhs >= rhs - allowance
      occupation-bound:           lhs <= rhs + allowance
    A vacuous occupation bound (c_k <= 0) is reported with its
    `bound_exponent` and lhs, rhs, residual and pass all None.  A spec
    from `truncation_for_check` keeps an exchange budget near its tol.
    """
    if name not in _CHECKS:
        raise ValidationError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    sides_of, relation = _CHECKS[name]
    model = spec.model
    params = {
        "sigma": model.box.sigma,
        "L": model.box.L,
        "beta": model.beta,
        "mu": model.mu,
        "lambda": model.lam,
        "k_top": spec.k_top,
        "caps_total": sum(spec.caps),
        "window": spec.window,
        **kwargs,
    }
    try:
        sides = sides_of(spec=spec, **kwargs)
    except NonpositiveGap:
        sides = None
        params["bound_exponent"] = occupation_bound_exponent(spec=spec, **kwargs)
    involved = [kwargs[a] for a in ("j", "k") if a in kwargs]  # the modes the arguments name
    budget = spec.relevant_budget(involved + [k for k, _ in kwargs.get("targets", ())])
    if name == "exchange":
        budget *= max(1.0, _exchange_prefactor(spec.table.epsilons, model.beta, kwargs["j"],
                                                kwargs["targets"][0][0]))
    report = {"check": name, "params": params, "lhs": None, "rhs": None,
              "residual": None, "tail_budget": budget, "pass": None}
    if sides is not None:
        lhs, rhs = sides
        allowance = (budget + _FLOAT_ATOL_FACTOR) * max(1.0, abs(lhs), abs(rhs))
        report.update(lhs=lhs, rhs=rhs, residual=lhs - rhs)
        report["pass"] = relation(lhs, rhs, allowance)
    return report
