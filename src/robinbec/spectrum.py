"""One-body spectrum of a 1D box with attractive (Robin) walls.

Solves -phi'' = eps * phi on [-L/2, L/2] with wall conditions
(phi' - sigma*phi)(-L/2) = 0 and (phi' + sigma*phi)(+L/2) = 0, where
sigma < 0 (units hbar^2/2m = 1).  The spectrum consists of two
near-degenerate negative (wall-bound) modes followed by an infinite
ladder of positive modes interlacing the Neumann values:

    eps(0) < eps(1) < 0 < eps(2) < eps(3) < ...,
    ((k-1)*pi/L)^2 < eps(k) < (k*pi/L)^2        for k >= 2.

Writing s = |sigma| and matching the symmetric/antisymmetric trial
solutions to the wall condition at x = +L/2 gives the eigenvalue
conditions

    k = 0 (even):   q*tanh(q*L/2) = s,                eps = -q^2,
    k = 1 (odd):    q*coth(q*L/2) = s,                eps = -q^2,
                    root exists iff L*s > 2 (coth limit 2/L at q->0),
    k >= 2 even:    p*sin(p*L/2) + s*cos(p*L/2) = 0,  eps = +p^2,
    k >= 2 odd:     p*cos(p*L/2) - s*sin(p*L/2) = 0,  eps = +p^2.

For k >= 2 both trig conditions reduce to one phase equation on the same
bracket ((k-1)*pi/L, k*pi/L):

    g_k(p) = p*L + 2*arctan(s/p) - k*pi = 0.

g is increasing and convex there, for every k >= 2 and any L*s:
g'' = 4*s*p/(p^2 + s^2)^2 > 0, and g' = L - 2*s/(p^2 + s^2) > 0 because
p > pi/L gives p^2 + s^2 - 2*s/L >= (s - 1/L)^2 + (pi^2 - 1)/L^2 > 0.  The
bracket ends certify a sign change, g = 2*arctan(s/p) - pi < 0 at the lower
end and g = 2*arctan(s/p) > 0 at the upper one, so Newton started at
p = k*pi/L falls monotonically onto the root and never leaves the bracket.
`build_spectrum` runs this iteration on the numpy array of k (3 to 5
passes from L*s = 0.1 to 12800), and freezes each root on its own step, so
a root depends on its own k only: any two tables of one box agree bit for
bit on the rows they share (a density solve's head table and a profile's
longer one, `ThermoState.occupations`).  Each root is checked to lie
strictly inside its bracket.  Its residual is taken from the raw trig
condition above, an independent check on the phase form; like the log
norms and the bracket columns, a table computes it on the first read
(`SpectrumTable`).  The root sits
about 2*s/(p*L) below k*pi/L; when that is under an ulp of p
(s < ~1e-16*p^2*L, so k > ~4e7 once L*s > 2) the root rounds onto the
bracket end and raises BracketFailure.  At the other end the root sits
about 2/(L*s) relative above (k-1)*pi/L, which a double resolves only up
to L*s ~ 4e15 (a k_max = 10^5 build there failed for 1 of 60 random L),
so modes k >= 2 need L*s <= MAX_PHASE_LS = 1e15 (ValidationError
otherwise; a table with k_max <= 1 has no such limit).  They also need
(pi/L)^2 + s^2 to be a normal double: the slope divides by p^2 + s^2,
which would underflow (at s ~ 1e-258 and L ~ 1e268, say).

The wall pair is solved for its offsets d0 = q0 - s and d1 = s - q1
(~2*s*e^{-L*s}), which set eps(1) - eps(0) = (d0 + d1)*(2*s + d0 - d1),
on forms of its conditions that do not cancel:

    G0(d) = log1p(2s/d) - (s + d)*L          (convex, falling),
    G1(d) = log1p(2(s - d)/d) - (s - d)*L    (convex, d1 on its falling side),

G1 for L*s > 3; below that the odd root solves B(u) = u*coth(u) - 1 = e at
u = q*L/2 (convex, rising; B summed as a positive series, e = L*s/2 - 1
from the exact product s*L).  Each root is one monotone Newton iteration
(`_wall_newton`, 1 to 8 evaluations) from a closed-form bound on its near
side.  The brackets are closed forms: q0 in [s, min(s*coth(s*L/2), s +
sqrt(2s/L))], the second end because tanh(u) >= u/(1 + u) turns
q*tanh(q*L/2) = s into q^2 <= s*q + 2s/L, and q1 in
[max(e, sqrt(3e))/(L/2), s] because B(u) < u and B(u) <= u^2/3.  A table
keeps d0 and d1 and reads the splitting and the level offsets
|eps(k) + sigma^2| from them (`SpectrumTable.wall_gap`,
`SpectrumTable.wall_level_offsets`).

Eigenfunctions are cosh/sinh (bound) or cos/sin (scattering-like)
profiles with L2 normalization

    C_even_bound = sqrt(2/L) * (1 + sinh(qL)/(qL))^(-1/2),
    C_odd_bound  = sqrt(2/L) * (-1 + sinh(qL)/(qL))^(-1/2),
    C_trig       = sqrt(2/L) * (1 +/- sin(pL)/(pL))^(-1/2),

evaluated in log space so that values stay finite when q*L is large
enough for sinh(qL) to overflow a double.

An independent finite-difference discretization of the same operator
(Robin closure by ghost-point elimination, symmetric tridiagonal) checks
the roots in the tests; it lives in `tests/helpers_fd.py`, so the package
needs numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import NumericalFailure, ValidationError

EVEN = "even"
ODD = "odd"

_LN2 = math.log(2.0)
# Newton passes allowed per root: a k >= 2 root needs 3 to 5, the last one
# confirming a step of at most _STEP_ULPS units in the last place, and a
# wall root 1 to 8 (see `_wall_newton`)
_NEWTON_PASSES = 12
_STEP_ULPS = 4.0
# above this L*s the odd wall root is solved for d1 = s - q1, below it on the
# series form of u*coth(u) - 1 (module docstring): the series loses d1 as
# q1 -> s, the d1 form loses q1 near the threshold, and each held q1 within
# 3 ulp of mpmath on its own side of 3
_ODD_SERIES_LS = 3.0
# largest k_max `build_spectrum` accepts: a build peaks at ~105 bytes per
# mode (measured at k_max = 10^6), about 1 GB at the limit
K_MAX_LIMIT = 10_000_000
# largest L*|sigma| for which the k >= 2 phase roots are resolved (module docstring)
MAX_PHASE_LS = 1e15
_TINY = 2.0**-1022  # smallest normal double
# largest L*|sigma| for which the wall rows are finite: their log norms take
# log(sinh(q L) - q L) with 2 q L, which overflows past L*|sigma| ~ 9e307
MAX_WALL_LS = 1e307


class OutOfDomain(ValidationError):
    """Position outside the box [-L/2, L/2]."""


class NoSecondBoundState(ValidationError):
    """The odd wall-bound mode exists only for L*|sigma| > 2."""


class BracketFailure(NumericalFailure):
    """A certified root bracket showed no sign change."""


@dataclass(frozen=True)
class BoxParams:
    """Wall coupling sigma (attractive: sigma < 0) and box length L."""

    sigma: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma * self.sigma) and self.sigma < 0.0):
            raise ValidationError(
                "sigma must be < 0 (attractive walls) with a finite sigma^2 "
                f"(eps(0) ~ -sigma^2), got {self.sigma}"
            )
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValidationError(f"L must be finite and > 0, got {self.L}")

    @property
    def s(self) -> float:
        """|sigma|."""
        return -self.sigma

    @property
    def half(self) -> float:
        return 0.5 * self.L

    def has_second_bound_state(self) -> bool:
        return self.L * self.s > 2.0


@dataclass(frozen=True)
class Mode:
    """One eigenpair of the Robin wall problem: row k of a `SpectrumTable`
    as `solve_mode` returns it.

    `wavenumber` is q for the bound modes (eps = -q^2, k in {0, 1}) and p
    for k >= 2 (eps = +p^2).  `log_norm` is the log of the L2
    normalization constant, finite even when the constant itself would
    underflow at very large q*L.  `residual` is |phi'(L/2) + sigma*phi(L/2)|
    of the normalized mode and `bracket_lo/hi` is the certified eigenvalue
    bracket in eps units.
    """

    k: int
    parity: str
    epsilon: float
    wavenumber: float
    log_norm: float
    residual: float
    bracket_lo: float
    bracket_hi: float


# the columns a table computes from its roots on their first read, by their
# `Mode` field names (the keys of `SpectrumTable._derived`)
_DERIVED = ("log_norm", "residual", "bracket_lo", "bracket_hi")


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Modes k = 0..k_max for one (sigma, L) as read-only arrays indexed by
    k, strictly increasing in eps.  Mode k is row k of every column, with
    parity EVEN for even k and ODD for odd k; `eigenfunction_eval(table, k,
    x)` evaluates its eigenfunction.

    `build_spectrum` builds the roots only: `epsilons`, `wavenumbers` and
    `walls`, one (q, d, q_end) per wall mode (`_wall_roots`), which holds
    the offsets `wall_offsets` that give `wall_gap` and
    `wall_level_offsets` without cancellation; these three are the only
    accessors of the wall pair.  The derived columns `log_norms`,
    `residuals`, `bracket_lo` and `bracket_hi` are computed from the roots
    on the first read of any of them, all four at once for every k, and
    kept.

    One representational exception: the wall pair eps(0) < eps(1) may tie
    in double precision once its exponentially small splitting drops
    below resolution (L*|sigma| beyond ~36); the ordering is structural
    (q0 > s > q1) and `wall_gap` holds the true splitting.
    """

    params: BoxParams
    epsilons: np.ndarray
    wavenumbers: np.ndarray
    walls: tuple

    def __post_init__(self):
        if self.epsilons.ndim != 1 or len(self.epsilons) == 0 or (
            self.wavenumbers.shape != self.epsilons.shape
            or len(self.walls) != min(len(self.epsilons), 2)
        ):
            raise ValidationError("spectrum arrays must be 1-D, nonempty and of equal length")
        steps = np.diff(self.epsilons)
        if np.any(steps[:1] < 0.0) or np.any(~(steps[1:] > 0.0)):
            raise ValidationError("eigenvalues must be strictly increasing")
        self.epsilons.flags.writeable = False
        self.wavenumbers.flags.writeable = False

    @property
    def k_max(self) -> int:
        return len(self.epsilons) - 1

    @property
    def modes(self) -> range:
        """The mode indices 0..k_max.  Kept only for the benchmark's tracer,
        which counts a build's modes as `len(result.modes)`
        (`bench/tracing.py`)."""
        return range(len(self.epsilons))

    @property
    def wall_offsets(self) -> tuple[float, ...]:
        """(d0,) or (d0, d1): d0 = q0 - s, d1 = s - q1, with full relative
        precision at any L*s."""
        return tuple(d for _, d, _ in self.walls)

    @property
    def wall_gap(self) -> float:
        """eps(1) - eps(0) = (d0 + d1)*(2s + d0 - d1), exact at any L."""
        if len(self.walls) < 2:
            raise ValidationError("the wall pair needs a table with k_max >= 1")
        (d0, d1), s = self.wall_offsets, self.params.s
        return (d0 + d1) * (2.0 * s + d0 - d1)

    @property
    def wall_level_offsets(self) -> tuple[float, float]:
        """(|eps(0) + sigma^2|, |eps(1) + sigma^2|) without cancellation."""
        if len(self.walls) < 2:
            raise ValidationError("the wall pair needs a table with k_max >= 1")
        (d0, d1), s = self.wall_offsets, self.params.s
        return d0 * (2.0 * s + d0), d1 * (2.0 * s - d1)

    @functools.cached_property
    def _derived(self) -> dict:
        walls = _wall_columns(self.params, self.walls)
        ladder = _ladder_columns(self.params, np.arange(2, len(self.epsilons)), self.wavenumbers[2:])
        columns = {}
        for name in _DERIVED:
            columns[name] = np.concatenate([walls[name], ladder[name]])
            columns[name].flags.writeable = False
        return columns

    @property
    def log_norms(self) -> np.ndarray:
        """Log of each mode's L2 normalization constant."""
        return self._derived["log_norm"]

    @property
    def residuals(self) -> np.ndarray:
        """|phi'(L/2) + sigma*phi(L/2)| of each normalized mode."""
        return self._derived["residual"]

    @property
    def bracket_lo(self) -> np.ndarray:
        """Lower end of each mode's certified eigenvalue bracket."""
        return self._derived["bracket_lo"]

    @property
    def bracket_hi(self) -> np.ndarray:
        """Upper end of each mode's certified eigenvalue bracket."""
        return self._derived["bracket_hi"]


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------

def _phase(p, L, s, kpi):
    """g_k(p) = p*L + 2*arctan(s/p) - k*pi and its slope L - 2*s/(p^2 + s^2);
    `kpi` holds k*pi for each entry of p."""
    return (p * L - kpi) + 2.0 * np.arctan(s / p), L - 2.0 * s / (p * p + s * s)


def _phase_roots(k, L, s, lo, hi):
    """Roots of g_k on the brackets (lo, hi) = ((k-1)*pi/L, k*pi/L) for the
    integer array k >= 2.

    Newton from the upper bracket end on every root at once; a root is
    frozen once its step is at most _STEP_ULPS ulp, so each root depends
    on its own k only and a length-1 call reproduces a table entry bit for
    bit.  Raises BracketFailure if g does not change sign across a
    bracket or a root ends outside it, NumericalFailure after
    _NEWTON_PASSES passes.
    """
    kpi = k * math.pi
    g_lo, _ = _phase(lo, L, s, kpi)
    g, slope = _phase(hi, L, s, kpi)
    bad = np.flatnonzero(~((g_lo < 0.0) & (g > 0.0)))
    if bad.size:
        i = bad[0]
        raise BracketFailure(
            f"no sign change on [{float(lo[i])!r}, {float(hi[i])!r}]: "
            f"g(lo)={float(g_lo[i])!r}, g(hi)={float(g[i])!r}"
        )
    p = hi.copy()
    done = np.zeros(len(k), dtype=bool)
    for _ in range(_NEWTON_PASSES):
        step = np.where(done, 0.0, g / slope)
        p -= step
        done |= np.abs(step) <= _STEP_ULPS * np.spacing(p)
        if done.all():
            break
        g, slope = _phase(p, L, s, kpi)
    else:
        todo = np.flatnonzero(~done)
        raise NumericalFailure(
            f"phase Newton left {todo.size} of {len(k)} roots unconverged after "
            f"{_NEWTON_PASSES} passes, first k = {int(k[todo[0]])}"
        )
    bad = np.flatnonzero(~((lo < p) & (p < hi)))
    if bad.size:
        i = bad[0]
        raise BracketFailure(
            f"root {float(p[i])!r} of k = {int(k[i])} outside ({float(lo[i])!r}, {float(hi[i])!r})"
        )
    return p


def _trig_residual(p, half, s, even):
    """The k >= 2 trig conditions of the module docstring as arrays; `even`
    marks the even-k entries of p."""
    sn, cs = np.sin(half * p), np.cos(half * p)
    return np.where(even, p * sn + s * cs, p * cs - s * sn)


def _ladder_roots(params: BoxParams, k):
    """Wavenumbers p of the k >= 2 modes over the integer array k."""
    s, L = params.s, params.L
    if len(k) and not L * s <= MAX_PHASE_LS:
        raise ValidationError(
            f"modes k >= 2 need L*|sigma| <= {MAX_PHASE_LS:g}, got {L * s:g}"
        )
    least = (math.pi / L) * (math.pi / L) + s * s  # the least p^2 + s^2 `_phase` divides by
    if len(k) and not least >= _TINY:
        raise ValidationError(f"modes k >= 2 need (pi/L)^2 + sigma^2 >= {_TINY:g}, got {least:g}")
    return _phase_roots(k, L, s, (k - 1) * math.pi / L, k * math.pi / L)


def _ladder_columns(params: BoxParams, k, p):
    """The derived columns (`_DERIVED`) of the k >= 2 modes as arrays, from
    their wavenumbers p."""
    L = params.L
    even = k % 2 == 0
    lo, hi = (k - 1) * math.pi / L, k * math.pi / L
    sin_pl = np.sin(p * L) / (p * L)
    norm = math.sqrt(2.0 / L) / np.sqrt(1.0 + np.where(even, 1.0, -1.0) * sin_pl)
    return {
        "log_norm": np.log(norm),
        "residual": norm * np.abs(_trig_residual(p, params.half, params.s, even)),
        "bracket_lo": lo * lo,
        "bracket_hi": hi * hi,
    }


def _ucothu_minus_one(u):
    """u coth(u) - 1 for 0 < u < 2, without cancellation: its numerator
    u cosh(u) - sinh(u) = sum_{n>=1} 2n u^(2n+1)/(2n+1)! has only positive
    terms."""
    u2 = u * u
    term, num, n = u, 0.0, 1
    while True:
        term *= u2 / ((2 * n) * (2 * n + 1))
        num += 2 * n * term
        if 2 * n * term <= 1e-17 * num:
            return num / math.sinh(u)
        n += 1


# ----------------------------------------------------------------------
# log-stable hyperbolic helpers
# ----------------------------------------------------------------------

def _logcosh_vec(u):
    au = np.abs(u)
    return au + np.log1p(np.exp(-2.0 * au)) - _LN2


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e == a*b exactly (Dekker)."""
    def split(v):
        t = 134217729.0 * v  # 2^27 + 1
        hi = t - (t - v)
        return hi, v - hi

    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _logsinh(v):
    # scalar, v > 0
    if v < 350.0:
        return math.log(math.sinh(v))
    return v - _LN2 + math.log1p(-math.exp(-2.0 * v))


def _logsinh_minus_linear(v):
    """log(sinh(v) - v) for v > 0, stable for both tiny and huge v."""
    if v < 0.02:
        v2 = v * v
        return 3.0 * math.log(v) - math.log(6.0) + math.log1p(v2 / 20.0 + v2 * v2 / 840.0)
    if v < 350.0:
        return math.log(math.sinh(v) - v)
    r = 2.0 * v * math.exp(-v)  # v / sinh(v) up to the 1 - e^{-2v} factor
    return _logsinh(v) + math.log1p(-r / (1.0 - math.exp(-2.0 * v)))


def _bound_log_norm(parity, q, L):
    # integral of the squared profile: L/2 + sinh(qL)/(2q) (even),
    # (sinh(qL) - qL)/(2q) (odd); C = integral^{-1/2}
    v = q * L
    if parity == EVEN:
        log_int = np.logaddexp(math.log(0.5 * L), _logsinh(v) - math.log(2.0 * q))
    else:
        log_int = _logsinh_minus_linear(v) - math.log(2.0 * q)
    return -0.5 * float(log_int)


# ----------------------------------------------------------------------
# wall pair
# ----------------------------------------------------------------------

def _log1p_ratio(a, d):
    """log1p(a/d) for a >= 0 and d > 0, also where a/d overflows."""
    r = a / d
    return math.log1p(r) if r < math.inf else math.log(a) - math.log(d)


def _below(x):
    """x lowered by a few ulp (not below 0), to absorb rounding in a bound."""
    return max(0.0, x - 4.0 * math.ulp(x))


def _wall_newton(form, x, k):
    """Root of a convex function f by Newton's method from the bracket end x.

    form(x) returns (f(x), x*f'(x)), and f(x) >= 0 at the start, so every
    step goes the same way and none overshoots.  The iteration stops at the
    first step that turns back or does not move x: rounding in f, about
    L*s ulp here, rules out a fixed few-ulp stop.  A start x = 0 (an
    offset that underflows) is the root.  Raises BracketFailure if f < 0 at
    the start and NumericalFailure after _NEWTON_PASSES evaluations of f.
    """
    if x == 0.0:
        return x
    up = None
    for _ in range(_NEWTON_PASSES):
        value, slope = form(x)
        if up is None:
            if not value >= 0.0:
                raise BracketFailure(f"wall mode {k}: f = {value!r} < 0 at the bracket end {x!r}")
            up = slope < 0.0
        new = x - x * (value / slope)
        if new == x or (new > x) != up:
            return x
        x = new
    raise NumericalFailure(
        f"wall-pair Newton left mode {k} unconverged after {_NEWTON_PASSES} passes"
    )


def _odd_excess(s, L):
    """e = L*s/2 - 1 from the exact product of the mantissas of s and L: the
    difference cancels near the odd threshold L*s = 2, and Dekker's split
    would overflow at L beyond ~1e300."""
    (ms, es), (ml, el) = math.frexp(s), math.frexp(L)
    sl_hi, sl_lo = _two_product(ms, ml)
    return (math.ldexp(sl_hi, es + el - 1) - 1.0) + math.ldexp(sl_lo, es + el - 1)


def _wall_roots(params: BoxParams, k_max: int):
    """(q, d, q_end) of the wall modes 0..min(k_max, 1): the wavenumber, its
    offset from s = |sigma| (d0 = q0 - s, d1 = s - q1) and the far end of
    its bracket (q0 <= q_end, q1 >= q_end).

    See the module docstring for the forms solved.  Raises
    ValidationError past L*|sigma| = MAX_WALL_LS, where the wall rows' log
    norms and residuals overflow, and where the bracket of eps(0) <=
    -2|sigma|/L overflows a float; NoSecondBoundState for k_max >= 1 when
    L*|sigma| <= 2.
    """
    s, L, half = params.s, params.L, params.half
    sl = s * L
    if not sl <= MAX_WALL_LS:
        raise ValidationError(f"wall modes need L*|sigma| <= {MAX_WALL_LS:g}, got {sl:g}")
    if sl == 0.0:  # the bracket of q0 divides by 1 - e^{-sL}
        raise ValidationError(f"L*|sigma| = {L:g}*{s:g} underflows to 0")
    # q0 <= s*coth(sL/2) = s + d_hi, and q0 <= s + r with r = sqrt(2s/L)
    # (module docstring), raised by 16 ulp for rounding: the tighter end
    # below L*s ~ 0.84, and finite where s*coth(sL/2) ~ 2/L squares past a float
    log_2s = math.log(2.0 * s)
    d_hi = math.exp(log_2s - sl) / -math.expm1(-sl)  # s*(coth(sL/2) - 1)
    r = math.sqrt(2.0 * s) / math.sqrt(L)
    q_end = min(s + d_hi, (s + r) + 16.0 * math.ulp(s + r))
    if not q_end * q_end < math.inf:
        raise ValidationError(f"eps(0) <= -2|sigma|/L overflows a float at L = {L:g}, "
                              f"|sigma| = {s:g}")
    if k_max >= 1 and not params.has_second_bound_state():
        raise NoSecondBoundState(f"odd bound state needs L*|sigma| > 2, got {sl}")

    def even(d):  # G0 and d*G0'
        return _log1p_ratio(2.0 * s, d) - (s + d) * L, -2.0 * s / (d + 2.0 * s) - L * d

    # q0 in [s, s + d_hi]; d0 >= 2s*e^{-(s + d_hi)L}, its exponent lowered by
    # its own rounding (a few ulp of its largest term), and q0 >= r
    y = (s + d_hi) * L
    start = max(math.exp(log_2s - y - 4.0 * math.ulp(max(y, abs(log_2s)))), r - s)
    d0 = _wall_newton(even, _below(start), 0)
    roots = [(s + d0, d0, q_end)]
    if k_max < 1:
        return roots

    # q1 in [max(e, sqrt(3e))/(L/2), s], as B(u) = u*coth(u) - 1 = e at
    # u = q1*L/2 with B(u) < u and B(u) <= u^2/3.  Below e = 3 the exact
    # e comes from `_odd_excess`; above, e/(L/2) = s - 2/L
    if sl < 8.0:
        e = _odd_excess(s, L)
        q_lo = _below(math.sqrt(3.0 * e) / half)
    else:
        q_lo = _below(s - 2.0 / L)
    if sl > _ODD_SERIES_LS:
        def odd(d):  # G1 and d*G1'
            return _log1p_ratio(2.0 * (s - d), d) - (s - d) * L, L * d - 2.0 * s / (2.0 * s - d)

        # d1 >= (s + q_lo)*e^{-(s - d)L} for any d <= d1, here the d of
        # the same bound with e^{-sL}; its relative slack, about 1/(L*s),
        # covers the rounding of a normal start but not the half step by
        # which a subnormal one can round up (BracketFailure at L*s ~ 735)
        log_s_q = math.log(s + q_lo)
        start = math.exp(log_s_q - (s - math.exp(log_s_q - sl)) * L)
        d1 = _wall_newton(odd, _below(start) if start < _TINY else start, 1)
        q = s - d1
    else:
        def series(q):  # B(u) - e and u*B'(u) = q*dB/dq at u = q*L/2
            u = half * q
            t = _ucothu_minus_one(u)
            return t - e, u * u - t * (1.0 + t)

        # B(u) >= u^2/(3 + u) puts the root below u_hi
        q = _wall_newton(series, 0.5 * (e + math.sqrt(e * (e + 12.0))) / half, 1)
        d1 = s - q
    roots.append((q, d1, q_lo))
    return roots


def _wall_columns(params: BoxParams, roots):
    """The derived columns (`_DERIVED`) of the wall modes as arrays, from
    their `_wall_roots`."""
    s, L, half = params.s, params.L, params.half
    q, _, q_hi = roots[0]
    log_norm = _bound_log_norm(EVEN, q, L)
    phi_wall = math.exp(log_norm + float(_logcosh_vec(q * half)))
    residual = abs(phi_wall * (q * math.tanh(half * q) - s))
    rows = [(log_norm, residual, -q_hi * q_hi, -s * s)]
    if len(roots) > 1:
        q, _, q_lo = roots[1]
        u = half * q
        log_norm = _bound_log_norm(ODD, q, L)
        phi_wall = math.exp(log_norm + _logsinh(u))
        g = (_ucothu_minus_one(u) - _odd_excess(s, L)) / half if u < 1.0 else q / math.tanh(u) - s
        rows.append((log_norm, abs(phi_wall * g), -s * s, -q_lo * q_lo))
    return {name: np.array(column) for name, column in zip(_DERIVED, zip(*rows))}


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def build_spectrum(params: BoxParams, k_max: int) -> SpectrumTable:
    """Modes 0..k_max as a validated table of their roots (k_max = 0 gives
    just the even bound state); the derived columns follow on their first
    read (`SpectrumTable`).

    The wall pair comes from one call of the wall-pair solver; the k >= 2
    modes come from one phase Newton iteration over all of them (see the
    module docstring), which a table of the wall pair alone skips.
    """
    if not isinstance(k_max, (int, np.integer)) or not 0 <= k_max <= K_MAX_LIMIT:
        raise ValidationError(
            f"k_max must be an integer in [0, {K_MAX_LIMIT}], got {k_max!r}"
        )
    k_max = int(k_max)
    walls = tuple(_wall_roots(params, k_max))
    q = [q for q, _, _ in walls]
    p = _ladder_roots(params, np.arange(2, k_max + 1)) if k_max >= 2 else np.empty(0)
    return SpectrumTable(
        params=params,
        epsilons=np.concatenate([[-v * v for v in q], p * p]),
        wavenumbers=np.concatenate([q, p]),
        walls=walls,
    )


def eigenfunction_eval(table: SpectrumTable, k: int, x):
    """Value at x (scalar or array) of the normalized eigenfunction of mode
    k, row k of `table`: its wavenumber and log norm, and parity EVEN for
    even k and ODD for odd k.

    Bound modes are evaluated as exp(log_norm + q|x| + log((1 +- e^{-2q|x|})/2))
    so the result is finite even when the cosh/sinh factor alone would
    overflow.  Near the walls log_norm and q|x| are both ~q L/2 and
    cancel, so q|x| enters as its exact two-term product: rounding it, or
    adding log(cosh) at that magnitude, cost up to 2.2e-13 relative in
    phi^2 at L|sigma| = 1200.  Raises ValidationError for k outside
    0..k_max and OutOfDomain for |x| > L/2.
    """
    if not 0 <= k <= table.k_max:
        raise ValidationError(f"mode index must be in 0..{table.k_max}, got {k!r}")
    half = table.params.half
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > half * (1.0 + 1e-12)):
        raise OutOfDomain(f"|x| must be <= L/2 = {half}")
    q, log_norm, even = float(table.wavenumbers[k]), float(table.log_norms[k]), k % 2 == 0
    if k >= 2:
        vals = math.exp(log_norm) * (np.cos(q * arr) if even else np.sin(q * arr))
    else:
        u, u_err = _two_product(q, np.abs(arr))
        with np.errstate(divide="ignore"):  # log(0) at x = 0 for the odd mode
            if even:
                tail = np.log1p(np.exp(-2.0 * u)) - _LN2
            else:
                tail = np.log(-np.expm1(-2.0 * u)) - _LN2
        vals = np.exp((log_norm + u) + (u_err + tail))
        if not even:
            vals = np.sign(arr) * vals
    if arr.ndim == 0:
        return float(vals)
    return vals


def solve_mode(params: BoxParams, k: int) -> Mode:
    """Row k of `build_spectrum(params, k)` as a `Mode`.  Kept only for the
    benchmark's self-test, which reads `solve_mode(box, 0).epsilon`
    (`bench/selftest.py`)."""
    table = build_spectrum(params, k)
    return Mode(k=k, parity=EVEN if k % 2 == 0 else ODD, epsilon=float(table.epsilons[k]),
                wavenumber=float(table.wavenumbers[k]),
                **{name: float(column[k]) for name, column in table._derived.items()})


# ----------------------------------------------------------------------
# near-degenerate bound-state splitting
# ----------------------------------------------------------------------

def bound_state_gap(params: BoxParams) -> float:
    """eps(1) - eps(0) of the box: `SpectrumTable.wall_gap` of its k_max = 1
    table."""
    return build_spectrum(params, 1).wall_gap


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------

_SPECTRUM_HEADER = "k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi"
_PARITY_WORDS = csvio.separator_words(f",{EVEN},", f",{ODD},")  # by k % 2


def write_spectrum_csv(table: SpectrumTable, path, comment_lines=()) -> None:
    """CSV rows `k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi`
    at 17 significant digits (`csvio`); `comment_lines` go first, prefixed
    with '#'."""
    columns = (range(table.k_max + 1), table.epsilons, table.wavenumbers, table.residuals,
               table.bracket_lo, table.bracket_hi)
    with open(path, "wb") as fh:
        csvio.write_header(fh, comment_lines, _SPECTRUM_HEADER)
        csvio.write_rows(fh, columns, _PARITY_WORDS)
