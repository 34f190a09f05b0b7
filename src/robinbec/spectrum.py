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
`build_spectrum` and `solve_mode` run this iteration on numpy arrays of k
through one helper (3 to 5 passes from L*s = 0.1 to 12800), so the table
and the scalar solver agree bit for bit.  Each root is checked to lie
strictly inside its bracket, and its residual is taken from the raw trig
condition above, an independent check on the phase form.  The root sits
about 2*s/(p*L) below k*pi/L; when that is under an ulp of p
(s < ~1e-16*p^2*L, so k > ~4e7 once L*s > 2) the root rounds onto the
bracket end and raises BracketFailure.  At the other end the root sits
about 2/(L*s) relative above (k-1)*pi/L, which a double resolves only up
to L*s ~ 4e15 (a k_max = 10^5 build there failed for 1 of 60 random L),
so modes k >= 2 need L*s <= MAX_PHASE_LS = 1e15 (ValidationError
otherwise; a table with k_max <= 1 has no such limit).  The wall pair is
bisected to 1e-13 relative width plus one guarded Newton step, on the
brackets [s, s/tanh(s*L/2)] for k = 0 and (delta, s] for k = 1 with delta
shrunk until the residual goes negative.

Eigenfunctions are cosh/sinh (bound) or cos/sin (scattering-like)
profiles with L2 normalization

    C_even_bound = sqrt(2/L) * (1 + sinh(qL)/(qL))^(-1/2),
    C_odd_bound  = sqrt(2/L) * (-1 + sinh(qL)/(qL))^(-1/2),
    C_trig       = sqrt(2/L) * (1 +/- sin(pL)/(pL))^(-1/2),

evaluated in log space so that values stay finite when q*L is large
enough for sinh(qL) to overflow a double.

An independent finite-difference discretization of the same operator
(`fd_eigenvalues`, Robin closure by ghost-point elimination with lumped
end weights, symmetric tridiagonal after a diagonal similarity) provides
a cross-check with O(h^2) error; `fd_eigenvalues_richardson` removes the
leading error term.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import NumericalFailure, ValidationError

EVEN = "even"
ODD = "odd"

_LN2 = math.log(2.0)
# Newton passes allowed per k >= 2 root (3 to 5 are needed, the last one
# confirming a step of at most _STEP_ULPS units in the last place)
_NEWTON_PASSES = 8
_STEP_ULPS = 4.0
# largest k_max `build_spectrum` accepts: a build peaks at ~105 bytes per
# mode (measured at k_max = 10^6), about 1 GB at the limit
K_MAX_LIMIT = 10_000_000
# largest L*|sigma| for which the k >= 2 phase roots are resolved (module docstring)
MAX_PHASE_LS = 1e15


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
    """One eigenpair of the Robin wall problem.

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


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Modes k = 0..k_max for one (sigma, L) as read-only arrays indexed by
    k, strictly increasing in eps.  Mode k has parity EVEN for even k and
    ODD for odd k.

    One representational exception: the wall pair eps(0) < eps(1) may tie
    in double precision once its exponentially small splitting drops
    below resolution (L*|sigma| beyond ~36); the ordering is structural
    (q0 > s > q1) and `bound_state_gap` recovers the true splitting.
    """

    params: BoxParams
    epsilons: np.ndarray
    wavenumbers: np.ndarray
    log_norms: np.ndarray
    residuals: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray

    def __post_init__(self):
        arrays = (self.epsilons, self.wavenumbers, self.log_norms, self.residuals,
                  self.bracket_lo, self.bracket_hi)
        if self.epsilons.ndim != 1 or len(self.epsilons) == 0 or any(
            a.shape != self.epsilons.shape for a in arrays
        ):
            raise ValidationError("spectrum arrays must be 1-D, nonempty and of equal length")
        steps = np.diff(self.epsilons)
        if np.any(steps[:1] < 0.0) or np.any(~(steps[1:] > 0.0)):
            raise ValidationError("eigenvalues must be strictly increasing")
        for a in arrays:
            a.flags.writeable = False

    @property
    def k_max(self) -> int:
        return len(self.epsilons) - 1

    @property
    def modes(self) -> "ModeView":
        return ModeView(self)


class ModeView(Sequence):
    """Read-only sequence of the table's modes; indexing builds the `Mode`."""

    __slots__ = ("_table",)

    def __init__(self, table: SpectrumTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.epsilons)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"mode index {k} outside 0..{len(self) - 1}")
        t = self._table
        return Mode(
            k=k,
            parity=EVEN if k % 2 == 0 else ODD,
            epsilon=float(t.epsilons[k]),
            wavenumber=float(t.wavenumbers[k]),
            log_norm=float(t.log_norms[k]),
            residual=float(t.residuals[k]),
            bracket_lo=float(t.bracket_lo[k]),
            bracket_hi=float(t.bracket_hi[k]),
        )


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------

def _bracketed_root(f, df, lo, hi, rtol=1e-13):
    """Bisection to relative width `rtol`, then one guarded Newton step."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketFailure(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    a, b, fb = lo, hi, fhi
    while (b - a) > rtol * max(abs(a), abs(b)):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fb > 0.0):
            b, fb = mid, fm
        else:
            a = mid
    x = 0.5 * (a + b)
    fx = f(x)
    d = df(x)
    if d != 0.0 and math.isfinite(d):
        y = x - fx / d
        if a <= y <= b and abs(f(y)) <= abs(fx):
            return y
    return x


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


def _ladder(params: BoxParams, k):
    """`Mode` fields of the k >= 2 modes as arrays over the integer array k."""
    s, L = params.s, params.L
    if len(k) and not L * s <= MAX_PHASE_LS:
        raise ValidationError(
            f"modes k >= 2 need L*|sigma| <= {MAX_PHASE_LS:g}, got {L * s:g}"
        )
    even = k % 2 == 0
    lo, hi = (k - 1) * math.pi / L, k * math.pi / L
    p = _phase_roots(k, L, s, lo, hi)
    sin_pl = np.sin(p * L) / (p * L)
    norm = math.sqrt(2.0 / L) / np.sqrt(1.0 + np.where(even, 1.0, -1.0) * sin_pl)
    return {
        "epsilon": p * p,
        "wavenumber": p,
        "log_norm": np.log(norm),
        "residual": norm * np.abs(_trig_residual(p, params.half, s, even)),
        "bracket_lo": lo * lo,
        "bracket_hi": hi * hi,
    }


def _sech2(x):
    e = math.exp(-abs(x))
    return (2.0 * e / (1.0 + e * e)) ** 2


def _csch2(x):
    # x > 0
    e = math.exp(-x)
    den = 1.0 - e * e
    return (2.0 * e / den) ** 2 if den > 0.0 else math.inf


def _coth(x):
    return 1.0 / math.tanh(x)


def _ucothu_minus_one(u):
    """u coth(u) - 1 for 0 < u < 1, without cancellation: its numerator
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
# operations
# ----------------------------------------------------------------------

def solve_mode(params: BoxParams, k: int) -> Mode:
    """Solve one eigenpair; see the module docstring for the equations.

    The wall pair (k = 0, 1) is bisected to relative width 1e-13; a
    k >= 2 mode is the length-1 case of `build_spectrum`'s phase Newton
    iteration and equals the table's mode k exactly.  Raises
    NoSecondBoundState for k = 1 when L*|sigma| <= 2 and BracketFailure if
    a certified bracket fails its sign-change check.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValidationError(f"mode index must be a nonnegative integer, got {k!r}")
    k = int(k)
    if k >= 2:
        fields = _ladder(params, np.array([k]))
        return Mode(k=k, parity=EVEN if k % 2 == 0 else ODD,
                    **{name: float(column[0]) for name, column in fields.items()})
    s, L, half = params.s, params.L, params.half

    if k == 0:
        def f(q):
            return q * math.tanh(half * q) - s

        def df(q):
            return math.tanh(half * q) + q * half * _sech2(half * q)

        lo, hi = s, s / math.tanh(half * s)
        q = _bracketed_root(f, df, lo, hi)
        parity, eps = EVEN, -q * q
        log_norm = _bound_log_norm(EVEN, q, L)
        phi_wall = math.exp(log_norm + float(_logcosh_vec(q * half)))
        residual = abs(phi_wall * f(q))
        bracket_lo, bracket_hi = -hi * hi, -lo * lo
    else:
        if not params.has_second_bound_state():
            raise NoSecondBoundState(
                f"odd bound state needs L*|sigma| > 2, got {L * s}"
            )

        # below u = q L/2 = 1, u coth(u) - s L/2 cancels towards the
        # threshold; there it is the series u coth(u) - 1 against the
        # exact product s L/2 - 1
        sl, sl_err = _two_product(s, L)
        excess = (0.5 * sl - 1.0) + 0.5 * sl_err

        def g(q):
            u = half * q
            if u < 1.0:
                return (_ucothu_minus_one(u) - excess) / half
            return q * _coth(u) - s

        def dg(q):
            u = half * q
            if u < 1.0:  # coth(u) - u csch^2(u) = (u^2 - t (1 + t)) / u
                t = _ucothu_minus_one(u)
                return (u * u - t * (1.0 + t)) / u
            return _coth(u) - q * half * _csch2(u)

        hi = s  # g(s) = s*(coth(sL/2) - 1) > 0
        lo = 0.5 * s
        for _ in range(5000):
            if g(lo) < 0.0:
                break
            lo *= 0.5
        else:
            raise BracketFailure("could not certify lower bracket for the odd bound state")
        q = _bracketed_root(g, dg, lo, hi)
        parity, eps = ODD, -q * q
        log_norm = _bound_log_norm(ODD, q, L)
        phi_wall = math.exp(log_norm + _logsinh(q * half))
        residual = abs(phi_wall * g(q))
        bracket_lo, bracket_hi = -hi * hi, -lo * lo

    return Mode(
        k=k,
        parity=parity,
        epsilon=eps,
        wavenumber=q,
        log_norm=log_norm,
        residual=residual,
        bracket_lo=bracket_lo,
        bracket_hi=bracket_hi,
    )


def build_spectrum(params: BoxParams, k_max: int) -> SpectrumTable:
    """Modes 0..k_max as a validated table (k_max = 0 gives just the even
    bound state).

    The wall pair comes from `solve_mode`; the k >= 2 modes come from one
    phase Newton iteration over all of them (see the module docstring).
    """
    if not isinstance(k_max, (int, np.integer)) or not 0 <= k_max <= K_MAX_LIMIT:
        raise ValidationError(
            f"k_max must be an integer in [0, {K_MAX_LIMIT}], got {k_max!r}"
        )
    k_max = int(k_max)
    bound = [solve_mode(params, k) for k in range(min(k_max, 1) + 1)]
    ladder = _ladder(params, np.arange(2, k_max + 1))

    def column(field):
        return np.concatenate([[getattr(m, field) for m in bound], ladder[field]])

    return SpectrumTable(
        params=params,
        epsilons=column("epsilon"),
        wavenumbers=column("wavenumber"),
        log_norms=column("log_norm"),
        residuals=column("residual"),
        bracket_lo=column("bracket_lo"),
        bracket_hi=column("bracket_hi"),
    )


def eigenfunction_eval(mode: Mode, params: BoxParams, x):
    """Value of the normalized eigenfunction at x (scalar or array).

    Bound modes are evaluated as exp(log_norm + q|x| + log((1 +- e^{-2q|x|})/2))
    so the result is finite even when the cosh/sinh factor alone would
    overflow.  Near the walls log_norm and q|x| are both ~q L/2 and
    cancel, so q|x| enters as its exact two-term product: rounding it, or
    adding log(cosh) at that magnitude, cost up to 2.2e-13 relative in
    phi^2 at L|sigma| = 1200.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > params.half * (1.0 + 1e-12)):
        raise OutOfDomain(f"|x| must be <= L/2 = {params.half}")
    if mode.k >= 2:
        p = mode.wavenumber
        norm = math.exp(mode.log_norm)
        if mode.parity == EVEN:
            vals = norm * np.cos(p * arr)
        else:
            vals = norm * np.sin(p * arr)
    else:
        u, u_err = _two_product(mode.wavenumber, np.abs(arr))
        with np.errstate(divide="ignore"):  # log(0) at x = 0 for the odd mode
            if mode.parity == EVEN:
                tail = np.log1p(np.exp(-2.0 * u)) - _LN2
            else:
                tail = np.log(-np.expm1(-2.0 * u)) - _LN2
        vals = np.exp((mode.log_norm + u) + (u_err + tail))
        if mode.parity == ODD:
            vals = np.sign(arr) * vals
    if arr.ndim == 0:
        return float(vals)
    return vals


def boundary_residual_scale(mode: Mode, params: BoxParams) -> float:
    """Scale for judging `Mode.residual`: max(1, |sigma| * |phi(L/2)|)."""
    phi_wall = abs(eigenfunction_eval(mode, params, params.half))
    return max(1.0, params.s * phi_wall)


# ----------------------------------------------------------------------
# near-degenerate bound-state splittings
# ----------------------------------------------------------------------

def bound_state_corrections(params: BoxParams) -> tuple[float, float]:
    """(q0 - s, s - q1) with full relative precision at large L*s.

    Subtracting solved wavenumbers loses everything once the splitting
    drops below eps*s, so for L*s >= 4 the corrections are obtained from
    the exact rearrangements of the bound-state conditions

        d0 = (2s + d0) * exp(-(s + d0) L),
        d1 = (2s - d1) * exp(-(s - d1) L),

    iterated in log space (contraction for L*s >= 4).  Below that the
    direct subtraction is accurate and is used instead.
    """
    s, L = params.s, params.L
    if not params.has_second_bound_state():
        raise NoSecondBoundState(f"needs L*|sigma| > 2, got {L * s}")
    if s * L < 4.0:
        q0 = solve_mode(params, 0).wavenumber
        q1 = solve_mode(params, 1).wavenumber
        return q0 - s, s - q1

    def _fixed_point(sign):
        logd = math.log(2.0 * s) - s * L
        for _ in range(200):
            d = math.exp(logd)
            new = math.log(2.0 * s + sign * d) - (s + sign * d) * L
            if abs(new - logd) <= 1e-15 * max(1.0, abs(new)):
                return math.exp(new)
            logd = new
        raise NumericalFailure("bound-state correction iteration did not converge")

    return _fixed_point(+1.0), _fixed_point(-1.0)


def bound_state_gap(params: BoxParams) -> float:
    """eps(1) - eps(0) = (d0 + d1)(2s + d0 - d1), exact at any L."""
    d0, d1 = bound_state_corrections(params)
    return (d0 + d1) * (2.0 * params.s + d0 - d1)


def bound_state_offsets(params: BoxParams) -> tuple[float, float]:
    """(|eps(0) + sigma^2|, |eps(1) + sigma^2|) without cancellation."""
    d0, d1 = bound_state_corrections(params)
    s = params.s
    return d0 * (2.0 * s + d0), d1 * (2.0 * s - d1)


# ----------------------------------------------------------------------
# finite-difference validation oracle
# ----------------------------------------------------------------------

def fd_eigenvalues_raw(sigma: float, L: float, grid_points: int, n_modes: int) -> np.ndarray:
    """Lowest eigenvalues of the discretized operator; sigma <= 0 allowed
    (sigma = 0 reproduces the Neumann box and is used as a sanity case).

    Uniform grid with endpoints, ghost-point Robin closure, half-weight
    end cells; the generalized problem is symmetrized by the diagonal
    similarity, so the matrix stays tridiagonal symmetric.
    """
    if grid_points < 100:
        raise ValidationError(f"grid_points must be >= 100, got {grid_points}")
    if n_modes < 1 or n_modes > grid_points:
        raise ValidationError("n_modes must be in [1, grid_points]")
    if not (math.isfinite(sigma) and sigma <= 0.0):
        raise ValidationError(f"sigma must be <= 0, got {sigma}")
    if not (math.isfinite(L) and L > 0.0):
        raise ValidationError(f"L must be > 0, got {L}")
    n = int(grid_points)
    h = L / (n - 1)
    d = np.full(n, 2.0) / h**2
    d[0] += 2.0 * sigma / h
    d[-1] += 2.0 * sigma / h
    e = np.full(n - 1, -1.0) / h**2
    e[0] = -math.sqrt(2.0) / h**2
    e[-1] = -math.sqrt(2.0) / h**2
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, int(n_modes) - 1))


def fd_eigenvalues(params: BoxParams, grid_points: int, n_modes: int) -> np.ndarray:
    """First `n_modes` eigenvalue estimates with O(h^2) error."""
    return fd_eigenvalues_raw(params.sigma, params.L, grid_points, n_modes)


def fd_eigenvalues_richardson(params: BoxParams, grid_points: int, n_modes: int) -> np.ndarray:
    """Richardson extrapolation over grids (N, 2N-1), removing the h^2 term."""
    coarse = fd_eigenvalues(params, grid_points, n_modes)
    fine = fd_eigenvalues(params, 2 * int(grid_points) - 1, n_modes)
    return (4.0 * fine - coarse) / 3.0


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------

def write_spectrum_csv(table: SpectrumTable, path, comment_lines=()) -> None:
    """CSV rows `k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi`
    at 17 significant digits; `comment_lines` go first, prefixed with '#'."""
    with open(path, "w", newline="\n") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write("k,parity,epsilon,wavenumber,residual,bracket_lo,bracket_hi\n")
        for k, row in enumerate(zip(table.epsilons, table.wavenumbers, table.residuals,
                                    table.bracket_lo, table.bracket_hi)):
            parity = EVEN if k % 2 == 0 else ODD
            fh.write(f"{k},{parity}," + ",".join(f"{v:.17g}" for v in row) + "\n")
