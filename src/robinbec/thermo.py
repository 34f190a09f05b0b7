"""Finite-L and large-L thermodynamics of the wall-coupled box gas.

For a target density rho the chemical potential mu_L solves

    rho = (1/L) * sum_k occ_k(mu_L),

with mode occupations given by one of two models:

  free            occ_k = 1/(e^{beta (eps_k - mu)} - 1) for every k;
  mean_field_scf  wall modes (k = 0, 1) keep the free law, which is exact
                  for the quadratic Ntil coupling since it omits them;
                  modes k >= 2 take the self-consistent shift
                  occ_k = 1/(e^{beta (eps_k - mu + lam*rt)} - 1) with
                  rt = (1/L) sum_{k>=2} occ_k self-consistent (a unique
                  fixed point: the map is strictly decreasing in rt).

The free model is the lam = 0 case of the SCF one.  Both are solved for
x = eps(0) - mu > 0 itself, which the density equation puts near
2/(beta*L*rho) in a condensing box, far below the spacing of doubles
near eps(0).  Given x, the wall pair takes bose(beta x) and
bose(beta (gap + x)) with gap = eps(1) - eps(0) from the table's wall
offsets (`SpectrumTable.wall_gap`, one wall-pair solve per state; the
state keeps its table, and mu, rho_tilde and the other derived values
are read from the table, x and the occupations);
the density equation itself gives rt(x) = rho - (occ_0 + occ_1)/L, so
the SCF shift is explicit; and modes k >= 2 take
bose(beta (D_k + x + lam*max(rt, 0))) (unclamped, G would have a
spurious root at rt < 0), with D_k = p_k^2 + q_0^2 =
eps_k - eps(0) a sum of positives read from the table's wavenumbers.
The one unknown solves G(x) = rt(x) - (1/L) sum_{k>=2} occ_k = 0, where
G increases with x and equals rho minus the total density.  Its root is
bracketed in closed form: bose(beta x) = rho*L puts rt <= 0, so G < 0,
and bose(beta x) = rho*L/2, at x_mid, puts rt >= 0.  A Newton iteration
in t = log(x / x_mid) starts at t = 0 and takes its slope from
sum occ (1 + occ).  Until some G > 0 is found its steps up are capped at
a width that starts at 4 and doubles.  After that, a step that would
leave the bracket is replaced by the Newton step in the ground-mode
occupation y = bose(beta x) from the last point with G > 0, once per such
point, and by bisection in t if that leaves the bracket too.  Where
lam*rho_tilde dominates, G jumps up where rho_tilde crosses 0 and is
about rho_tilde above: concave in t, so a step in t from above ends below
the jump, but convex in y, so a step in y ends above it (3 to 8
evaluations at lam = 1e29 to 1e300, where bisection took 33 to 48).  A
step in y that ends within 2 eps of the low bracket end is moved to that
distance above it.  It stops once a step from the best point
so far is below 2 eps, or the bracket is that narrow or closes between
adjacent doubles (lam = 1e300 puts the root's rt below the rounding of
rho - (occ_0 + occ_1)/L, so G jumps there), and returns the evaluated
point of smallest |G|: 2 to 7 evaluations on typical boxes.  mu = eps(0) - x
may round to eps(0) at large beta; x keeps full precision.

The k-sum is cut at k_max with a certified Gaussian-tail bound using the
lower bracket eps_k > ((k-1) pi / L)^2; `ThermoInput` picks the smallest
comfortable certified k_max (`suggest_k_max`) unless one is given.

Condensation diagnostics:

  * critical_density: rho_c = (1/pi) * int_0^inf dk 1/(e^{beta (k^2 +
    sigma^2)} - 1) = Li_{1/2}(e^{-beta sigma^2}) / (2 sqrt(pi beta)),
    summed exactly as the Boltzmann series sum_{n>=1} e^{-n beta
    sigma^2} / sqrt(n): 31 terms and an Euler-Maclaurin tail.
  * condensate_lower_bound: max(0, rho - rho_c), the large-L floor on the
    wall-mode density (occ_0 + occ_1)/L in the condensing regime.
  * equal_distribution_gap: (occ_0 - occ_1)/L, evaluated through the
    near-degenerate splitting eps(1) - eps(0) so it stays accurate long
    after direct subtraction of double-precision occupations has
    underflowed into noise.
  * mu_asymptotics_check: fits (mu_L + sigma^2) * L along an L-sweep and
    compares the limit against -2/(beta * rho_cond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError
from .spectrum import K_MAX_LIMIT, BoxParams, NoSecondBoundState, SpectrumTable, build_spectrum

FREE = "free"
MEAN_FIELD_SCF = "mean_field_scf"
_MODELS = (FREE, MEAN_FIELD_SCF)


class SigmaZero(ValidationError):
    """The critical-density integral diverges at sigma = 0."""


class CutoffTooSmall(ValidationError):
    """Certified k_max tail exceeds the requested cutoff tolerance."""


class NotCondensing(ValidationError):
    """Diagnostic needs rho > rho_c."""


@dataclass(frozen=True)
class ThermoInput:
    """Physical point (box, beta, rho, lam) plus mode-sum controls.

    `k_max = None` (the default) stands for the certified cutoff
    `suggest_k_max(box, beta, cutoff_tol)`, resolved once every other
    field has passed its check.
    """

    box: BoxParams
    beta: float
    rho: float
    lam: float
    k_max: int | None = None
    cutoff_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValidationError(f"beta must be finite and > 0, got {self.beta}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValidationError(f"rho must be finite and > 0, got {self.rho}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValidationError(f"lam must be finite and >= 0, got {self.lam}")
        if not self.box.has_second_bound_state():
            raise NoSecondBoundState(
                f"thermo needs both wall modes bound: L*|sigma| > 2, got {self.box.L * self.box.s}"
            )
        if self.k_max is not None and (not isinstance(self.k_max, int) or self.k_max < 2):
            raise ValidationError(f"k_max must be an integer >= 2, got {self.k_max}")
        if not (0.0 < self.cutoff_tol < 1.0):
            raise ValidationError(f"cutoff_tol must be in (0, 1), got {self.cutoff_tol}")
        if self.k_max is None:
            object.__setattr__(self, "k_max", suggest_k_max(self.box, self.beta, self.cutoff_tol))


@dataclass(frozen=True, eq=False)
class ThermoState:
    """One solved equilibrium point: the input, the model, the spectrum
    table (modes 0..k_max) it was solved on, x and the occupations.
    Everything else is read from these."""

    params: ThermoInput
    model_tag: str
    spectrum: SpectrumTable
    x: float  # eps(0) - mu, solved for itself: mu may round to eps(0)
    occ: np.ndarray

    @property
    def mu(self) -> float:
        return float(self.spectrum.epsilons[0]) - self.x

    @property
    def epsilons(self) -> np.ndarray:
        return self.spectrum.epsilons

    @property
    def rho_tilde(self) -> float:
        """(1/L) sum_{k>=2} occ_k."""
        return float(self.occ[2:].sum() / self.params.box.L)

    @property
    def rho_cond_finite(self) -> float:
        """(occ_0 + occ_1)/L, the wall-pair density."""
        return float((self.occ[0] + self.occ[1]) / self.params.box.L)

    @property
    def density_residual(self) -> float:
        total = self.rho_tilde + self.rho_cond_finite
        return abs(total - self.params.rho)


# ----------------------------------------------------------------------
# critical density
# ----------------------------------------------------------------------

def _check_beta_sigma(beta, sigma):
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValidationError(f"beta must be finite and > 0, got {beta}")
    if not math.isfinite(sigma):
        raise ValidationError(f"sigma must be finite, got {sigma}")
    if sigma == 0.0:
        raise SigmaZero("critical density diverges at sigma = 0")


# Euler-Maclaurin coefficients -B_2k/(2k)! of f^(2k-1)(m) in a tail sum
# from n = m to infinity, k = 1, 2, 3, keyed by the derivative order
_EM_TAIL = {1: -1.0 / 12.0, 3: 1.0 / 720.0, 5: -1.0 / 30240.0}
_SERIES_HEAD = 31  # terms summed directly before the tail closes the series


def _boltzmann_tail(a: float, root_a: float, m: int) -> float:
    """sum_{n >= m} e^{-a n}/sqrt(n) by Euler-Maclaurin: the integral
    sqrt(pi/a) erfc(sqrt(m a)), f(m)/2 and the B2, B4, B6 terms of
    f(x) = e^{-a x} x^(-1/2), whose derivatives follow from Leibniz' rule.
    `root_a` is sqrt(a), passed separately so a tiny a cannot underflow."""
    w = math.exp(-a * m)
    if w == 0.0:  # every term is below the smallest double
        return 0.0
    # d^i/dx^i x^(-1/2) = powers[i] * m^(-1/2 - i) at x = m
    powers = [m**-0.5]
    for i in range(1, 6):
        powers.append(powers[-1] * (0.5 - i) / m)
    total = math.sqrt(math.pi) / root_a * math.erfc(math.sqrt(m) * root_a) + 0.5 * w * powers[0]
    for j, coeff in _EM_TAIL.items():
        deriv = math.fsum(math.comb(j, i) * (-a) ** (j - i) * powers[i] for i in range(j + 1))
        total += coeff * w * deriv
    return total


def critical_density(beta: float, sigma: float) -> float:
    """(1/pi) int_0^inf dk 1/(e^{beta (k^2 + sigma^2)} - 1)
    = Li_{1/2}(e^{-a}) / (2 sqrt(pi beta)) with a = beta sigma^2.

    Expanding the integrand in Boltzmann factors gives the series
    sum_{n>=1} e^{-n a}/sqrt(n); its first 31 terms are summed and the
    rest is closed by `_boltzmann_tail`.  For a from 1e-20 to 700 it is
    within 1e-14 relative of the polylogarithm at the double a (3e-15
    measured); rounding a = beta sigma^2 itself adds up to a * 2^-52.
    """
    _check_beta_sigma(beta, sigma)
    a = beta * sigma * sigma
    head = [math.exp(-n * a) / math.sqrt(n) for n in range(1, _SERIES_HEAD + 1)]
    tail = _boltzmann_tail(a, abs(sigma) * math.sqrt(beta), _SERIES_HEAD + 1)
    return (math.fsum(head) + tail) / (2.0 * math.sqrt(math.pi * beta))


def condensate_lower_bound(rho: float, beta: float, sigma: float) -> float:
    """max(0, rho - rho_c)."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise ValidationError(f"rho must be finite and > 0, got {rho}")
    return max(0.0, rho - critical_density(beta, sigma))


# ----------------------------------------------------------------------
# certified mode-sum cutoff
# ----------------------------------------------------------------------

def certified_density_tail(box: BoxParams, beta: float, eps0: float, k_max: int) -> float:
    """Upper bound on (1/L) sum_{k > k_max} occ_k at any mu <= eps0, using
    eps_k > ((k-1) pi/L)^2 and a Gaussian integral tail."""
    L = box.L
    y_min = beta * ((k_max * math.pi / L) ** 2 - eps0)
    series = (
        math.exp(beta * eps0)
        * (L / (2.0 * math.sqrt(math.pi * beta)))
        * math.erfc((k_max - 1) * math.pi * math.sqrt(beta) / L)
    )
    return series / (1.0 - math.exp(-y_min)) / L


def suggest_k_max(box: BoxParams, beta: float, cutoff_tol: float = 1e-10) -> int:
    """Smallest comfortable k_max with certified tail below cutoff_tol.

    Raises ValidationError once the cutoff would pass K_MAX_LIMIT, the
    largest table `build_spectrum` builds."""
    eps0_floor = -((box.s / math.tanh(0.5 * box.s * box.L)) ** 2)  # below eps(0)
    k = max(4, int(box.L * math.sqrt(max(1.0, 4.0 / beta)) / math.pi))
    for _ in range(200):
        if k > K_MAX_LIMIT:
            raise ValidationError(
                f"the certified mode-sum cutoff needs k_max > {K_MAX_LIMIT} "
                f"(L = {box.L}, beta = {beta}, cutoff_tol = {cutoff_tol})"
            )
        if certified_density_tail(box, beta, eps0_floor, k) < cutoff_tol:
            return k
        k = int(k * 1.3) + 4
    raise NumericalFailure("could not certify a mode-sum cutoff")


# ----------------------------------------------------------------------
# density equation
# ----------------------------------------------------------------------

def _occ_free(delta, beta, x):
    """Bose occupations 1/(e^{beta (delta + x)} - 1) at levels delta + x > 0
    above mu; expm1 -> inf gives the right limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(beta * (delta + x))


_SOLVE_PASSES = 200
# a Newton step in t = log(x / x_mid) this small leaves x within ~2 ulp of
# the root; at 1 eps, rounding noise in G kept some boxes stepping
_STEP_TOL = 2.0 * np.finfo(float).eps


def solve_mu(inp: ThermoInput, model: str = FREE) -> ThermoState:
    """Solve the density equation for x = eps(0) - mu_L > 0 by one
    safeguarded Newton iteration in t = log(x / x_mid) (see the module
    docstring) on the spectrum table of modes 0..inp.k_max, which the
    state keeps; mu = eps(0) - x.

    Raises CutoffTooSmall if the certified k_max tail exceeds
    inp.cutoff_tol, and ValidationError where x = eps(0) - mu is below the
    smallest double, and NumericalFailure if the iteration does not end in
    _SOLVE_PASSES evaluations.  The returned state satisfies
    |rho_tilde + rho_cond_finite - rho| <= 1e-10 * rho, and its
    rho_tilde is (1/L) * sum_{k>=2} occ_k.
    """
    if model not in _MODELS:
        raise ValidationError(f"model must be one of {_MODELS}, got {model!r}")
    spectrum = build_spectrum(inp.box, inp.k_max)
    eps0 = float(spectrum.epsilons[0])
    tail = certified_density_tail(inp.box, inp.beta, eps0, inp.k_max)
    if tail > inp.cutoff_tol:
        raise CutoffTooSmall(
            f"certified k_max tail {tail:.3e} exceeds cutoff_tol {inp.cutoff_tol:.3e}"
        )

    beta, L, rho = inp.beta, inp.box.L, inp.rho
    lam = inp.lam if model == MEAN_FIELD_SCF else 0.0
    q = spectrum.wavenumbers
    levels = q[2:] * q[2:] + q[0] * q[0]  # eps_k - eps(0) for k >= 2, no cancellation
    wall_levels = np.array([0.0, spectrum.wall_gap])
    # bose(beta x) = rho L at x_lo puts rho_tilde <= 0, so G < 0 there;
    # bose(beta x) = rho L / 2 at x_mid puts rho_tilde >= 0
    x_lo = math.log1p(1.0 / (rho * L)) / beta
    x_mid = math.log1p(2.0 / (rho * L)) / beta
    if not 0.0 < x_lo < x_mid < math.inf:
        raise ValidationError(
            f"eps(0) - mu ~ 1/(beta*rho*L) is below the smallest double "
            f"(beta = {beta:g}, rho*L = {rho * L:g})"
        )

    def at(t):
        """G = rho_tilde - (1/L) sum_{k>=2} occ_k at x = x_mid e^t, its
        slope dG/dt and the occupations."""
        x = x_mid * math.exp(t)
        walls = _occ_free(wall_levels, beta, x)
        rho_tilde = rho - float(walls[0] + walls[1]) / L
        excited = _occ_free(levels, beta, x + lam * max(rho_tilde, 0.0))
        value = rho_tilde - float(excited.sum() / L)
        bx = beta * x
        d_walls = float(walls @ ((1.0 + walls) * bx)) / L  # x d(rho_tilde)/dx
        d_excited = float(excited @ ((1.0 + excited) * bx)) / L
        if rho_tilde > 0.0 and d_excited > 0.0:  # 0 * inf at huge beta*lam
            d_excited *= 1.0 + lam * d_walls / x
        return value, d_walls + d_excited, walls, excited

    # t = log(x / x_mid) keeps x to ~ulp(t) relative, and t* ~ 0 when the
    # box condenses.  A tiny step ends the iteration only at the best point
    # so far: where G is steep (huge lam), one from the other side can be
    # tiny while |G| there is still large
    lo, hi, widen, t = math.log(x_lo / x_mid), math.inf, 4.0, 0.0
    best, from_hi = None, math.nan
    for _ in range(_SOLVE_PASSES):
        value, slope, walls, excited = at(t)
        improved = best is None or abs(value) < abs(best[0])
        if improved:
            best = value, t, walls, excited
        newton = 0.0 < slope < math.inf
        new = t - value / slope if newton else math.nan
        if value < 0.0:
            lo = t
        else:
            # the Newton step in y = bose(beta x) from here, as t (module
            # docstring); dy/dt = -beta x y (1 + y)
            hi, from_hi = t, math.nan
            if newton:
                y = float(walls[0])
                y *= 1.0 + value * beta * x_mid * math.exp(t) * (1.0 + y) / slope
                if 0.0 < y < math.inf:
                    from_hi = math.log(math.log1p(1.0 / y) / (beta * x_mid))
        if (improved and abs(new - t) <= _STEP_TOL) or hi - lo <= _STEP_TOL:
            break
        # safeguard: until some G > 0 is seen, steps up are capped at a
        # doubling width.  Inside the bracket, a step that leaves it is
        # replaced by `from_hi` (raised to lo + 2 eps if it ends that close
        # to lo: the root is then closer to lo than x resolves), and that
        # by bisection
        upper = hi if hi < math.inf else t + widen
        if not lo < new < upper:
            if hi == math.inf:
                new, widen = upper, 2.0 * widen
            else:
                new = max(from_hi, lo + _STEP_TOL) if from_hi > lo - _STEP_TOL else math.nan
                from_hi = math.nan  # once per hi
                if not lo < new < hi:
                    new = 0.5 * (lo + hi)
                    if not lo < new < hi:  # lo and hi are adjacent doubles
                        break
        t = new
    else:
        raise NumericalFailure(f"density root not found in {_SOLVE_PASSES} passes")

    _, t, walls, excited = best
    state = ThermoState(params=inp, model_tag=model, spectrum=spectrum,
                        x=x_mid * math.exp(t), occ=np.concatenate([walls, excited]))
    if not state.density_residual <= 1e-10 * rho:
        raise NumericalFailure(
            f"density residual {state.density_residual:.3e} above 1e-10 * rho"
        )
    return state


# ----------------------------------------------------------------------
# condensation diagnostics
# ----------------------------------------------------------------------

def equal_distribution_gap(state: ThermoState) -> float:
    """(occ_0 - occ_1)/L >= 0, via the exact splitting of the wall pair.

    With x0 = beta*x and b = beta*(eps(1) - eps(0)) from the table's
    `wall_gap`,
    occ_0 - occ_1 = bose(x0) - bose(x0 + b)
                  = (1 - e^{-b}) / (1 - e^{-x0-b}) * bose(x0),
    which neither cancels at large L nor overflows at large beta.
    """
    x0 = state.params.beta * state.x
    b = state.params.beta * state.spectrum.wall_gap
    return math.expm1(-b) / math.expm1(-x0 - b) * (math.exp(-x0) / -math.expm1(-x0)) / state.params.box.L


def _scaled_mu_offset(state: ThermoState) -> float:
    """(mu_L + sigma^2) * L = -(x + |eps(0) + sigma^2|) * L, a sum of
    positives in place of the cancelling mu + sigma^2."""
    return -(state.x + state.spectrum.wall_level_offsets[0]) * state.params.box.L


@dataclass(frozen=True, eq=False)
class MuAsymptoticsReport:
    """(mu_L + sigma^2) * L along a sweep and its extrapolated limit."""

    L_values: np.ndarray
    scaled_offsets: np.ndarray
    limit_estimate: float
    rho_cond: float
    reference: float
    rel_error: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "L": [float(v) for v in self.L_values],
            "scaled_mu_offset": [float(v) for v in self.scaled_offsets],
            "limit_estimate": self.limit_estimate,
            "rho_cond": self.rho_cond,
            "reference": self.reference,
            "rel_error": self.rel_error,
            "pass": self.passed,
        }


def mu_asymptotics_check(states, rho_cond: float | None = None, rel_tol: float = 0.05) -> MuAsymptoticsReport:
    """Fit y_L = (mu_L + sigma^2) * L against 1/L over the top half of an
    L-sweep; the intercept should approach -2/(beta * rho_cond).

    `rho_cond` defaults to the measured wall-mode density of the largest
    box.  Requires >= 5 solved states in the condensing regime, with two
    distinct L among those fitted.
    """
    states = sorted(states, key=lambda st: st.params.box.L)
    if len(states) < 5:
        raise ValidationError(f"need a sweep of >= 5 states, got {len(states)}")
    first = states[0].params
    for st in states:
        p = st.params
        if (p.box.sigma, p.beta, p.rho, p.lam) != (
            first.box.sigma,
            first.beta,
            first.rho,
            first.lam,
        ):
            raise ValidationError("sweep states must share (sigma, beta, rho, lam)")
    rho_c = critical_density(first.beta, first.box.sigma)
    if first.rho <= rho_c:
        raise NotCondensing(
            f"rho = {first.rho} <= rho_c = {rho_c}; no condensate to track"
        )
    if rho_cond is None:
        rho_cond = states[-1].rho_cond_finite
    Ls = np.array([st.params.box.L for st in states])
    ys = np.array([_scaled_mu_offset(st) for st in states])
    n_top = max(3, len(states) // 2)
    if Ls[-n_top] == Ls[-1]:  # Ls is sorted
        raise ValidationError(f"the mu fit needs two distinct L among the {n_top} largest states")
    x = 1.0 / Ls[-n_top:]
    coeffs = np.polyfit(x, ys[-n_top:], 1)
    limit = float(coeffs[1])
    reference = -2.0 / (first.beta * rho_cond)
    rel_error = abs(limit - reference) / abs(reference)
    return MuAsymptoticsReport(
        L_values=Ls,
        scaled_offsets=ys,
        limit_estimate=limit,
        rho_cond=float(rho_cond),
        reference=reference,
        rel_error=float(rel_error),
        passed=bool(rel_error <= rel_tol),
    )


def fit_exponential_rate(L_values, y_values) -> float:
    """Decay rate r from least squares on ln y = a - r L; positive y only,
    at least 3 of them at two or more distinct L."""
    L_arr = np.asarray(L_values, dtype=float)
    y_arr = np.asarray(y_values, dtype=float)
    keep = y_arr > 0.0
    if keep.sum() < 3:
        raise ValidationError("need >= 3 positive samples for a rate fit")
    L_fit = L_arr[keep]
    if L_fit.min() == L_fit.max():
        raise ValidationError("a rate fit needs two distinct L among its positive samples")
    slope = np.polyfit(L_fit, np.log(y_arr[keep]), 1)[0]
    return float(-slope)


# ----------------------------------------------------------------------
# sweep CSV
# ----------------------------------------------------------------------

SWEEP_HEADER = "L,mu,eps0,eps1,occ0_per_L,occ1_per_L,rho_tilde,gap,mu_plus_sigma2_times_L"


def write_sweep_csv(states, path, comment_lines=()) -> list[float]:
    """One row per solved state, ordered as given, 17 significant digits.

    Returns the `gap` column (`equal_distribution_gap` of each state), so a
    caller that also fits it need not evaluate it again.
    """
    gaps = []
    with open(path, "w", newline="\n") as fh:
        for line in comment_lines:
            fh.write(f"# {line}\n")
        fh.write(SWEEP_HEADER + "\n")
        for st in states:
            L = st.params.box.L
            gaps.append(equal_distribution_gap(st))
            row = (
                L,
                st.mu,
                st.epsilons[0],
                st.epsilons[1],
                st.occ[0] / L,
                st.occ[1] / L,
                st.rho_tilde,
                gaps[-1],
                _scaled_mu_offset(st),
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return gaps
