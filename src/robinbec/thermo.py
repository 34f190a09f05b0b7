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

The free model is the lam = 0 case of the SCF one.  Writing
nu = mu - lam*rt makes rt(nu) = (1/L) sum_{k>=2} bose(beta (eps_k - nu))
explicit, and both mu(nu) = nu + lam*rt(nu) and the total density
increase with nu, so the solve needs no fixed-point iteration: one
bracketed Brent root finds nu*, where mu reaches eps(0), and a second
solves the density equation in log(nu* - nu), in which the density stays
smooth as mu approaches eps(0).

The k-sum is cut at k_max with a certified Gaussian-tail bound using the
lower bracket eps_k > ((k-1) pi / L)^2.

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
from scipy.optimize import brentq

from .errors import NumericalFailure, ValidationError
from .spectrum import (
    K_MAX_LIMIT, BoxParams, NoSecondBoundState, SpectrumTable, bound_state_gap, build_spectrum,
)

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
    """Physical point (box, beta, rho, lam) plus mode-sum controls."""

    box: BoxParams
    beta: float
    rho: float
    lam: float
    k_max: int
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
        if not isinstance(self.k_max, int) or self.k_max < 2:
            raise ValidationError(f"k_max must be an integer >= 2, got {self.k_max}")
        if not (0.0 < self.cutoff_tol < 1.0):
            raise ValidationError(f"cutoff_tol must be in (0, 1), got {self.cutoff_tol}")


@dataclass(frozen=True, eq=False)
class ThermoState:
    """One solved equilibrium point."""

    params: ThermoInput
    model_tag: str
    mu: float
    occ: np.ndarray
    rho_tilde: float
    rho_cond_finite: float
    epsilons: np.ndarray

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

def _occ_free(eps, beta, mu):
    # expm1 -> inf -> occupation 0 is the right limit; expm1 -> 0 only at
    # mu = eps_k, which the callers evaluate only outside the physical range
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.expm1(beta * (eps - mu))


def _occupations(eps, beta, nu, lam, L):
    """(occ, rho_tilde, mu) at excited-level shift nu = mu - lam*rho_tilde.

    The k >= 2 occupations are bose(beta (eps_k - nu)), which fixes
    rho_tilde and then mu; the wall pair takes bose(beta (eps_k - mu)),
    a valid occupation only while mu < eps(0).
    """
    occ = np.empty_like(eps)
    occ[2:] = _occ_free(eps[2:], beta, nu)
    rho_tilde = float(occ[2:].sum() / L)
    mu = nu + lam * rho_tilde
    occ[:2] = _occ_free(eps[:2], beta, mu)
    return occ, rho_tilde, mu


_BRENT_RTOL = 4.0 * np.finfo(float).eps  # the smallest rtol brentq accepts


def _brent(f, a, b):
    """Root of f on the sign-change bracket [a, b] to full double precision."""
    root, info = brentq(f, a, b, xtol=1e-300, rtol=_BRENT_RTOL, full_output=True, disp=False)
    if not info.converged:
        raise NumericalFailure(f"root search on [{a!r}, {b!r}] did not converge: {info.flag}")
    return root


def solve_mu(inp: ThermoInput, model: str = FREE, spectrum: SpectrumTable | None = None) -> ThermoState:
    """Solve the density equation for mu_L < eps(0) with two bracketed
    Brent roots in nu = mu - lam*rho_tilde (see the module docstring).

    Raises CutoffTooSmall if the certified k_max tail exceeds
    inp.cutoff_tol.  The returned state satisfies
    |rho_tilde + rho_cond_finite - rho| < 1e-10 * rho, and its
    rho_tilde is (1/L) * sum_{k>=2} occ_k.
    """
    if model not in _MODELS:
        raise ValidationError(f"model must be one of {_MODELS}, got {model!r}")
    if spectrum is None:
        spectrum = build_spectrum(inp.box, inp.k_max)
    if spectrum.params != inp.box or spectrum.k_max < inp.k_max:
        raise ValidationError("spectrum table does not cover the requested input")
    eps = spectrum.epsilons[: inp.k_max + 1]
    eps0 = float(eps[0])
    tail = certified_density_tail(inp.box, inp.beta, eps0, inp.k_max)
    if tail > inp.cutoff_tol:
        raise CutoffTooSmall(
            f"certified k_max tail {tail:.3e} exceeds cutoff_tol {inp.cutoff_tol:.3e}"
        )

    beta, L, rho = inp.beta, inp.box.L, inp.rho
    lam = inp.lam if model == MEAN_FIELD_SCF else 0.0

    def at(nu):
        """(total density, mu) at nu."""
        occ, rho_tilde, mu = _occupations(eps, beta, nu, lam, L)
        return rho_tilde + float((occ[0] + occ[1]) / L), mu

    # nu* = eps0 - lam*rt(nu*) lies in [eps0 - shift, eps0], shift = lam*rt(eps0)
    shift = at(eps0)[1] - eps0 if lam > 0.0 else 0.0
    nu_star = eps0 - shift
    if shift > 1e-14 * abs(eps0):  # else eps0 - shift is within rounding of nu*
        nu_star = _brent(lambda nu: at(nu)[1] - eps0, eps0 - 2.0 * shift, eps0)

    # near end of the bracket: the first gap below nu* that puts mu below eps(0)
    gap = 1e-15 * abs(nu_star)
    for _ in range(60):
        total, mu = at(nu_star - gap)
        if mu < eps0:
            break
        gap *= 2.0
    else:
        raise NumericalFailure("could not place nu below the level where mu reaches eps(0)")
    if total < rho:
        raise ValidationError(
            f"target density {rho} is not reachable below eps(0); "
            "increase caps on the density or check parameters"
        )
    step = max(1.0, abs(eps0))
    for _ in range(200):
        if at(nu_star - step)[0] < rho:
            break
        step *= 2.0
    else:
        raise NumericalFailure("could not bracket mu from below")

    t = _brent(lambda t: at(nu_star - math.exp(t))[0] - rho, math.log(gap), math.log(step))
    occ, rho_tilde, mu = _occupations(eps, beta, nu_star - math.exp(t), lam, L)
    state = ThermoState(
        params=inp,
        model_tag=model,
        mu=float(mu),
        occ=occ,
        rho_tilde=rho_tilde,
        rho_cond_finite=float((occ[0] + occ[1]) / L),
        epsilons=eps,
    )
    if not (mu < eps0 and state.density_residual <= 1e-10 * rho):
        raise NumericalFailure(
            f"density residual {state.density_residual:.3e} above 1e-10 * rho "
            f"or mu = {mu!r} not below eps(0)"
        )
    return state


# ----------------------------------------------------------------------
# condensation diagnostics
# ----------------------------------------------------------------------

def equal_distribution_gap(state: ThermoState) -> float:
    """(occ_0 - occ_1)/L >= 0, via the exact splitting of the wall pair.

    occ_0 - occ_1 = expm1(beta*deps) / ((1 - e^{-x0}) * expm1(x0 + beta*deps))
    with x0 = beta (eps_0 - mu) and deps = eps(1) - eps(0) computed by
    `bound_state_gap`, so no catastrophic cancellation at large L.
    """
    box = state.params.box
    beta = state.params.beta
    deps = bound_state_gap(box)
    x0 = beta * (state.epsilons[0] - state.mu)
    num = math.expm1(beta * deps)
    den = (1.0 - math.exp(-x0)) * math.expm1(x0 + beta * deps)
    if not math.isfinite(den) or den == 0.0:
        return 0.0
    return num / den / box.L


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
    box.  Requires >= 5 solved states in the condensing regime.
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
    sig2 = first.box.sigma ** 2
    Ls = np.array([st.params.box.L for st in states])
    ys = np.array([(st.mu + sig2) * st.params.box.L for st in states])
    n_top = max(3, len(states) // 2)
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
    """Decay rate r from least squares on ln y = a - r L; positive y only."""
    L_arr = np.asarray(L_values, dtype=float)
    y_arr = np.asarray(y_values, dtype=float)
    keep = y_arr > 0.0
    if keep.sum() < 3:
        raise ValidationError("need >= 3 positive samples for a rate fit")
    slope = np.polyfit(L_arr[keep], np.log(y_arr[keep]), 1)[0]
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
            sig2 = st.params.box.sigma ** 2
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
                (st.mu + sig2) * L,
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return gaps
