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
state keeps its head table, and mu and the other derived values are read
from the table, x and the occupations);
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
distance above it.  Below the root, where rt > 0, G is concave in t once
lam*rt dominates (the excited sum falls by e per unit of beta lam rt), so
a Newton step on G gains one e-fold per evaluation; a Newton step on H =
log((1/L) sum_{k>=2} occ_k / rt), which has the same root and is nearly
linear there, is taken instead where it goes further (lam = 1e9 to 1e13:
a median of 8 evaluations and at most 11 on 400 random boxes, where the
steps on G took 28 and 35).  It stops once a step from the best point so
far is below 2 eps, or below 8 eps after a step of at most 2^-22 (Newton
is then quadratic, and the step is G's rounding), or the bracket is that
narrow or closes between adjacent doubles (lam = 1e300 puts the root's
rt below the rounding of rho - (occ_0 + occ_1)/L, so G jumps there), and
returns the evaluated point of smallest |G|: 2 to 7 evaluations on
typical boxes.  Where that |G| is above 2^-40 rho (beta lam rho eps >~ 1,
where lam rho_tilde moves the excited sum by e-folds from one double of x
to the next), the doubles of x next to it are walked toward the root
until G changes sign: on 2000 random boxes with lam = 1e6 to 1e16 and L
up to 1e16, 50 walked, at most 7 doubles, from |G| up to 1.2e-5 rho (13
of them above the 1e-10 rho residual check) to below 1e-12 rho.
mu = eps(0) - x may round to eps(0) at large beta; x keeps full
precision.

A given `k_max` is the mode cutoff: the k >= 2 sum is modes 2..k_max one
by one, and `certified_density_tail` bounds what it drops.  With none
given, the k >= 2 sum costs the same at every L, and takes one of two
paths, chosen once in `ThermoInput` from (box, beta, cutoff_tol) alone.

The continuum path, taken where `k_max` is not given and `continuum_plan`
fits (L|sigma| past ~20 at the default cutoff_tol; `Continuum`, the same
plan the density profile reads).  Poisson summation over the phase map
k(p) = (pL + 2 arctan(s/p))/pi of the k >= 2 roots, s = |sigma|, gives

    sum_{k>=2} b(p_k) = int_0^inf b(p) k'(p) dp - b(0)/2 + R,

b(p) = bose(beta (p^2 + l)), l = q0^2 + x' >= s^2, k'(p) = (L - 2s/(p^2 +
s^2))/pi: g(k) = b(p(k)) is even about k = 1, since k(p) - 1 is odd in p,
so its sum over k in Z counts b(0) once and every k >= 2 twice, and the
Euler-Maclaurin terms at k = 1 vanish.  R = sum_{j >= 1} ghat(j), the
Fourier transform of g(1 + tau) at the integers j: the interval's round
trips, the box integral of the profile's reflection series less that of
its F past L at both walls (`profile`).  The integral is the trapezoid
rule on the plan's nodes p_m = m dp, m < nodes: the k >= 2 sum is the
`Ladder` of head 1 whose levels are p_m^2 + q0^2 and whose weights are
dp k'(p_m), the m = 0 one halved less 1/2, with no Euler-Maclaurin
terms, so the state's table is the wall pair alone (k_max = 1).  On the
line Im p = -c, with 0 < c < s, every factor is bounded as in the
profile's parts: |b| by its real value at l - c^2, |(s + ip)/(s - ip)|
by rho = (s + c)/(s - c), |k'| by (L + 2s/(s^2 - c^2))/pi, and the
integral of b by 2 pi Q(c), Q(c) = critical_density(beta, sqrt(s^2 -
c^2)).  With f = 1 + 2s/(L (s^2 - c^2)) (below 1 + rho where Ls > 2), the
solve's certificate, in density (1/L) sum at every x' >= 0, has three
parts, each at the best height c of the plan's heights:

  (e) the round trips, |R|/L <= 2 Q f r/(1 - r) with r = rho^2 e^{-2cL},
      below the profile's (a) at every height: shifting ghat(j) to Im p =
      -c gains e^{-2jcL} rho^{2j};
  (f) the trapezoid rule: its aliasing, the copies of the transform of b
      k' at multiples of 2 pi/dp, is at most 2 Q f a/(1 - a), a =
      e^{-2 pi c/dp}, below the profile's copies in (b); and the cut past
      p_max = (nodes - 1) dp, with k' <= L/pi and b decreasing, is at most
      (1/pi) int_{p_max}^inf b dp, a third of (b)'s;
  (g) the rounding: with t_m = b_m (nodes + 20 + 8 beta (p_m^2 + s^2))
      at l = s^2, which bounds it at every l >= s^2, it is at most u
      sum_m |w_m| t_m/L, u = 2^-53, for the einsum's running sum (nodes u),
      each product and weight (8u, and w_0 = dp k'(0)/2 - 1/2 cancels
      where L is near pi/dp + 2/s, so it is taken with |w|), and each
      level and expm1 (6u (1 + beta (p^2 + l)) and 3u in b).  |w_m| <=
      dp L/pi, and |w_0| <= dp L/(2 pi) + 1/2 with 1/(2L) < s/4, bound it
      free of L.

The plan fits where the profile's four parts and these three are each at
most cutoff_tol/4, so the solve's certificate is at most 3/4 of it.

The ladder path, below the switch.  Modes 2..K (the head, `plan.head`)
are summed one by one on the head table; the rest is closed by
Euler-Maclaurin on the phase map (`ladder_sum`): the integral of
bose(beta (p^2 + q0^2 + x')) k'(p) dp from p_K, on Gauss-Legendre panels
in p, plus f(K)/2 and the B_2..B_2m terms (m <= 3), whose Taylor
coefficients come from inverting the phase map's series once per solve.  The remainder R is bounded a priori
(`_em_remainders`: Cauchy estimates on disks that stay clear of the Bose
poles and of the branch points p = +-is, Trefethen and Weideman, SIAM Rev.
56 (2014) 385-458), and so is the quadrature (`_quadrature`: Bernstein
ellipses); both hold at every x' = x + lam rho_tilde+ >= 0.  Their sum is
the certificate, unless `certified_density_tail`, which bounds what
dropping every mode above K leaves out at every mu <= eps(0), is at most
cutoff_tol: small boxes keep the truncated sum, on the same path
(`plan_ladder`).  `ThermoInput` takes the first K on the sequence 2, 6,
14, ... whose certificate is at most cutoff_tol.

One evaluation of G is one Bose vector: the trapezoid's nodes on the
continuum path (56 to 302 on the sweep-scf decks, the same at every L),
the head and the quadrature nodes on the ladder path (~60 entries from L =
50 to 1e8 at beta = 1), or modes 2..k_max of a given cutoff.  The state
keeps rho_tilde as that sum gave it.

Condensation diagnostics:

  * critical_density: rho_c = (1/pi) * int_0^inf dk 1/(e^{beta (k^2 +
    sigma^2)} - 1) = Li_{1/2}(e^{-beta sigma^2}) / (2 sqrt(pi beta)),
    summed exactly as the Boltzmann series sum_{n>=1} e^{-n beta
    sigma^2} / sqrt(n): 31 terms and an Euler-Maclaurin tail.
  * equal_distribution_gap: (occ_0 - occ_1)/L, evaluated through the
    near-degenerate splitting eps(1) - eps(0) so it stays accurate long
    after direct subtraction of double-precision occupations has
    underflowed into noise.
  * mu_asymptotics_check: fits (mu_L + sigma^2) * L along an L-sweep and
    compares the limit against -2/(beta * rho_cond).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import csvio
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

    `k_max` is an input and is never rewritten.  Given, it is the mode
    cutoff: modes 0..k_max are summed one by one and every mode above is
    dropped, which `certified_density_tail` must certify at cutoff_tol
    (else CutoffTooSmall, raised here before any spectrum is built).
    `None` (the default) leaves the path to `plan`: the half-line continuum
    where `continuum_plan` fits (head 1, the wall pair; module docstring),
    and else the first head on a fixed search sequence whose ladder
    certificate is at most cutoff_tol (`plan_ladder`).  `plan` is made once
    every other field has passed its check, and its `head` is the size of
    the solve's table.
    """

    box: BoxParams
    beta: float
    rho: float
    lam: float
    k_max: int | None = None
    cutoff_tol: float = 1e-10
    plan: LadderPlan = field(init=False, repr=False, compare=False)

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
        if self.k_max is not None and (
            not isinstance(self.k_max, int) or not 2 <= self.k_max <= K_MAX_LIMIT
        ):
            raise ValidationError(f"k_max must be an integer in [2, {K_MAX_LIMIT}], got {self.k_max}")
        if not (0.0 < self.cutoff_tol < 1.0):
            raise ValidationError(f"cutoff_tol must be in (0, 1), got {self.cutoff_tol}")
        if self.k_max is not None:
            plan = _cutoff_plan(self.box, self.beta, self.k_max, self.cutoff_tol)
        elif (continuum := continuum_plan(self.box, self.beta, self.cutoff_tol)) is not None:
            plan = LadderPlan(1, 0, (), continuum.density_certificate, continuum)
        else:
            plan = _head_plan(self.box, self.beta, self.cutoff_tol)
        object.__setattr__(self, "plan", plan)


@dataclass(frozen=True, eq=False)
class ThermoState:
    """One solved equilibrium point: the input, the model, the head table
    (modes 0..k_max; the wall pair alone on the continuum path) it was
    solved on, x, the occupations of the head's modes and rho_tilde = (1/L)
    sum_{k>=2} occ_k over every mode, head and certified tail.  Everything
    else is read from these."""

    params: ThermoInput
    model_tag: str
    spectrum: SpectrumTable
    x: float  # eps(0) - mu, solved for itself: mu may round to eps(0)
    occ: np.ndarray
    rho_tilde: float

    @property
    def mu(self) -> float:
        return float(self.spectrum.epsilons[0]) - self.x

    @property
    def epsilons(self) -> np.ndarray:
        return self.spectrum.epsilons

    @property
    def rho_cond_finite(self) -> float:
        """(occ_0 + occ_1)/L, the wall-pair density."""
        return float((self.occ[0] + self.occ[1]) / self.params.box.L)

    @property
    def density_residual(self) -> float:
        total = self.rho_tilde + self.rho_cond_finite
        return abs(total - self.params.rho)

    @property
    def excited_shift(self) -> float:
        """x' = x + lam max(rho - (occ_0 + occ_1)/L, 0) (lam = 0 for the free
        model): mode k >= 2 takes bose(beta (D_k + x'))."""
        lam = self.params.lam if self.model_tag == MEAN_FIELD_SCF else 0.0
        rho_tilde = self.params.rho - float(self.occ[0] + self.occ[1]) / self.params.box.L
        return self.x + lam * max(rho_tilde, 0.0)

    def occupations(self, table: SpectrumTable) -> np.ndarray:
        """occ_k for k = 0..table.k_max: the state's wall pair, and
        bose(beta (D_k + x')) for k >= 2 (`excited_shift`) on the table's
        own levels D_k = eps_k - eps(0), as the solve took them: the head's
        occupations bit for bit where the two tables overlap."""
        if table.params != self.params.box:
            raise ValidationError("spectrum and state describe different boxes")
        q = table.wavenumbers
        excited = _occ_free(q[2:] * q[2:] + q[0] * q[0], self.params.beta, self.excited_shift)
        return np.concatenate([self.occ[:2], excited])


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


# ----------------------------------------------------------------------
# certified mode-sum cutoff
# ----------------------------------------------------------------------

def _gaussian_tail(s: float, beta: float, z: float, p_top: float) -> float:
    """(1/pi) int_{z/sqrt(beta)}^inf e^{-beta (p^2 + s^2)} dp / (1 - e^{-y})
    with y = beta (p_top^2 + s^2): the density that Bose occupations
    bose(beta (p^2 + c)), c >= s^2, weighted by dk/dp <= L/pi, carry above
    p = z/sqrt(beta) when p_top is at most every p counted.  inf where
    1 - e^{-y} underflows."""
    denominator = -math.expm1(-beta * (p_top * p_top + s * s))  # 1 - e^{-y}
    series = math.exp(-beta * s * s) * math.erfc(z) / (2.0 * math.sqrt(math.pi * beta))
    return series / denominator if denominator > 0.0 else math.inf


def certified_density_tail(box: BoxParams, beta: float, k_max: int) -> float:
    """Upper bound on (1/L) sum_{k > k_max} occ_k at every mu <= eps(0).

    beta (eps_k - mu) >= y_k = beta (((k-1) pi/L)^2 + sigma^2), from the
    lower bracket eps_k > ((k-1) pi/L)^2 and eps(0) <= -sigma^2 (q0 >=
    |sigma|), so each occupation is at most e^{-y_k}/(1 - e^{-y}) with y
    the y_k of k = k_max + 1, and the Gaussian sum over k is bounded by
    its integral.  The bound does not depend on eps(0) or mu; it is inf
    where 1 - e^{-y} underflows.
    """
    L = box.L
    return _gaussian_tail(box.s, beta, (k_max - 1) * math.pi * math.sqrt(beta) / L, k_max * math.pi / L)


def _cutoff_plan(box: BoxParams, beta: float, k_max: int, cutoff_tol: float) -> LadderPlan:
    """The plan of the mode cutoff k_max: modes 2..k_max one by one and
    nothing above them.  Raises CutoffTooSmall where what that drops,
    `certified_density_tail`, exceeds cutoff_tol."""
    plan = LadderPlan(k_max, 0, (), certified_density_tail(box, beta, k_max))
    if not plan.certificate <= cutoff_tol:
        raise CutoffTooSmall(
            f"certified k_max tail {plan.certificate:.3e} exceeds cutoff_tol {cutoff_tol:.3e}")
    return plan


def suggest_k_max(box: BoxParams, beta: float, cutoff_tol: float = 1e-10) -> int:
    """The first cutoff whose `certified_density_tail` is below cutoff_tol
    on the search sequence k -> int(1.3 k) + 4 from max(4, L sqrt(max(1,
    4/beta))/pi); not always the smallest certified one.  A mode-sum
    profile takes it as its `k_max` (`profile.profile_input`); the density
    solve alone needs only a head (`plan_ladder`).

    Raises ValidationError once the cutoff would pass K_MAX_LIMIT, the
    largest table `build_spectrum` builds (k >= 4 * 1.3^n passes it within
    57 steps)."""
    start = box.L * math.sqrt(max(1.0, 4.0 / beta)) / math.pi  # inf at L = 1.7e308
    k = max(4, int(min(start, K_MAX_LIMIT + 1)))
    while k <= K_MAX_LIMIT:
        if certified_density_tail(box, beta, k) < cutoff_tol:
            return k
        k = int(k * 1.3) + 4
    raise ValidationError(
        f"the certified mode-sum cutoff needs k_max > {K_MAX_LIMIT} "
        f"(L = {box.L}, beta = {beta}, cutoff_tol = {cutoff_tol})"
    )


# ----------------------------------------------------------------------
# the k >= 2 mode sum: an explicit head and a certified ladder tail
# ----------------------------------------------------------------------

# a ladder tail takes the B_2, B_4, B_6 terms of `_EM_TAIL` on Taylor
# coefficients: -B_2j/(2j)! f^(2j-1)(K) = c_j [tau^(2j-1)] f(K + tau)
_EM_TERMS = [c * math.factorial(j) for j, c in _EM_TAIL.items()]
# (q, 2 zeta(q) q!/(2 pi)^q) for the remainder of m = 1, 2, 3 terms, q = 2m + 1:
# |P_q| <= 2 zeta(q)/(2 pi)^q bounds the periodic Bernoulli function, q!
# comes with a Cauchy estimate of f^(q), and zeta(q) is bounded above by
# 64 terms and the integral of the rest
_REMAINDER = [(q, 2.0 * (math.fsum(n ** -q for n in range(1, 65)) + 64.0 ** (1 - q) / (q - 1))
               * math.factorial(q) / (2.0 * math.pi) ** q) for q in (3, 5, 7)]
# radii r = eta sqrt(p^2 + s^2) of the disks about p that the remainder
# bound tries (`_em_remainders`)
_ETAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
# Bernstein ellipses rho the quadrature bound tries, as (2 log rho, the
# half-axes (rho + 1/rho)/2 and (rho - 1/rho)/2, (64/15)/(rho^2 - 1))
_ELLIPSES = [(2.0 * math.log(r), 0.5 * (r + 1.0 / r), 0.5 * (r - 1.0 / r), 64.0 / 15.0 / (r * r - 1.0))
             for r in (1.25, 1.5, 2.0, 3.0, 4.5, 7.0)]
_MAX_NODES = 64
_MAX_PANELS = 256
# the quadrature aims at this share of cutoff_tol, so a certified tail is
# taken about as accurately as the head's doubles (and so does the
# remainder, where three terms reach it)
_AIM = 2.0**-20


def _log_bose(y: float) -> float:
    """log(1/(e^y - 1)) for y > 0, without overflow."""
    return -y - math.log(-math.expm1(-y))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the Legendre recurrence (ufuncs only, so the rule is
    the same under every BLAS)."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = n * (p0 - x * p1) / (1.0 - x * x)
        step = p1 / slope
        x = x - step
        if np.all(np.abs(step) <= 1e-16):
            break
    p0, p1 = np.ones(n), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    slope = n * (p0 - x * p1) / (1.0 - x * x)
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


@functools.cache
def _panel_rules(counts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of Gauss-Legendre rules with these counts, one
    after the other."""
    rules = [_gauss_legendre(n) for n in counts]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def _em_remainders(s: float, L: float, beta: float, p: float) -> list[float]:
    """Bounds on the Euler-Maclaurin remainder R of sum_{k >= K} f(k),
    f(k) = bose(beta (p(k)^2 + c)), with the B_2..B_2m terms, m = 1, 2, 3
    (sum units), for p <= p(K) and every c >= s^2.

    |R| <= 2 zeta(q)/(2 pi)^q int_K^inf |f^(q)| dk, q = 2m + 1.  About a
    real p0 the disk |u - p0| <= r, r = eta sqrt(p0^2 + s^2), has Re u^2 >=
    p0^2/2 - r^2, and >= (p0 - r)^2 where r <= p0/2, so Re u^2 >= alpha
    p0^2 - a s^2 with (alpha, a) = ((1 - eta)^2, 2 eta - eta^2) where the
    disk at p stays right of p0/2 (and so at every p0 >= p), else (1/2 -
    eta^2, eta^2).  Then |bose| <= bose(beta w), w = alpha p0^2 + (1 - a)
    s^2, and the disk misses the branch points +-is of arctan(u/s).  The
    phase map k(u) = (uL + pi - 2 arctan(u/s))/pi is injective on it with
    |k'(u) - L/pi| <= theta L/pi, theta = 2s/(L w), so its image holds the
    disk of radius h = (1 - theta) L r/pi about k(p0), on which the inverse
    p(k) stays in the first disk (a contraction).  The Cauchy estimate
    |f^(q)| <= q! bose(beta w)/h^q; h grows with p0, so h at p bounds it,
    and dk <= (L/pi) dp leaves a Gaussian integral of bose(beta w) <=
    e^{-beta w}/(1 - e^{-beta w(p)}).  inf where theta >= 1.
    """
    bounds = [math.inf] * len(_REMAINDER)
    r2 = p * p + s * s
    for eta in _ETAS:
        if eta * math.sqrt(r2) <= 0.5 * p:
            alpha, a = (1.0 - eta) ** 2, 2.0 * eta - eta * eta
        else:
            alpha, a = 0.5 - eta * eta, eta * eta
        w = alpha * p * p + (1.0 - a) * s * s
        theta = 2.0 * s / (L * w)
        denominator = -math.expm1(-beta * w)
        if not (theta < 1.0 and denominator > 0.0 and beta * alpha > 0.0):
            continue
        log_h = math.log((1.0 - theta) * L * eta / math.pi) + 0.5 * math.log(r2)
        gauss = (math.exp(-beta * (1.0 - a) * s * s) * 0.5 * math.sqrt(math.pi / (beta * alpha))
                 * math.erfc(p * math.sqrt(beta * alpha)) / denominator)
        for i, (q, c) in enumerate(_REMAINDER):
            bound = c * (L / math.pi) * gauss * math.exp(min(700.0, -q * log_h))
            bounds[i] = min(bounds[i], bound)  # a nan bound is never taken
    return bounds


def _quadrature(s: float, L: float, beta: float, p: float, aim: float):
    """Gauss-Legendre panels ((lo, hi, nodes), ...) for int_p^inf F(u) k'(u)
    du, F = bose(beta (u^2 + c)), k'(u) = (L - 2s/(u^2 + s^2))/pi, every c
    >= s^2, and a bound on their error plus the Gaussian tail past the last
    one (sum units); (None, inf) where that cannot reach aim.

    Panels start at p and grow as min(sqrt(u^2 + s^2), 2/sqrt(beta)), the
    distance to the poles +-is of k' and the Gaussian's scale; they end
    where the tail is below aim/4.  On each, the n-point rule errs by at
    most (64/15) l M rho^{-2n}/(rho^2 - 1) for the panel's half-length l
    and any Bernstein ellipse rho on which |F k'| <= M (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3).  There
    Re u^2 >= v - s^2, the square of the least |Re u| less the square of
    the largest |Im u|, so M = bose(beta v) (L + 2s/v)/pi where v > 0.
    Each panel takes the fewest nodes (at most 64) whose bound, on the best
    of the ellipses tried, is below aim/2 shared out.  A panel that starts
    above p has its ellipses inside these, so the bound holds for it too.
    """
    edges = [p]
    while L * _gaussian_tail(s, beta, edges[-1] * math.sqrt(beta), edges[-1]) > 0.25 * aim:
        if len(edges) > _MAX_PANELS:
            return None, math.inf
        edges.append(edges[-1] + min(math.hypot(edges[-1], s), 2.0 / math.sqrt(beta)))
    total = L * _gaussian_tail(s, beta, edges[-1] * math.sqrt(beta), edges[-1])
    if not aim > 0.0:
        return None, math.inf
    log_target = math.log(0.5 * aim / max(1, len(edges) - 1))
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        best = (math.inf, math.inf)  # (nodes, bound)
        for log_rho2, a, b, factor in _ELLIPSES:
            near = max(0.0, mid - half * a)
            v = near * near - (half * b) ** 2 + s * s
            if not beta * v > 0.0:
                continue
            log_m = math.log((L + 2.0 * s / v) / math.pi * factor * half) + _log_bose(beta * v)
            if not log_m < math.inf:
                continue
            n = max(1, math.ceil((log_m - log_target) / log_rho2))
            if n <= _MAX_NODES:
                best = min(best, (n, math.exp(log_m - n * log_rho2)))
        if best[0] > _MAX_NODES:
            return None, math.inf
        panels.append((lo, hi, best[0]))
        total += best[1]
    return tuple(panels), total


@dataclass(frozen=True)
class LadderPlan:
    """How the k >= 2 sum of one box at one beta is taken: modes 2..head one
    by one, and above them either nothing (`terms` = 0; the certificate is
    `certified_density_tail`) or the Euler-Maclaurin tail of `ladder_sum`
    with its first `terms` Bernoulli terms and its integral on Gauss-Legendre
    `panels` ((lo, hi, nodes) in p); or, with head 1 and a `continuum`, the
    trapezoid rule on its nodes (module docstring).  `certificate` bounds
    what any of these drops or misses in density, (1/L) sum, at every x' >=
    0."""

    head: int
    terms: int
    panels: tuple
    certificate: float
    continuum: Continuum | None = None


def plan_ladder(box: BoxParams, beta: float, head: int, cutoff_tol: float) -> LadderPlan:
    """The plan for modes 2..head that the head search of an auto
    `ThermoInput` tries below the switch: the truncated sum where its
    `certified_density_tail` is at most cutoff_tol; else the
    Euler-Maclaurin tail where its certificate, remainder plus quadrature,
    is below both cutoff_tol and that tail; else the truncated sum with its
    tail.  The remainder takes the fewest terms that reach 2^-20
    cutoff_tol, else the best of the three.

    Both bounds are taken from p = (head - 1) pi/L, the lower end of the
    head's bracket, so no root is solved here: see `_em_remainders` and
    `_quadrature`, and `build_ladder` for where the integral starts.
    """
    s, L = box.s, box.L
    truncated = certified_density_tail(box, beta, head)
    if truncated <= cutoff_tol:
        return LadderPlan(head, 0, (), truncated)
    p = (head - 1) * math.pi / L  # below p(head)
    aim = _AIM * cutoff_tol * L
    remainders = _em_remainders(s, L, beta, p)
    m = next((i for i, r in enumerate(remainders) if r <= aim),
             min(range(len(remainders)), key=remainders.__getitem__))
    if remainders[m] <= cutoff_tol * L:
        panels, quadrature = _quadrature(s, L, beta, p, aim)
        certificate = (remainders[m] + quadrature) / L
        if certificate <= cutoff_tol and certificate < truncated:
            return LadderPlan(head, m + 1, panels, certificate)
    return LadderPlan(head, 0, (), truncated)


def _head_plan(box: BoxParams, beta: float, cutoff_tol: float) -> LadderPlan:
    """The plan of the first head on the sequence 2, 6, 14, ... (k -> 2k +
    2) whose certificate is at most cutoff_tol."""
    head = 2
    while head <= K_MAX_LIMIT:
        plan = plan_ladder(box, beta, head, cutoff_tol)
        if plan.certificate <= cutoff_tol:
            return plan
        head = 2 * head + 2
    raise ValidationError(
        f"the certified mode-sum cutoff needs k_max > {K_MAX_LIMIT} "
        f"(L = {box.L}, beta = {beta}, cutoff_tol = {cutoff_tol})"
    )


def _series_product(a: list, b: list) -> list:
    """The product of two power series, to the length of `a`."""
    out = [0.0] * len(a)
    for i, term in enumerate(a):
        for k in range(i, len(a)):
            out[k] += term * b[k - i]
    return out


def _em_weights(s: float, L: float, beta: float, p: float, scale: float, m: int) -> tuple:
    """e_n, n = 0..2m-1, with which the B_2..B_2m terms of `ladder_sum`
    are b sum_n (-b/scale)^n e_n at b = bose(y) (see `Ladder`).

    About k = K, u = p(k) - p, tau = k - K: the phase map's Taylor series
    tau = sum_j kappa_j u^j (kappa_1 = (L - 2s/(p^2 + s^2))/pi, then the
    series of arctan) is inverted by Lagrange's formula, [tau^i] u^j =
    (j/i) [w^{i-j}] psi^i with psi = w/tau(w).  With E = e^{-beta (2 p u +
    u^2)} = e^{-(y(k) - y)}, f(k) = bose(y(k)) = b E / (1 + b (1 - E)) =
    b sum_n (-b)^n E (1 - E)^n, so e_n = sum_j c_j [tau^(2j-1)] of
    E (scale (1 - E))^n; scale >= b keeps (-b/scale)^n within 1.
    """
    order = 2 * m - 1
    a0 = p * p + s * s
    recip = [1.0 / a0]  # 1/(a0 + 2 p w + w^2) = sum recip_n w^n
    for n in range(1, order):
        recip.append(-(2.0 * p * recip[-1] + (recip[-2] if n > 1 else 0.0)) / a0)
    kappa = [-2.0 * s * r / ((n + 1) * math.pi) for n, r in enumerate(recip)]  # kappa_{n+1}
    kappa[0] += L / math.pi
    psi = [1.0 / kappa[0]]  # 1/(kappa_1 + kappa_2 w + ...)
    for n in range(1, order):
        psi.append(-sum(kappa[i] * psi[n - i] for i in range(1, n + 1)) / kappa[0])
    # v_j = sum_i c_i [tau^(2i-1)] u^j, by [tau^i] u^j = (j/i) [w^(i-j)] psi^i
    v, power = [0.0] * (order + 1), psi
    for i, c in zip(range(1, order + 1, 2), _EM_TERMS):
        for j in range(1, i + 1):
            v[j] += c * j / i * power[i - j]
        if i < order:
            power = _series_product(_series_product(power, psi), psi)
    E = _series_product([(-2.0 * beta * p) ** j / math.factorial(j) for j in range(order + 1)],
                        [(-beta) ** (j // 2) / math.factorial(j // 2) if j % 2 == 0 else 0.0
                         for j in range(order + 1)])
    excess = [0.0] + [-scale * e for e in E[1:]]  # scale (1 - E)
    weights, term = [], E  # term = E (scale (1 - E))^n, by powers of u
    for n in range(order + 1):
        weights.append(sum(vj * tj for vj, tj in zip(v, term)))
        if n < order:
            term = _series_product(term, excess)
    return tuple(weights)


@dataclass(frozen=True, eq=False)
class Ladder:
    """A `LadderPlan` laid on a head table: the levels D = eps - eps(0) of
    modes 2..head, then of the quadrature nodes p_i (D = p_i^2 + q0^2), with
    their weights (1 for the head, 1/2 for mode `head` itself under the
    Euler-Maclaurin tail, the Gauss-Legendre weight times k'(p_i) for a
    node, dp k'(p_m) for a trapezoid node, the first halved less 1/2), and
    the coefficients e_n of the derivative terms at mode head
    (`_em_weights`; empty when the sum is truncated or on the continuum)
    with their `scale`."""

    plan: LadderPlan
    levels: np.ndarray
    weights: np.ndarray
    em: tuple
    scale: float


def build_ladder(spectrum: SpectrumTable, beta: float, plan: LadderPlan) -> Ladder:
    """The ladder of `plan` on `spectrum`, the table of modes 0..plan.head.
    The integral starts at the table's p(head), inside the first planned
    panel, or at p = 0 on the continuum's trapezoid nodes.  Raises
    NumericalFailure where the derivative terms overflow."""
    box, K = spectrum.params, plan.head
    if spectrum.k_max != K:
        raise ValidationError(f"a ladder with head {K} needs the table of modes 0..{K}")
    s, L = box.s, box.L
    q = spectrum.wavenumbers
    q0_squared = q[0] * q[0]
    if plan.continuum is not None:
        dp = plan.continuum.dp
        p = np.arange(plan.continuum.nodes) * dp
        weights = (dp / math.pi) * (L - 2.0 * s / (p * p + s * s))
        weights[0] = 0.5 * weights[0] - 0.5
        return Ladder(plan, p * p + q0_squared, weights, (), 1.0)
    head = q[2:] * q[2:] + q0_squared  # eps_k - eps(0), no cancellation
    if not plan.terms:
        return Ladder(plan, head, np.ones(K - 1), (), 1.0)
    lo, hi, counts = (np.array(column) for column in zip(*plan.panels))
    lo[0] = q[K]
    x, w = _panel_rules(tuple(counts.tolist()))
    half = np.repeat(0.5 * (hi - lo), counts)
    u = np.repeat(0.5 * (hi + lo), counts) + half * x
    weights = np.ones(K - 1 + len(u))
    weights[K - 2] = 0.5
    weights[K - 1:] = half * w * (L - 2.0 * s / (u * u + s * s)) / math.pi
    scale = float(_occ_free(head[-1:], beta, 0.0)[0])  # bose at mode head, x' = 0: the largest b
    scale = scale if scale > 0.0 else 1.0
    try:
        em = _em_weights(s, L, beta, float(q[K]), scale, plan.terms)
    except OverflowError:
        em = (math.nan,)
    if not all(math.isfinite(e) for e in em):
        raise NumericalFailure(f"Euler-Maclaurin terms overflow at head {K} (beta = {beta:g})")
    return Ladder(plan, np.concatenate([head, u * u + q0_squared]), weights, em, scale)


def ladder_sum(ladder: Ladder, beta: float, shift: float):
    """(S, S1, b): S = sum_{k>=2} bose(beta (D_k + shift)) and the Newton
    slope's S1 = sum_{k>=2} bose (1 + bose), both from the ladder's
    weighted levels and the Euler-Maclaurin terms at its head, and b the
    occupations at every level (modes 2..head first).

    Under the tail, sum_{k >= K} f(k) = int_K^inf f dk + f(K)/2 - sum_j
    B_2j/(2j)! f^(2j-1)(K) + R, the integral taken in p, dk = k'(p) dp, on
    the ladder's nodes; on the continuum (head 1) the weighted levels are
    the whole sum, int_1^inf f dk - f(1)/2.  With b = f(K), the terms are
    b sum_n (-b/scale)^n e_n for S and b (1 + b) sum_n (n + 1) (-b/scale)^n
    e_n for S1 (their y-derivative form, bose (1 + bose) = -bose').  Einsum
    reductions, no BLAS: the sums do not depend on the thread count.
    """
    b = _occ_free(ladder.levels, beta, shift)
    total = float(np.einsum("i,i->", ladder.weights, b))
    slope = float(np.einsum("i,i,i->", ladder.weights, b, 1.0 + b))
    if ladder.em:
        bk = float(b[ladder.plan.head - 2])
        ratio, power, value, derivative = -bk / ladder.scale, 1.0, 0.0, 0.0
        for n, e in enumerate(ladder.em):
            value += power * e
            derivative += (n + 1) * power * e
            power *= ratio
        total += bk * value
        slope += bk * (1.0 + bk) * derivative
    return total, slope, b


# ----------------------------------------------------------------------
# the half-line continuum, the plan the density profile shares
# ----------------------------------------------------------------------

_ETA = 2.0 ** -60  # the profile's (b) and (c) aim at this share of the bulk's scale
_LOG_TINY = math.log(2.0 ** -1022)  # nor below the smallest normal double
_MAX_TRAPEZOID_NODES = 2 ** 22
_U = 2.0 ** -53  # unit roundoff
# the contour heights c / s at which each bound is tried: 1 - 2^-30 serves
# L|sigma| up to ~1e9, where (a) is far below any cutoff_tol
_HEIGHTS = np.concatenate([np.arange(1, 64) / 64.0, 1.0 - 2.0 ** -np.arange(7.0, 31.0)])


class Continuum(NamedTuple):
    """The trapezoid nodes p_m = m dp (m < nodes) and layer width of the
    half-line continuum, the four parts of the density profile's
    certificate (`profile` module docstring) and the three of the density
    solve's (module docstring).  Where `continuum_plan` fits, each part is
    at most cutoff_tol/4, so `certificate`, the profile's, and
    `density_certificate`, the solve's, are at most cutoff_tol."""

    dp: float
    nodes: int
    layer: float
    remainder: float  # (a)
    quadrature: float  # (b)
    tail: float  # (c)
    rounding: float  # (d)
    round_trips: float  # (e)
    trapezoid: float  # (f)
    summation: float  # (g)

    @property
    def certificate(self) -> float:
        return self.remainder + self.quadrature + self.tail + self.rounding

    @property
    def density_certificate(self) -> float:
        return self.round_trips + self.trapezoid + self.summation


def _log_q(s, beta, c):
    """log of a bound on Q(c) = critical_density(beta, sqrt(s^2 - c^2)): its
    Boltzmann series sum_n e^{-nA}/sqrt(n) <= e^{-A} + sqrt(pi/A) erfc(sqrt(A))
    at A = beta (s^2 - c^2), over 2 sqrt(pi beta)."""
    A = beta * (s - c) * (s + c)
    z = np.sqrt(A)
    # erfcx(z) = e^{z^2} erfc(z), and its bound 1/(z sqrt(pi)) once erfc underflows
    erfcx = np.array([math.exp(v * v) * math.erfc(v) if v < 26.0 else 1.0 / (v * math.sqrt(math.pi))
                      for v in z])
    return -A - np.log(2.0 * np.sqrt(np.pi * beta)) + np.log1p(np.sqrt(np.pi / A) * erfcx)


def continuum_plan(box: BoxParams, beta: float, cutoff_tol: float) -> Continuum | None:
    """The half-line continuum's plan at (box, beta, cutoff_tol), or None
    where a part of either certificate does not fit (the profile's, whose
    (a) must also fit in share of the bulk's scale, `profile` module
    docstring; the solve's, module docstring) or the nodes pass
    `_MAX_TRAPEZOID_NODES`.  The one predicate of both paths, asked once
    per input by `ThermoInput`, whose `plan` the density solve and the
    density profile read."""
    plan = _continuum(box, beta, cutoff_tol)
    budget = 0.25 * cutoff_tol
    scale = math.exp(-beta * box.s * box.s) / (2.0 * math.sqrt(math.pi * beta))
    fits = all(part <= budget for part in plan[4:]) and plan.nodes <= _MAX_TRAPEZOID_NODES
    return plan if fits and plan.remainder <= budget * min(1.0, scale) else None


def _continuum(box: BoxParams, beta: float, cutoff_tol: float) -> Continuum:
    """`continuum_plan`'s plan, fit or not: `_trapezoid_nodes` at (|sigma|,
    beta, cutoff_tol), and the parts that depend on L, (a), (e) and (f)'s
    aliasing.  A part is inf or nan where beta or beta s^2 overflows, or
    where the bounds do not resolve the bulk."""
    s, L = box.s, box.L
    dp, nodes, layer, quadrature, tail, rounding, summation, cut, c, heights = (
        _trapezoid_nodes(s, beta, cutoff_tol))
    log_rho2, log_remainder, log_2q, log_alias, width = heights
    with np.errstate(all="ignore"):
        # (a): 2 Q (1 + rho) r/(1 - r), r = rho^2 e^{-2cL}, below 1 at some
        # height once L|sigma| > ~1
        log_r = log_rho2 - 2.0 * c * L
        log_1r = np.log(-np.expm1(log_r))  # log(1 - r)
        remainder = np.exp(np.min(np.where(log_r < 0.0, log_remainder + log_r - log_1r, np.inf)))
        # (e) and (f)'s aliasing: 2 Q f x/(1 - x) at x = r and at x = a =
        # e^{-2 pi c/dp}, f = 1 + 2s/(L (s^2 - c^2))
        log_f = np.log1p((2.0 * s / L) / width)
        round_trips = np.exp(np.min(np.where(log_r < 0.0, log_2q + log_f + log_r - log_1r, np.inf)))
        trapezoid = np.exp(np.min(log_alias + log_f)) + cut
    return Continuum(dp, nodes, layer, float(remainder), quadrature, tail, rounding, float(round_trips),
                     float(trapezoid), summation)


@functools.lru_cache(maxsize=64)
def _trapezoid_nodes(s: float, beta: float, cutoff_tol: float) -> tuple:
    """The parts of `_continuum` that do not depend on L: dp, nodes, layer,
    (b), (c), (d), (g) and (f)'s cut, then the heights c = s `_HEIGHTS` and
    the L-free terms of (a), (e) and (f)'s aliasing at each: log rho^2, log
    2 Q (1 + rho), log 2 Q, log 2 Q a/(1 - a) with the solve's a = e^{-2 pi
    c/dp}, and s^2 - c^2."""
    # the bulk's scale e^{-beta s^2}/(2 sqrt(pi beta)), the Boltzmann
    # series' first term at l = s^2
    log_scale = -beta * s * s - math.log(2.0 * math.sqrt(math.pi * beta))
    c = s * _HEIGHTS
    with np.errstate(all="ignore"):
        rho = (s + c) / (s - c)
        log_q = _log_q(s, beta, c)
        log_aim = min(math.log(cutoff_tol) - math.log(4.0), max(math.log(_ETA) + log_scale, _LOG_TINY))
        # (c): 2 rho Q e^{-2cY}, both walls
        layer = max(0.0, np.min((np.log(2.0 * rho) + log_q - log_aim) / (2.0 * c)))
        # (b): the copies of F at both walls and of C, (4 + 2 rho) Q a / (1 - a)
        # with a = e^{-2c (pi/dp - Y)}, take half the aim, and the cut the rest
        gap = np.min(np.logaddexp(0.0, np.log(2.0 * (4.0 + 2.0 * rho)) + log_q - log_aim) / (2.0 * c))
        dp = np.pi / (layer + gap)
        # the cut at p_max = (nodes - 1) dp, at both walls and in C, below
        # 3 (1/pi) int_{p_max}^inf b dp
        nodes, cut = 1, math.inf
        while not cut <= 0.5 * np.exp(log_aim) and nodes <= _MAX_TRAPEZOID_NODES:
            nodes = int(1.1 * nodes) + 1
            past = _gaussian_tail(s, beta, (nodes - 1) * dp * math.sqrt(beta), (nodes - 1) * dp)
            cut = 3.0 * past
        log_a = -2.0 * c * (np.pi / dp - layer)
        log_alias = np.log(4.0 + 2.0 * rho) + log_a - np.log(-np.expm1(log_a)) + log_q
        quadrature = np.exp(np.min(log_alias)) + cut
        tail = np.exp(np.min(np.log(2.0 * rho) + log_q - 2.0 * c * layer))
        # (d): |c_m| <= (dp/pi) b(p_m) at l = s^2 (half at m = 0).  A
        # Horner step rounds by ~4 ulp of |sum_{k >= m} c_k z^k|, and z^m
        # carries m times the rounding of z and of its angle 2 dp y <= 2 dp
        # Y; at the dip, each node's angle and square, and the einsum's
        # running sum, below C/32; C + F, and critical_density's 1e-14
        # (plus the rounding of beta l).  (g): u sum_m |w_m| t_m / L, with
        # |w_m|/L <= dp/pi, halved at m = 0 plus 1/(2L) < s/4
        rounding = summation = math.inf
        if nodes <= _MAX_TRAPEZOID_NODES:
            squares = (np.arange(nodes) * dp) ** 2
            b = _occ_free(squares, beta, s * s)
            weight = (dp / np.pi) * b
            weight[0] *= 0.5
            total = np.sum(weight)
            moment = np.sum(np.arange(1, nodes + 1) * weight)
            rounding = (_U * (2.0 * (2.0 * dp * layer + 8.0) * moment + nodes * total / 16.0)
                        + 2.0 * (1e-14 + 8.0 * _U * max(1.0, beta * s * s)) * total)
            t = b * (nodes + 20.0 + 8.0 * beta * (squares + s * s))
            summation = _U * ((dp / np.pi) * (np.sum(t) - 0.5 * t[0]) + 0.25 * s * t[0])
        log_2q = np.log(2.0) + log_q
        log_a = -2.0 * np.pi * c / dp
        heights = (2.0 * np.log(rho), np.log(2.0 * (1.0 + rho)) + log_q, log_2q,
                   log_2q + log_a - np.log(-np.expm1(log_a)), (s - c) * (s + c))
    return (float(dp), nodes, float(layer), float(quadrature), float(tail), float(rounding),
            float(summation), past, c, heights)


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
_SETTLED = 2.0**-22
# |G| at the stop above which the doubles of x next to it are walked, and
# how many of them at most
_G_SETTLED = 2.0**-40
_WALK = 64
_FLOAT_MAX = float(np.finfo(float).max)


def solve_mu(inp: ThermoInput, model: str = FREE) -> ThermoState:
    """Solve the density equation for x = eps(0) - mu_L > 0 by one
    safeguarded Newton iteration in t = log(x / x_mid) (see the module
    docstring) on the head table of modes 0..inp.plan.head (the wall pair
    on the continuum path, the given cutoff where `inp.k_max` is set),
    which the state keeps, and the ladder `inp.plan` lays on it; mu =
    eps(0) - x.
    `ThermoInput` has certified the plan.  Each evaluation takes one
    `ladder_sum` for the k >= 2 sum and its Newton slope.

    Raises ValidationError where 2/(rho L) overflows a float or x = eps(0)
    - mu is below the smallest double, and NumericalFailure if the
    iteration does not end in _SOLVE_PASSES evaluations.  The returned
    state satisfies |rho_tilde + rho_cond_finite - rho| <= 1e-10 * rho, and its
    rho_tilde is the ladder's (1/L) sum_{k>=2} occ_k, within
    inp.plan.certificate of the sum over every mode.
    """
    if model not in _MODELS:
        raise ValidationError(f"model must be one of {_MODELS}, got {model!r}")
    beta, L, rho = inp.beta, inp.box.L, inp.rho
    if not rho * L > 2.0 / _FLOAT_MAX:
        raise ValidationError(
            f"rho*L = {rho * L:g} is too small: 2/(rho*L) overflows a float "
            f"(rho = {rho:g}, L = {L:g})"
        )
    # bose(beta x) = rho L at x_lo puts rho_tilde <= 0, so G < 0 there;
    # bose(beta x) = rho L / 2 at x_mid puts rho_tilde >= 0
    x_lo = math.log1p(1.0 / (rho * L)) / beta
    x_mid = math.log1p(2.0 / (rho * L)) / beta
    if not 0.0 < x_lo < x_mid < math.inf:
        raise ValidationError(
            f"eps(0) - mu ~ 1/(beta*rho*L) is below the smallest double "
            f"(beta = {beta:g}, rho*L = {rho * L:g})"
        )
    spectrum = build_spectrum(inp.box, inp.plan.head)
    ladder = build_ladder(spectrum, beta, inp.plan)
    lam = inp.lam if model == MEAN_FIELD_SCF else 0.0
    wall_levels = np.array([0.0, spectrum.wall_gap])

    def at(x):
        """G = rho_tilde - (1/L) sum_{k>=2} occ_k at x, its slope x dG/dx
        (= dG/dt), the Newton step in t on log((1/L) sum_{k>=2} occ_k /
        rho_tilde) (nan where rho_tilde or the sum is not positive), the
        wall pair's occupations and the ladder's sum and occupations."""
        walls = _occ_free(wall_levels, beta, x)
        rho_tilde = rho - float(walls[0] + walls[1]) / L
        total, slope_sum, excited = ladder_sum(ladder, beta, x + lam * max(rho_tilde, 0.0))
        density = total / L
        value = rho_tilde - density
        bx = beta * x
        # einsum, not @: a BLAS dot's last bits follow its thread count
        d_walls = float(np.einsum("i,i->", walls, (1.0 + walls) * bx)) / L  # x d(rho_tilde)/dx
        d_excited = slope_sum * bx / L
        log_step = math.nan
        if rho_tilde > 0.0 and d_excited > 0.0:  # 0 * inf at huge beta*lam
            d_excited *= 1.0 + lam * d_walls / x
            if density > 0.0:
                log_step = math.log(density / rho_tilde) / (d_excited / density + d_walls / rho_tilde)
        return value, d_walls + d_excited, log_step, walls, (total, excited)

    # t = log(x / x_mid) keeps x to ~ulp(t) relative, and t* ~ 0 when the
    # box condenses.  A tiny step ends the iteration only at the best point
    # so far: where G is steep (huge lam), one from the other side can be
    # tiny while |G| there is still large
    lo, hi, widen, t = math.log(x_lo / x_mid), math.inf, 4.0, 0.0
    best, from_hi, last = None, math.nan, math.inf
    for _ in range(_SOLVE_PASSES):
        x = x_mid * math.exp(t)
        value, slope, log_step, walls, excited = at(x)
        improved = best is None or abs(value) < abs(best[0])
        if improved:
            best = value, x, walls, excited
        newton = 0.0 < slope < math.inf
        new = t - value / slope if newton else math.nan
        if value < 0.0:
            lo = t
            # G is concave where lam rho_tilde dominates, and the step on the
            # log of the sum's ratio to rho_tilde goes further (module docstring)
            if t + log_step > new:
                new = t + log_step
        else:
            # the Newton step in y = bose(beta x) from here, as t (module
            # docstring); dy/dt = -beta x y (1 + y)
            hi, from_hi = t, math.nan
            if newton:
                y = float(walls[0])
                y *= 1.0 + value * beta * x * (1.0 + y) / slope
                if 0.0 < y < math.inf:
                    from_hi = math.log(math.log1p(1.0 / y) / (beta * x_mid))
        # after a step of at most _SETTLED Newton is quadratic, and a step of
        # a few eps estimates the error of t to within its square: G's
        # rounding, which another evaluation would not resolve
        settled = abs(t - last) <= _SETTLED and abs(new - t) <= 4.0 * _STEP_TOL
        if (improved and (abs(new - t) <= _STEP_TOL or settled)) or hi - lo <= _STEP_TOL:
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
        last, t = t, new
    else:
        raise NumericalFailure(f"density root not found in {_SOLVE_PASSES} passes")

    # where beta lam rho eps >~ 1, lam rho_tilde moves the excited sum by
    # e-folds from one double of x to the next, and a step of 2 eps in t can
    # stop a few doubles short of the root with |G| far above its rounding:
    # walk the doubles of x toward the root until G changes sign
    value, x = best[:2]
    for _ in range(_WALK):
        if abs(best[0]) <= _G_SETTLED * rho:
            break
        x = math.nextafter(x, math.inf if value < 0.0 else 0.0)
        step_value, _, _, walls, excited = at(x)
        if abs(step_value) < abs(best[0]):
            best = step_value, x, walls, excited
        if (step_value < 0.0) != (value < 0.0):
            break
    _, x, walls, (total, excited) = best
    state = ThermoState(params=inp, model_tag=model, spectrum=spectrum, x=x,
                        occ=np.concatenate([walls, excited[:inp.plan.head - 1]]), rho_tilde=total / L)
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
    distinct L among those fitted, and a reference that the relative error
    can divide by.
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
    rel_error = abs(limit - reference) / abs(reference) if reference else math.inf
    if rel_error == math.inf:
        raise ValidationError(
            f"the mu fit's reference -2/(beta*rho_cond) = {reference:g} underflows "
            f"(beta = {first.beta:g}, rho_cond = {rho_cond:g})"
        )
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
    """One row per solved state, ordered as given, 17 significant digits
    (`csvio`).

    Returns the `gap` column (`equal_distribution_gap` of each state), so a
    caller that also fits it need not evaluate it again.
    """
    gaps, rows = [], []
    for st in states:
        L = st.params.box.L
        gaps.append(equal_distribution_gap(st))
        rows.append((L, st.mu, st.epsilons[0], st.epsilons[1], st.occ[0] / L, st.occ[1] / L,
                     st.rho_tilde, gaps[-1], _scaled_mu_offset(st)))
    table = np.array(rows, dtype=float).reshape(len(rows), len(SWEEP_HEADER.split(",")))
    with open(path, "wb") as fh:
        csvio.write_header(fh, comment_lines, SWEEP_HEADER)
        csvio.write_rows(fh, table.T)
    return gaps
